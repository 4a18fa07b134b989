package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"time"

	"msc"
	"msc/internal/core"
	"msc/internal/graph"
	"msc/internal/shortestpath"
	"msc/internal/telemetry"
)

// tracedJob is the traced leg of one workload, run in a child of its own.
type tracedJob struct {
	Workload workload `json:"workload"`
	Jobs     []job    `json:"jobs"`
	Seconds  float64  `json:"seconds"`
	// Spans is the file the spans are written to as JSON lines.
	Spans string `json:"spans"`
}

// tracedResult is what the traced child reports: the layer metrics of
// each pass, the pass-0 untraced placement of each instance, and every
// solve with the outcome of the checks made in the child.
type tracedResult struct {
	Passes     []map[string]*float64 `json:"passes"`
	Placements []string              `json:"placements"`
	Solves     []solveRecord         `json:"solves"`
	Problems   []string              `json:"problems,omitempty"`
}

// rowProbeRows is the number of cold rows the row-kernel probe times.
const rowProbeRows = 64

// passExtras are the measurements of one pass that are not spans.
type passExtras struct {
	untracedNS, tracedNS int64
	inputBytes           int64
	graphioAlloc         uint64
	residentBytes        int64 // largest over the pass's instances
	searchRowBytes       int64 // largest over the pass's instances
	rowNS, rowBytes      []float64
	// scanCells counts the (pair, candidate) cells the scans were asked
	// about: each rescanned pair against the whole candidate universe.
	scanCells float64
}

// runTraced solves every instance of the workload twice per pass —
// untraced, then through tracedProblem on a fresh instance — while
// another pass fits in the time budget, and checks that the two agree.
func runTraced(tj tracedJob) (tracedResult, error) {
	var res tracedResult
	tr := newTracer(tj.Workload.Name)
	start := time.Now()
	budget := time.Duration(tj.Seconds * float64(time.Second))
	for pass := 0; another(start, pass, budget); pass++ {
		tr.pass = pass
		first := len(tr.spans)
		var ex passExtras
		for i, j := range tj.Jobs {
			tr.instance = i
			if err := tracedInstance(tr, &ex, &res, pass, j); err != nil {
				return res, err
			}
		}
		res.Passes = append(res.Passes, passMetrics(tr.spans[first:], ex))
	}
	tr.fillSelf()
	f, err := os.Create(tj.Spans)
	if err != nil {
		return res, err
	}
	w := bufio.NewWriter(f)
	if err := tr.writeJSONL(w); err != nil {
		f.Close()
		return res, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return res, err
	}
	return res, f.Close()
}

func tracedInstance(tr *tracer, ex *passExtras, res *tracedResult, pass int, j job) error {
	check := func(ok bool, format string, args ...any) bool {
		if !ok {
			res.Problems = append(res.Problems, fmt.Sprintf("pass %d, %s: ", pass, j.In)+fmt.Sprintf(format, args...))
		}
		return ok
	}
	st, err := os.Stat(j.In)
	if err != nil {
		return err
	}
	ex.inputBytes += st.Size()

	// graphio: read and convert once; both solves share the graph.
	l := &loaded{}
	alloc0 := totalAlloc()
	end := tr.span("graphio.read")
	l.doc, err = readInstance(j.In)
	end()
	if err != nil {
		return err
	}
	end = tr.span("graphio.graph")
	err = l.convert()
	end()
	if err != nil {
		return err
	}
	ex.graphioAlloc += totalAlloc() - alloc0

	// Untraced solve on its own instance, so the traced one starts as cold.
	instA, err := l.newInstance(j)
	if err != nil {
		return err
	}
	c0 := telemetry.Global().Snapshot()
	t0 := time.Now()
	plA, ratioA, err := solve(instA, j)
	ex.untracedNS += time.Since(t0).Nanoseconds()
	if err != nil {
		return err
	}
	countA := telemetry.Global().Snapshot().Sub(c0)
	bodyA, err := encodePlacement(instA, l, j, plA, ratioA)
	if err != nil {
		return err
	}
	instA = nil

	// Traced build, solve and emit.
	res0 := msc.RowBytesResident()
	end = tr.span("shortestpath.build")
	instB, err := l.newInstance(j)
	end()
	if err != nil {
		return err
	}
	solveID := tr.begin("solve")
	plB, ratioB, err := solve(&tracedProblem{Instance: instB, tr: tr}, j)
	var countB telemetry.CounterSnapshot
	tr.end(solveID, func(s *span) {
		countB = s.Counters
		ex.tracedNS += s.durNS()
	})
	if err != nil {
		return err
	}
	for _, s := range tr.spans[solveID:] {
		if s.layer() == "scan" {
			ex.scanCells += float64(s.Counters.PairsRescanned) * float64(instB.NumCandidates())
		}
	}
	ex.residentBytes = max(ex.residentBytes, msc.RowBytesResident()-res0)
	ex.searchRowBytes = max(ex.searchRowBytes, int64(len(l.ps.Nodes()))*int64(l.g.N())*8)
	end = tr.span("emit")
	bodyB, err := encodePlacement(instB, l, j, plB, ratioB)
	if err == nil {
		err = os.WriteFile(j.Out, bodyB, 0o644)
	}
	end()
	if err != nil {
		return err
	}

	if pass == 0 {
		res.Placements = append(res.Placements, string(bodyA))
	}
	okA := check(string(bodyA) == res.Placements[tr.instance], "untraced placement differs from pass 0")
	okB := check(bytes.Equal(bodyA, bodyB), "traced placement differs from untraced:\n%s\nvs\n%s", bodyB, bodyA) &&
		check(countA.BackendInvariant() == countB.BackendInvariant(),
			"traced counters differ from untraced: %+v vs %+v", countB, countA)
	res.Solves = append(res.Solves, solveRecord{tr.instance, okA}, solveRecord{tr.instance, okB})

	// Probes: landmark construction and the cold-row kernel of the
	// instance's backend, on fresh structures.
	end = tr.span("shortestpath.landmarks_probe")
	shortestpath.NewLandmarks(l.g, core.DefaultLandmarks)
	end()
	end = tr.span("shortestpath.rows_probe")
	err = probeRows(ex, instB, l.g)
	end()
	return err
}

// probeRows times rowProbeRows cold rows, from sources spread over the
// graph, on a fresh table of the instance's backend. A dense table builds
// each row with one full Dijkstra.
func probeRows(ex *passExtras, inst *msc.Instance, g *graph.Graph) error {
	n := g.N()
	var row func(src graph.NodeID) int64
	switch t := inst.Table().(type) {
	case *shortestpath.Table:
		row = func(src graph.NodeID) int64 { shortestpath.Dijkstra(g, src); return int64(8 * n) }
	case *shortestpath.LazyTable:
		fresh := shortestpath.NewLazyTable(g, shortestpath.LazyOptions{})
		row = func(src graph.NodeID) int64 { fresh.Row(src); return int64(8 * n) }
	case *shortestpath.BoundedTable:
		fresh, err := shortestpath.NewBoundedTable(g, shortestpath.BoundedOptions{Reach: t.Reach(), Landmarks: -1})
		if err != nil {
			return err
		}
		row = func(src graph.NodeID) int64 { return fresh.SparseRow(src).Bytes() }
	default:
		return fmt.Errorf("unknown distance backend %T", t)
	}
	for i := 0; i < rowProbeRows; i++ {
		src := graph.NodeID(int64(i) * int64(n) / rowProbeRows)
		t0 := time.Now()
		b := row(src)
		ex.rowNS = append(ex.rowNS, float64(time.Since(t0).Nanoseconds()))
		ex.rowBytes = append(ex.rowBytes, float64(b))
	}
	return nil
}

// passMetrics turns one pass's spans and extras into the layer metrics.
// Times and counts are summed over the pass's instances.
func passMetrics(spans []span, ex passExtras) map[string]*float64 {
	m := map[string]*float64{}
	set := func(name string, v float64) { m[name] = &v }
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	var (
		durs      = map[string]int64{} // by span name
		layerDur  = map[string]int64{} // by layer, over solve descendants
		calls     = map[string]int{}   // by layer
		scanC     telemetry.CounterSnapshot
		commitC   telemetry.CounterSnapshot
		solveC    telemetry.CounterSnapshot
		buildC    telemetry.CounterSnapshot
		scanMS    []float64
		imbalance []float64
		boundsAlc uint64
		solveSelf int64
	)
	for i := range spans {
		s := &spans[i]
		durs[s.Name] += s.durNS()
		switch s.Name {
		case "solve":
			solveSelf += s.durNS()
			solveC = addCounters(solveC, s.Counters)
			continue
		case "shortestpath.build":
			buildC = addCounters(buildC, s.Counters)
			continue
		}
		if s.Parent < 0 {
			continue
		}
		l := s.layer()
		if spans[s.Parent-spans[0].ID].Name == "solve" {
			solveSelf -= s.durNS()
		}
		layerDur[l] += s.durNS()
		calls[l]++
		switch l {
		case "scan":
			scanC = addCounters(scanC, s.Counters)
			scanMS = append(scanMS, float64(s.durNS())/1e6)
		case "commit":
			commitC = addCounters(commitC, s.Counters)
		case "bounds":
			boundsAlc += s.AllocBytes
		}
		if s.ShardImbalance != nil {
			imbalance = append(imbalance, *s.ShardImbalance)
		}
	}
	set("graphio.read_s", sec(durs["graphio.read"]))
	set("graphio.graph_s", sec(durs["graphio.graph"]))
	set("graphio.alloc_mb", float64(ex.graphioAlloc)/1e6)
	set("graphio.input_mb", float64(ex.inputBytes)/1e6)
	set("shortestpath.build_s", sec(durs["shortestpath.build"]))
	set("shortestpath.landmarks_s", sec(durs["shortestpath.landmarks_probe"]))
	set("shortestpath.row_us", median(sorted(ex.rowNS))/1e3)
	set("shortestpath.row_bytes", median(sorted(ex.rowBytes)))
	work := addCounters(buildC, solveC)
	set("shortestpath.dijkstra_runs", float64(work.DijkstraRuns))
	set("shortestpath.edge_relaxations", float64(work.EdgeRelaxations))
	set("shortestpath.resident_mb", float64(ex.residentBytes)/1e6)
	set("search.init_s", sec(layerDur["search"]))
	set("search.init_calls", float64(calls["search"]))
	set("search.row_mb", float64(ex.searchRowBytes)/1e6)
	set("scan.s", sec(layerDur["scan"]))
	set("scan.calls", float64(calls["scan"]))
	if len(scanMS) > 0 {
		s := sorted(scanMS)
		set("scan.p50_ms", median(s))
		if p := highestTail(len(s)); p >= 90 {
			set("scan.p90_ms", percentile(s, 90))
		}
	}
	set("scan.candidate_evals", float64(scanC.CandidateEvals))
	set("scan.candidates_pruned", float64(scanC.CandidatesPruned))
	if ex.scanCells > 0 {
		set("scan.pruned_frac", float64(scanC.CandidatesPruned)/ex.scanCells)
	}
	set("scan.pairs_rescanned", float64(scanC.PairsRescanned))
	set("scan.pairs_skipped", float64(scanC.PairsSkipped))
	if len(imbalance) > 0 {
		var sum float64
		for _, v := range imbalance {
			sum += v
		}
		set("scan.shard_imbalance", sum/float64(len(imbalance)))
	}
	set("commit.s", sec(layerDur["commit"]))
	set("commit.calls", float64(calls["commit"]))
	set("commit.rows_merged", float64(commitC.RowsMerged))
	set("commit.rows_unchanged", float64(commitC.RowsUnchanged))
	if calls["remove"] > 0 {
		set("remove.s", sec(layerDur["remove"]))
	}
	if calls["drop"] > 0 {
		set("drop.s", sec(layerDur["drop"]))
	}
	set("survive.scenarios_evaled", float64(solveC.FailureScenariosEvaled))
	if calls["bounds"] > 0 {
		set("bounds.build_s", sec(durs["bounds.MuProblem"]+durs["bounds.NuProblem"]))
		set("bounds.eval_s", sec(durs["bounds.Mu"]+durs["bounds.Nu"]))
	}
	set("bounds.alloc_mb", float64(boundsAlc)/1e6)
	set("solve.self_s", sec(solveSelf))
	set("sigma.eval_s", sec(layerDur["sigma"]))
	set("sigma.evals", float64(solveC.SigmaEvals))
	set("emit.s", sec(durs["emit"]))
	if ex.untracedNS > 0 {
		set("trace.overhead_frac", float64(ex.tracedNS)/float64(ex.untracedNS)-1)
	}
	return m
}

// addCounters returns a + b, field by field, through the snapshot's own
// Sub so a counter added to telemetry is summed too.
func addCounters(a, b telemetry.CounterSnapshot) telemetry.CounterSnapshot {
	var zero telemetry.CounterSnapshot
	return a.Sub(zero.Sub(b))
}
