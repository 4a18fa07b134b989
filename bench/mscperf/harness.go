package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"msc"
	"msc/internal/graph"
	"msc/internal/shortestpath"
)

// Environment variables that turn the mscperf executable into one of its
// children: childEnv names the mode ("run" or "traced") and jobEnv holds
// the job as JSON.
const (
	childEnv = "MSCPERF_CHILD"
	jobEnv   = "MSCPERF_JOB"
)

// childTimeout bounds any one child process; the largest workload's child
// takes a few seconds.
const childTimeout = 120 * time.Second

// options configure one invocation: a set of workloads at one seed.
type options struct {
	workloads []workload
	seed      int64
	seconds   float64
	// legs selects what runs: 0 the end-to-end leg only, 1 the traced leg
	// only, anything else both.
	legs int
	log  io.Writer
}

func (o options) e2e() bool    { return o.legs != 1 }
func (o options) traced() bool { return o.legs != 0 }

// metricValue is one metric on one workload: the median of its samples
// (one per rep or pass) with Tukey hinges, or null when it does not apply.
type metricValue struct {
	Value   *float64  `json:"value"`
	Unit    string    `json:"unit"`
	Q1      *float64  `json:"q1,omitempty"`
	Q3      *float64  `json:"q3,omitempty"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

// checkCount counts how often one correctness check ran and failed.
type checkCount struct {
	Ran    int `json:"ran"`
	Failed int `json:"failed"`
}

type input struct {
	File   string `json:"file"`
	Seed   int64  `json:"seed"`
	SHA256 string `json:"sha256"`
	Bytes  int64  `json:"bytes"`
}

// workloadResult is everything one workload produced.
type workloadResult struct {
	Name      string                 `json:"name"`
	Inputs    []input                `json:"inputs"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Checks    map[string]*checkCount `json:"checks"`
	Problems  []string               `json:"problems,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	spans     string                 // the traced leg's spans as JSON lines, if it ran
}

// setResult is one invocation's output, one element of results.json.
type setResult struct {
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Legs      string           `json:"legs"`
	Host      map[string]any   `json:"host"`
	Workloads []workloadResult `json:"workloads"`
}

// correct reports whether every solve passed every check that applies.
func (w *workloadResult) correct() bool {
	if w.Failed > 0 || w.Attempted == 0 {
		return false
	}
	for _, c := range w.Checks {
		if c.Failed > 0 {
			return false
		}
	}
	return true
}

func (w *workloadResult) check(name string, ok bool, problem string) bool {
	c := w.Checks[name]
	if c == nil {
		c = &checkCount{}
		w.Checks[name] = c
	}
	c.Ran++
	if !ok {
		c.Failed++
		w.Problems = append(w.Problems, name+": "+problem)
	}
	return ok
}

// proc is a finished child process.
type proc struct {
	wall, cpu time.Duration
	maxRSSKB  int64
	stdout    []byte
	err       error
}

// runProc runs one child to completion, with stdout captured when
// capture is set, and measures it from fork to exit.
func runProc(ctx context.Context, capture bool, env []string, name string, args ...string) proc {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Env = append(os.Environ(), env...)
	var stdout, stderr bytes.Buffer
	if capture {
		cmd.Stdout = &stdout
	}
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	p := proc{wall: time.Since(start), stdout: stdout.Bytes()}
	if ps := cmd.ProcessState; ps != nil {
		p.cpu = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			p.maxRSSKB = ru.Maxrss
		}
	}
	if err != nil {
		p.err = fmt.Errorf("%s: %w: %s", filepath.Base(name), err, bytes.TrimSpace(stderr.Bytes()))
	}
	return p
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// tools are this tree's generator and solver commands.
type tools struct{ mscgen, mscplace, self string }

// buildTools builds cmd/mscgen and cmd/mscplace of the msc module the
// working directory resolves to into dir.
func buildTools(ctx context.Context, dir string) (tools, error) {
	self, err := os.Executable()
	if err != nil {
		return tools{}, err
	}
	// No child timeout here: the first build in a fresh cache compiles the
	// whole module.
	build := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator), "msc/cmd/mscgen", "msc/cmd/mscplace")
	if out, err := build.CombinedOutput(); err != nil {
		return tools{}, fmt.Errorf("go build: %w: %s", err, bytes.TrimSpace(out))
	}
	return tools{mscgen: filepath.Join(dir, "mscgen"), mscplace: filepath.Join(dir, "mscplace"), self: self}, nil
}

// runSet builds the tools and runs every workload of o in a fresh work
// directory, which it removes afterwards.
func runSet(ctx context.Context, o options) (*setResult, error) {
	work, err := os.MkdirTemp("", "mscperf-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	tl, err := buildTools(ctx, work)
	if err != nil {
		return nil, fmt.Errorf("build tools: %w", err)
	}
	set := &setResult{Seed: o.seed, Seconds: o.seconds, Legs: legsName(o), Host: map[string]any{
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "cpus": runtime.NumCPU(), "go": runtime.Version()}}
	for _, w := range o.workloads {
		fmt.Fprintf(o.log, "mscperf: %s\n", w.Name)
		res, err := runWorkload(ctx, o, tl, w, filepath.Join(work, w.Name))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		set.Workloads = append(set.Workloads, res)
	}
	return set, nil
}

func legsName(o options) string {
	switch {
	case !o.traced():
		return "e2e"
	case !o.e2e():
		return "traced"
	}
	return "both"
}

// solveRecord is one attempted solve and whether its own checks passed;
// an instance whose reference placement fails a check fails all of them.
type solveRecord struct {
	Instance int  `json:"instance"`
	OK       bool `json:"ok"`
}

func runWorkload(ctx context.Context, o options, tl tools, w workload, dir string) (workloadResult, error) {
	res := workloadResult{Name: w.Name, Checks: map[string]*checkCount{}, Metrics: map[string]metricValue{}}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	jobs := make([]job, w.Instances)
	for i := range jobs {
		seed := w.genSeed(o.seed, i)
		in := filepath.Join(dir, fmt.Sprintf("instance-%d.json", seed))
		args := append(append([]string(nil), w.Gen...), "-seed", strconv.FormatInt(seed, 10), "-out", in)
		if p := runProc(ctx, false, nil, tl.mscgen, args...); p.err != nil {
			return res, p.err
		}
		in1, err := hashInput(in, seed)
		if err != nil {
			return res, err
		}
		res.Inputs = append(res.Inputs, in1)
		jobs[i] = w.job(in, filepath.Join(dir, fmt.Sprintf("placement-%d.json", seed)), seed)
	}

	// The real mscplace solves each instance once: its placement is the
	// reference every other solve must reproduce, and the run doubles as
	// the untimed warm-up of the end-to-end leg.
	var solves []solveRecord
	refs := make([]*placement, len(jobs))
	var cliWall, cliCPU time.Duration
	for i, j := range jobs {
		rj := j
		rj.Out = filepath.Join(dir, fmt.Sprintf("mscplace-%d.json", j.Seed))
		p := runProc(ctx, false, nil, tl.mscplace, rj.mscplaceArgs()...)
		cliWall += p.wall
		cliCPU += p.cpu
		var pl placement
		if p.err == nil {
			pl, p.err = readPlacement(rj.Out)
		}
		ok := res.check("exit", p.err == nil, fmt.Sprint(p.err))
		if ok {
			refs[i] = &pl
		}
		solves = append(solves, solveRecord{i, ok})
	}

	if o.e2e() {
		s, err := e2eLeg(ctx, o, tl, w, jobs, refs, &res)
		if err != nil {
			return res, err
		}
		solves = append(solves, s...)
	}
	if o.traced() {
		s, err := tracedLeg(ctx, o, tl, w, jobs, refs, &res, dir)
		if err != nil {
			return res, err
		}
		solves = append(solves, s...)
		res.Metrics["cli.wall_s"] = single(cliWall.Seconds(), "s")
		res.Metrics["process.cpu_util"] = single(cliCPU.Seconds()/cliWall.Seconds(), "ratio")
	}

	instOK := make([]bool, len(jobs))
	for i, j := range jobs {
		instOK[i] = refs[i] != nil && verifyPlacement(j, *refs[i], &res)
	}
	res.Attempted = len(solves)
	for _, s := range solves {
		if !s.OK || !instOK[s.Instance] {
			res.Failed++
		}
	}
	res.Metrics["failed_frac"] = single(float64(res.Failed)/float64(res.Attempted), "ratio")
	return res, nil
}

// e2eLeg runs timed reps while another fits in the time budget (at least
// one): each rep solves every instance in a fresh child with tracing off,
// one child at a time.
func e2eLeg(ctx context.Context, o options, tl tools, w workload, jobs []job, refs []*placement, res *workloadResult) ([]solveRecord, error) {
	var solves []solveRecord
	samples := map[string][]float64{}
	first := make([]*placement, len(jobs))
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for rep := 0; another(start, rep, budget); rep++ {
		r := map[string]float64{}
		for i, j := range jobs {
			spec, err := json.Marshal(j)
			if err != nil {
				return nil, err
			}
			p := runProc(ctx, true, []string{childEnv + "=run", jobEnv + "=" + string(spec)}, tl.self)
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			var t childTimes
			var pl placement
			if p.err == nil {
				if p.err = json.Unmarshal(lastLine(p.stdout), &t); p.err == nil {
					pl, p.err = readPlacement(j.Out)
				}
			}
			ok := res.check("exit", p.err == nil, fmt.Sprint(p.err))
			if ok {
				if first[i] == nil {
					first[i] = &pl
				}
				ok = res.check("reps-agree", reflect.DeepEqual(pl, *first[i]),
					fmt.Sprintf("rep %d of %s differs from rep 0", rep, j.In)) && ok
				ok = res.check("mscplace-agree", refs[i] != nil && reflect.DeepEqual(pl, *refs[i]),
					fmt.Sprintf("rep %d of %s differs from mscplace -out", rep, j.In)) && ok
			}
			solves = append(solves, solveRecord{i, ok})
			r["wall_s"] += p.wall.Seconds()
			r["setup_s"] += float64(t.SetupNS) / 1e9
			r["solve_s"] += float64(t.SolveNS) / 1e9
			r["peak_rss_mb"] = max(r["peak_rss_mb"], float64(p.maxRSSKB)*1024/1e6)
			r["sigma"] += float64(pl.Sigma)
			if pl.SigmaWorst != nil {
				r["sigma_worst"] += float64(*pl.SigmaWorst)
			}
			r["ratio_bound"] += pl.RatioBound / float64(len(jobs))
		}
		for name, v := range r {
			samples[name] = append(samples[name], v)
		}
	}
	for _, m := range e2eMetrics {
		switch {
		case m.Name == "sigma_worst" && w.Survive == "", m.Name == "ratio_bound" && w.Alg != "sandwich":
			res.Metrics[m.Name] = metricValue{Unit: m.Unit}
		case samples[m.Name] != nil:
			res.Metrics[m.Name] = summarized(samples[m.Name], m.Unit)
		}
	}
	return solves, nil
}

// tracedLeg runs the traced leg in a child of its own and checks its
// untraced placements against the references.
func tracedLeg(ctx context.Context, o options, tl tools, w workload, jobs []job, refs []*placement, res *workloadResult, dir string) ([]solveRecord, error) {
	tj := tracedJob{Workload: w, Seconds: o.seconds, Spans: filepath.Join(dir, "spans.jsonl")}
	for _, j := range jobs {
		j.Out = filepath.Join(dir, fmt.Sprintf("traced-%d.json", j.Seed))
		tj.Jobs = append(tj.Jobs, j)
	}
	spec, err := json.Marshal(tj)
	if err != nil {
		return nil, err
	}
	p := runProc(ctx, true, []string{childEnv + "=traced", jobEnv + "=" + string(spec)}, tl.self)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	var tr tracedResult
	if p.err == nil {
		p.err = json.Unmarshal(lastLine(p.stdout), &tr)
	}
	if !res.check("exit", p.err == nil, fmt.Sprint(p.err)) {
		return []solveRecord{{0, false}}, nil
	}
	// Keep the spans in memory: the work directory goes away.
	spans, err := os.ReadFile(tj.Spans)
	if err != nil {
		return nil, err
	}
	res.spans = string(spans)
	// Every solve of an instance in the child reproduces its pass-0
	// placement or was failed there, so that placement decides for all.
	agree := make([]bool, len(jobs))
	for i, body := range tr.Placements {
		var pl placement
		err := json.Unmarshal([]byte(body), &pl)
		agree[i] = res.check("mscplace-agree", err == nil && refs[i] != nil && reflect.DeepEqual(pl, *refs[i]),
			fmt.Sprintf("traced leg's untraced placement of %s differs from mscplace -out", jobs[i].In))
	}
	solves := tr.Solves
	for k, s := range solves {
		solves[k].OK = s.OK && agree[s.Instance]
	}
	res.check("traced-agree", len(tr.Problems) == 0, fmt.Sprint(tr.Problems))

	for _, m := range layerMetrics {
		var xs []float64
		for _, pass := range tr.Passes {
			if v := pass[m.Name]; v != nil {
				xs = append(xs, *v)
			}
		}
		if len(xs) == 0 {
			res.Metrics[m.Name] = metricValue{Unit: m.Unit}
			continue
		}
		res.Metrics[m.Name] = summarized(xs, m.Unit)
	}
	return solves, nil
}

// verifyPlacement recounts the reference placement of one instance from
// first principles, with one Dijkstra per pair source on G ∪ F: σ, and
// under a survivability mode σ⁻. It reports whether both agree.
func verifyPlacement(j job, pl placement, res *workloadResult) bool {
	l := &loaded{}
	var err error
	if l.doc, err = readInstance(j.In); err == nil {
		err = l.convert()
	}
	if err != nil {
		return res.check("sigma-recount", false, err.Error())
	}
	shortcuts := make([]graph.Edge, len(pl.Shortcuts))
	for i, s := range pl.Shortcuts {
		shortcuts[i] = graph.Edge{U: s[0], V: s[1]}.Canon()
	}
	d := msc.NewThreshold(l.doc.FailureThreshold).D
	recount := augmentedRecount(l.g, l.ps, shortcuts, d)
	ok := res.check("sigma-recount", recount == pl.Sigma,
		fmt.Sprintf("%s: recounted σ %d, placement says %d", j.In, recount, pl.Sigma))
	if j.Survive == "" {
		return ok
	}
	knockout := knockoutMin(l.g, l.ps, shortcuts, d)
	return res.check("knockout-min", pl.SigmaWorst != nil && knockout == *pl.SigmaWorst,
		fmt.Sprintf("%s: knockout minimum σ %d, placement says σ⁻ %v", j.In, knockout, pl.SigmaWorst)) && ok
}

// augmentedRecount counts the pairs within d on G ∪ F, with one full
// Dijkstra per distinct pair source on the augmented graph: the graph
// shortestpath.AugmentedDistances builds, built once here instead of once
// per source.
func augmentedRecount(g *graph.Graph, ps *msc.PairSet, shortcuts []graph.Edge, d float64) int {
	b := graph.NewBuilder(g.N())
	for _, e := range g.Edges() {
		b.AddEdge(e.U, e.V, e.Length)
	}
	for _, f := range shortcuts {
		b.AddEdge(f.U, f.V, 0)
	}
	aug := b.MustBuild()
	bySource := map[graph.NodeID][]graph.NodeID{}
	for _, p := range ps.Pairs() {
		bySource[p.U] = append(bySource[p.U], p.W)
	}
	sigma := 0
	for u, ws := range bySource {
		row := shortestpath.Dijkstra(aug, u)
		for _, w := range ws {
			if row[w] <= d {
				sigma++
			}
		}
	}
	return sigma
}

// knockoutMin is σ⁻ under single shortcut failures, recounted: the least
// σ left after removing any one placed shortcut, or σ itself when none is
// placed. montecarlo.Inject measures the same minimum (a test checks they
// agree) but rebuilds G ∪ F once per pair, about 10 s per social-survive
// instance.
func knockoutMin(g *graph.Graph, ps *msc.PairSet, shortcuts []graph.Edge, d float64) int {
	if len(shortcuts) == 0 {
		return augmentedRecount(g, ps, nil, d)
	}
	least := -1
	rest := make([]graph.Edge, 0, len(shortcuts))
	for k := range shortcuts {
		rest = append(append(rest[:0], shortcuts[:k]...), shortcuts[k+1:]...)
		if s := augmentedRecount(g, ps, rest, d); least < 0 || s < least {
			least = s
		}
	}
	return least
}

func readPlacement(path string) (placement, error) {
	var pl placement
	data, err := os.ReadFile(path)
	if err != nil {
		return pl, err
	}
	if err := json.Unmarshal(data, &pl); err != nil {
		return pl, fmt.Errorf("%s: %w", path, err)
	}
	return pl, nil
}

func hashInput(path string, seed int64) (input, error) {
	f, err := os.Open(path)
	if err != nil {
		return input{}, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return input{}, err
	}
	return input{File: filepath.Base(path), Seed: seed, SHA256: hex.EncodeToString(h.Sum(nil)), Bytes: n}, nil
}

func summarized(xs []float64, unit string) metricValue {
	s := summarize(xs)
	return metricValue{Value: &s.Median, Unit: unit, Q1: &s.Q1, Q3: &s.Q3, N: s.N, Samples: xs}
}

func single(x float64, unit string) metricValue { return summarized([]float64{x}, unit) }

// another reports whether a timed loop that started at start and has
// finished done rounds runs one more: always the first, then as long as
// a round of average length still fits in the budget.
func another(start time.Time, done int, budget time.Duration) bool {
	if done == 0 {
		return true
	}
	elapsed := time.Since(start)
	return elapsed+elapsed/time.Duration(done) <= budget
}

// childMain runs the child named by mode with the job in jobEnv, printing
// its result as the last line of stdout.
func childMain(mode string) int {
	spec := []byte(os.Getenv(jobEnv))
	var (
		out any
		err error
	)
	switch mode {
	case "run":
		var j job
		if err = json.Unmarshal(spec, &j); err == nil {
			out, err = runChild(j)
		}
	case "traced":
		var tj tracedJob
		if err = json.Unmarshal(spec, &tj); err == nil {
			out, err = runTraced(tj)
		}
	default:
		err = errors.New("unknown child mode " + mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mscperf child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "mscperf child:", err)
		return 1
	}
	return 0
}
