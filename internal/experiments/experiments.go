package experiments

import (
	"fmt"
	"time"

	"msc/internal/core"
	"msc/internal/dynamic"
	"msc/internal/failprob"
	"msc/internal/graph"
	"msc/internal/mobility"
	"msc/internal/netbuild"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
	"msc/internal/telemetry"
	"msc/internal/viz"
	"msc/internal/xrand"
)

// The parameter grids below mirror §VII; Quick mode shrinks them so the
// full suite stays test-sized.

// mustRandom runs the random-placement baseline on an experiment-built
// instance, whose parameters are valid by construction; an InputError here
// is a bug in the experiment code itself.
func mustRandom(p core.Problem, trials int, rng *xrand.Rand, opts ...core.Option) core.Placement {
	pl, err := core.RandomPlacement(p, trials, rng, opts...)
	if err != nil {
		panic(fmt.Sprintf("experiments: random baseline: %v", err))
	}
	return pl
}

func (c Config) table1Params() (ks []int, pts []float64, m int) {
	if c.Quick {
		return []int{2, 4}, []float64{0.08, 0.14}, 8
	}
	return []int{2, 4, 6, 8, 10}, []float64{0.04, 0.08, 0.11, 0.14, 0.18}, 17
}

func (c Config) table2Params() (ks []int, pts []float64, m int) {
	if c.Quick {
		return []int{2, 4}, []float64{0.23, 0.31}, 8
	}
	return []int{2, 4, 6, 8, 10}, []float64{0.23, 0.27, 0.31, 0.35}, 63
}

// ratioTable computes σ(F_σ)/ν(F_σ) across the (k, p_t) grid on one
// dataset — the paper's empirical approximation-ratio diagnostics.
//
// It restricts shortcut endpoints to relay (non-pair) nodes. The published
// Tables I–II require that regime: under the unrestricted universe,
// greedy-σ gains at least one pair per shortcut by directly connecting a
// violating pair, so σ(F_σ) ≥ k and the ratio is forced upward toward 1 as
// k approaches m — whereas the paper's ratios decrease in k with σ(F_σ)
// stalling at small constants (see EXPERIMENTS.md for the decoding).
func (c Config) ratioTable(id, title string, ds dataset, ks []int, pts []float64, m int, stream int64) *Table {
	table := &Table{
		ID:       id,
		Title:    title,
		RowLabel: "k",
		ColLabel: "p_t",
	}
	for _, pt := range pts {
		table.Cols = append(table.Cols, fmt.Sprintf("%.2f", pt))
	}
	for _, k := range ks {
		row := TableRow{Label: fmt.Sprintf("%d", k)}
		for pi, pt := range pts {
			thr := failprob.NewThreshold(pt)
			ps, err := pairs.SampleViolating(ds.table, thr.D, m, c.rng(stream+int64(pi)))
			if err != nil {
				panic(fmt.Sprintf("experiments: %s pairs (p_t=%v): %v", id, pt, err))
			}
			opts := c.options(ds.table)
			opts.ExcludePairEndpoints = true
			// The record's counters cover the instance build; its wall_ms
			// is the solve alone.
			var before telemetry.CounterSnapshot
			if c.Sink != nil {
				before = telemetry.Global().Snapshot()
			}
			inst, err := core.NewInstance(ds.g, ps, thr, k, opts)
			if err != nil {
				panic(fmt.Sprintf("experiments: %s instance: %v", id, err))
			}
			var start time.Time
			if c.Sink != nil {
				start = time.Now()
			}
			fSigma := core.GreedySigma(inst, c.run())
			nu := inst.Nu(fSigma.Selection)
			ratio := 1.0
			if nu > 0 {
				ratio = float64(fSigma.Sigma) / nu
			}
			if c.Sink != nil {
				// Instances take Config.Options.Survive (the mscbench
				// -survive flag); record the resolved mode and, when
				// survivable, the declared worst-case σ⁻ (−1 otherwise).
				sigmaWorst := -1
				if inst.Survive() != core.SurviveNone {
					sigmaWorst = inst.SigmaWorst(fSigma.Selection)
				}
				c.Sink.Emit(telemetry.RunRecord{
					Name:       fmt.Sprintf("%s k=%d pt=%.2f", id, k, pt),
					Algorithm:  "greedy_sigma",
					Seed:       c.Seed,
					Survive:    string(inst.Survive()),
					Quick:      c.Quick,
					N:          inst.N(),
					Pairs:      ps.Len(),
					Candidates: inst.NumCandidates(),
					K:          k,
					Pt:         pt,
					Sigma:      fSigma.Sigma,
					MaxSigma:   inst.MaxSigma(),
					SigmaWorst: sigmaWorst,
					WallMS:     float64(time.Since(start).Nanoseconds()) / 1e6,
					Counters:   telemetry.Global().Snapshot().Sub(before),
				})
			}
			row.Cells = append(row.Cells, ratio)
		}
		table.Rows = append(table.Rows, row)
	}
	return table
}

// Table1 regenerates Table I: the approximation ratio σ(F_σ)/ν(F_σ) on the
// Random Geometric graph (n=100, m=17).
func (c Config) Table1() *Table {
	ks, pts, m := c.table1Params()
	return c.ratioTable("Table I", "σ(F_σ)/ν(F_σ) for Random Geometric graph",
		c.rggDataset(), ks, pts, m, 100)
}

// Table2 regenerates Table II: the same ratio on the Gowalla-style
// location-based social network (n≈134, m=63).
func (c Config) Table2() *Table {
	ks, pts, m := c.table2Params()
	return c.ratioTable("Table II", "σ(F_σ)/ν(F_σ) for Gowalla dataset",
		c.socialDataset(), ks, pts, m, 200)
}

// Fig1Result carries the Fig. 1 reproduction: the shortcut placements of
// the approximation algorithm and the random baseline on the same
// geometric instance, ready to render.
type Fig1Result struct {
	AA                   core.Placement
	Random               core.Placement
	SceneAA, SceneRandom viz.Scene
	// K and Pt echo the instance parameters.
	K  int
	Pt float64
}

// Fig1 regenerates Fig. 1: the placement picture of AA vs random selection
// on a Random Geometric graph.
func (c Config) Fig1() Fig1Result {
	n, m, k, pt, trials := 60, 14, 4, 0.11, 500
	if c.Quick {
		n, m, k, trials = 30, 8, 3, 50
	}
	ds := c.smallRGG(n)
	thr := failprob.NewThreshold(pt)
	ps, err := pairs.SampleViolating(ds.table, thr.D, m, c.rng(300))
	if err != nil {
		panic(fmt.Sprintf("experiments: fig1 pairs: %v", err))
	}
	inst, err := core.NewInstance(ds.g, ps, thr, k, c.options(ds.table))
	if err != nil {
		panic(fmt.Sprintf("experiments: fig1 instance: %v", err))
	}
	aa := core.Sandwich(inst, c.run()).Best
	rnd := mustRandom(inst, trials, c.rng(301), c.run())
	return Fig1Result{
		AA:     aa,
		Random: rnd,
		SceneAA: viz.Scene{
			Graph: ds.g, Pairs: ps, Shortcuts: aa.Edges,
			Title: fmt.Sprintf("Approximation Algorithm: %d/%d pairs maintained", aa.Sigma, m),
		},
		SceneRandom: viz.Scene{
			Graph: ds.g, Pairs: ps, Shortcuts: rnd.Edges,
			Title: fmt.Sprintf("Random Selection (best of %d): %d/%d pairs maintained", trials, rnd.Sigma, m),
		},
		K:  k,
		Pt: pt,
	}
}

func (c Config) smallRGG(n int) dataset {
	full := c.rggDataset()
	if full.g.N() <= n {
		return full
	}
	keep := make([]graph.NodeID, n)
	for i := range keep {
		keep[i] = graph.NodeID(i)
	}
	sub, _ := full.g.InducedSubgraph(keep)
	comp := sub.LargestComponent()
	sub2, _ := sub.InducedSubgraph(comp)
	return dataset{name: "RG-small", g: sub2, table: shortestpath.NewTable(sub2, 0)}
}

// Fig2 regenerates Fig. 2: maintained connections of AA vs the random
// baseline across k, for several p_t, on both datasets. The returned
// figures are [RG, Gowalla].
func (c Config) Fig2() []*Figure {
	ks := []int{2, 4, 6, 8, 10}
	trials := 500
	mRG, mGW := 80, 76
	ptsRG := []float64{0.08, 0.14}
	ptsGW := []float64{0.23, 0.31}
	if c.Quick {
		ks = []int{2, 4}
		trials = 30
		mRG, mGW = 10, 10
		ptsRG = ptsRG[:1]
		ptsGW = ptsGW[:1]
	}
	figs := make([]*Figure, 0, 2)
	for di, ds := range []dataset{c.rggDataset(), c.socialDataset()} {
		m := mRG
		pts := ptsRG
		if di == 1 {
			m = mGW
			pts = ptsGW
		}
		fig := &Figure{
			ID:     fmt.Sprintf("Fig 2(%c)", 'a'+di),
			Title:  fmt.Sprintf("AA vs Random Selection on %s (m=%d)", ds.name, m),
			XLabel: "k",
			YLabel: "maintained social connections (σ)",
		}
		for _, k := range ks {
			fig.X = append(fig.X, float64(k))
		}
		for pi, pt := range pts {
			aaY := make([]float64, 0, len(ks))
			rndY := make([]float64, 0, len(ks))
			thr := failprob.NewThreshold(pt)
			ps, err := pairs.SampleViolating(ds.table, thr.D, m, c.rng(400+int64(10*di+pi)))
			if err != nil {
				panic(fmt.Sprintf("experiments: fig2 pairs: %v", err))
			}
			for _, k := range ks {
				inst, err := core.NewInstance(ds.g, ps, thr, k, c.options(ds.table))
				if err != nil {
					panic(fmt.Sprintf("experiments: fig2 instance: %v", err))
				}
				aaY = append(aaY, float64(core.Sandwich(inst, c.run()).Best.Sigma))
				rndY = append(rndY, float64(mustRandom(inst, trials, c.rng(450+int64(10*di+pi)), c.run()).Sigma))
			}
			fig.Series = append(fig.Series,
				Series{Name: fmt.Sprintf("AA p_t=%.2f", pt), Y: aaY},
				Series{Name: fmt.Sprintf("Random p_t=%.2f", pt), Y: rndY},
			)
		}
		figs = append(figs, fig)
	}
	return figs
}

// Fig3 regenerates Fig. 3: AA vs EA vs AEA across k for several p_t, on
// both datasets (r=500, l=10, δ=0.05 as in §VII-D).
func (c Config) Fig3() []*Figure {
	ks := []int{2, 4, 6, 8, 10}
	iters := 500
	mRG, mGW := 80, 76
	ptsRG := []float64{0.08, 0.14}
	ptsGW := []float64{0.23, 0.31}
	if c.Quick {
		ks = []int{2, 4}
		iters = 60
		mRG, mGW = 10, 10
		ptsRG = ptsRG[:1]
		ptsGW = ptsGW[:1]
	}
	figs := make([]*Figure, 0, 2)
	for di, ds := range []dataset{c.rggDataset(), c.socialDataset()} {
		m := mRG
		pts := ptsRG
		if di == 1 {
			m = mGW
			pts = ptsGW
		}
		fig := &Figure{
			ID:     fmt.Sprintf("Fig 3(%c)", 'a'+di),
			Title:  fmt.Sprintf("Proposed algorithms on %s (m=%d, r=%d)", ds.name, m, iters),
			XLabel: "k",
			YLabel: "maintained social connections (σ)",
		}
		for _, k := range ks {
			fig.X = append(fig.X, float64(k))
		}
		for pi, pt := range pts {
			thr := failprob.NewThreshold(pt)
			ps, err := pairs.SampleViolating(ds.table, thr.D, m, c.rng(500+int64(10*di+pi)))
			if err != nil {
				panic(fmt.Sprintf("experiments: fig3 pairs: %v", err))
			}
			aaY := make([]float64, 0, len(ks))
			eaY := make([]float64, 0, len(ks))
			aeaY := make([]float64, 0, len(ks))
			for _, k := range ks {
				inst, err := core.NewInstance(ds.g, ps, thr, k, c.options(ds.table))
				if err != nil {
					panic(fmt.Sprintf("experiments: fig3 instance: %v", err))
				}
				aaY = append(aaY, float64(core.Sandwich(inst, c.run()).Best.Sigma))
				ea := core.EA(inst, core.EAOptions{Iterations: iters, RunOptions: c.run()}, c.rng(550+int64(10*di+pi)))
				eaY = append(eaY, float64(ea.Best.Sigma))
				aea := core.AEA(inst, core.AEAOptions{Iterations: iters, PopSize: 10, Delta: 0.05, RunOptions: c.run()},
					c.rng(560+int64(10*di+pi)))
				aeaY = append(aeaY, float64(aea.Best.Sigma))
			}
			fig.Series = append(fig.Series,
				Series{Name: fmt.Sprintf("AA p_t=%.2f", pt), Y: aaY},
				Series{Name: fmt.Sprintf("EA p_t=%.2f", pt), Y: eaY},
				Series{Name: fmt.Sprintf("AEA p_t=%.2f", pt), Y: aeaY},
			)
		}
		figs = append(figs, fig)
	}
	return figs
}

// Fig4 regenerates Fig. 4: maintained connections of EA and AEA as a
// function of the iteration count r (AA shown as the flat reference), for
// two budgets, on both datasets.
func (c Config) Fig4() []*Figure {
	ksets := []int{4, 8}
	rMax := 500
	checkEvery := 50
	mRG, mGW := 80, 76
	ptRG, ptGW := 0.14, 0.23
	if c.Quick {
		ksets = []int{3}
		rMax, checkEvery = 60, 20
		mRG, mGW = 10, 10
	}
	figs := make([]*Figure, 0, 2)
	for di, ds := range []dataset{c.rggDataset(), c.socialDataset()} {
		m, pt := mRG, ptRG
		if di == 1 {
			m, pt = mGW, ptGW
		}
		fig := &Figure{
			ID:     fmt.Sprintf("Fig 4(%c)", 'a'+di),
			Title:  fmt.Sprintf("Convergence on %s (m=%d, p_t=%.2f)", ds.name, m, pt),
			XLabel: "r",
			YLabel: "maintained social connections (σ)",
		}
		for r := checkEvery; r <= rMax; r += checkEvery {
			fig.X = append(fig.X, float64(r))
		}
		thr := failprob.NewThreshold(pt)
		ps, err := pairs.SampleViolating(ds.table, thr.D, m, c.rng(600+int64(di)))
		if err != nil {
			panic(fmt.Sprintf("experiments: fig4 pairs: %v", err))
		}
		for _, k := range ksets {
			inst, err := core.NewInstance(ds.g, ps, thr, k, c.options(ds.table))
			if err != nil {
				panic(fmt.Sprintf("experiments: fig4 instance: %v", err))
			}
			aa := core.Sandwich(inst, c.run()).Best
			ea := core.EA(inst, core.EAOptions{Iterations: rMax, RecordTrace: true, RunOptions: c.run()},
				c.rng(650+int64(10*di+k)))
			aea := core.AEA(inst, core.AEAOptions{Iterations: rMax, PopSize: 10, Delta: 0.05, RecordTrace: true,
				RunOptions: c.run()},
				c.rng(660+int64(10*di+k)))
			aaY := make([]float64, 0, len(fig.X))
			eaY := make([]float64, 0, len(fig.X))
			aeaY := make([]float64, 0, len(fig.X))
			for r := checkEvery; r <= rMax; r += checkEvery {
				aaY = append(aaY, float64(aa.Sigma))
				eaY = append(eaY, float64(ea.Trace[r-1]))
				aeaY = append(aeaY, float64(aea.Trace[r-1]))
			}
			fig.Series = append(fig.Series,
				Series{Name: fmt.Sprintf("AA k=%d", k), Y: aaY},
				Series{Name: fmt.Sprintf("EA k=%d", k), Y: eaY},
				Series{Name: fmt.Sprintf("AEA k=%d", k), Y: aeaY},
			)
		}
		figs = append(figs, fig)
	}
	return figs
}

// dynSnapshots carries a mobility trace's topology series with distance
// tables and per-instance pair sets, so budget sweeps reuse them.
type dynSnapshots struct {
	graphs []*graph.Graph
	tables []*shortestpath.Table
	psets  []*pairs.Set
	thr    failprob.Threshold
}

func (c Config) dynSnapshotsAt(pt float64, nodes, m, T int, stream int64) dynSnapshots {
	cfg := mobility.DefaultConfig()
	cfg.Nodes = nodes
	cfg.Steps = T
	if c.Quick {
		cfg.Nodes = 24
		cfg.Groups = 4
	}
	tr, err := mobility.Generate(cfg, c.rng(stream))
	if err != nil {
		panic(fmt.Sprintf("experiments: mobility trace: %v", err))
	}
	fm := netbuild.FailureModel{Radius: mobilityRadius, FailureAtRadius: mobilityFailAtR}
	thr := failprob.NewThreshold(pt)
	out := dynSnapshots{thr: thr}
	prng := c.rng(stream + 1)
	for t := 0; t < tr.T(); t++ {
		g, err := tr.Snapshot(t, fm)
		if err != nil {
			panic(fmt.Sprintf("experiments: snapshot %d: %v", t, err))
		}
		table := shortestpath.NewTable(g, 0)
		ps, err := pairs.SampleViolating(table, thr.D, m, prng)
		if err != nil {
			panic(fmt.Sprintf("experiments: dynamic pairs t=%d: %v", t, err))
		}
		out.graphs = append(out.graphs, g)
		out.tables = append(out.tables, table)
		out.psets = append(out.psets, ps)
	}
	return out
}

// dynProblem builds the dynamic MSC problem over the first T instances of
// ds with budget k.
func (c Config) dynProblem(ds dynSnapshots, k, T int) *dynamic.Problem {
	insts := make([]*core.Instance, T)
	for t := 0; t < T; t++ {
		inst, err := core.NewInstance(ds.graphs[t], ds.psets[t], ds.thr, k, c.options(ds.tables[t]))
		if err != nil {
			panic(fmt.Sprintf("experiments: dynamic instance t=%d: %v", t, err))
		}
		insts[t] = inst
	}
	prob, err := dynamic.NewProblem(insts)
	if err != nil {
		panic(fmt.Sprintf("experiments: dynamic problem: %v", err))
	}
	return prob
}

// Fig5a regenerates Fig. 5(a): dynamic networks, total maintained
// connections across k for several p_t (n=50, m=30, T=30).
func (c Config) Fig5a() *Figure {
	ks := []int{4, 8, 12, 16, 20}
	pts := []float64{0.10, 0.12}
	nodes, m, T, iters := 50, 30, 30, 500
	if c.Quick {
		ks = []int{2, 4}
		pts = pts[:1]
		nodes, m, T, iters = 24, 6, 4, 40
	}
	fig := &Figure{
		ID:     "Fig 5(a)",
		Title:  fmt.Sprintf("Dynamic networks: maintained connections vs k (n=%d, m=%d, T=%d)", nodes, m, T),
		XLabel: "k",
		YLabel: "total maintained social connections (Σ_i σ_i)",
	}
	for _, k := range ks {
		fig.X = append(fig.X, float64(k))
	}
	for pi, pt := range pts {
		snaps := c.dynSnapshotsAt(pt, nodes, m, T, 700+int64(pi))
		aaY := make([]float64, 0, len(ks))
		eaY := make([]float64, 0, len(ks))
		aeaY := make([]float64, 0, len(ks))
		for _, k := range ks {
			prob := c.dynProblem(snaps, k, T)
			aaY = append(aaY, float64(core.Sandwich(prob, c.run()).Best.Sigma))
			ea := core.EA(prob, core.EAOptions{Iterations: iters, RunOptions: c.run()}, c.rng(750+int64(pi)))
			eaY = append(eaY, float64(ea.Best.Sigma))
			aea := core.AEA(prob, core.AEAOptions{Iterations: iters, PopSize: 10, Delta: 0.05, RunOptions: c.run()},
				c.rng(760+int64(pi)))
			aeaY = append(aeaY, float64(aea.Best.Sigma))
		}
		fig.Series = append(fig.Series,
			Series{Name: fmt.Sprintf("AA p_t=%.2f", pt), Y: aaY},
			Series{Name: fmt.Sprintf("EA p_t=%.2f", pt), Y: eaY},
			Series{Name: fmt.Sprintf("AEA p_t=%.2f", pt), Y: aeaY},
		)
	}
	return fig
}

// Fig5b regenerates Fig. 5(b): dynamic networks, total maintained
// connections as a function of the number of time instances T, for several
// budgets (p_t=0.12).
func (c Config) Fig5b() *Figure {
	ks := []int{3, 5, 10}
	ts := []int{5, 10, 15, 20, 25, 30}
	nodes, m, pt := 50, 30, 0.12
	if c.Quick {
		ks = []int{2, 4}
		ts = []int{2, 4}
		nodes, m = 24, 6
	}
	maxT := ts[len(ts)-1]
	fig := &Figure{
		ID:     "Fig 5(b)",
		Title:  fmt.Sprintf("Dynamic networks: maintained connections vs T (n=%d, m=%d, p_t=%.2f)", nodes, m, pt),
		XLabel: "T",
		YLabel: "total maintained social connections (Σ_i σ_i)",
	}
	for _, t := range ts {
		fig.X = append(fig.X, float64(t))
	}
	snaps := c.dynSnapshotsAt(pt, nodes, m, maxT, 800)
	for _, k := range ks {
		y := make([]float64, 0, len(ts))
		for _, T := range ts {
			prob := c.dynProblem(snaps, k, T)
			y = append(y, float64(core.Sandwich(prob, c.run()).Best.Sigma))
		}
		fig.Series = append(fig.Series, Series{Name: fmt.Sprintf("AA k=%d", k), Y: y})
	}
	return fig
}
