package experiments

import (
	"fmt"

	"msc/internal/core"
	"msc/internal/dynamic"
	"msc/internal/failprob"
	"msc/internal/graph"
	"msc/internal/mobility"
	"msc/internal/netbuild"
	"msc/internal/pairs"
	"msc/internal/predict"
	"msc/internal/shortestpath"
)

// Ext3 probes the assumption §VI leans on: that the dynamic topology
// series is "given by prediction techniques" whose accuracy is out of
// scope. We make the assumption concrete — observe a prefix of a tactical
// trace, dead-reckon the rest (internal/predict), compute the placement on
// the PREDICTED topologies, then grade it against what ACTUALLY happened —
// and compare three planners across the budget sweep:
//
//   - oracle:    placement computed on the actual future (upper bound);
//   - predicted: placement computed on the dead-reckoned future;
//   - frozen:    placement computed assuming nobody moves after the
//     observation window (the strawman predictor);
//   - random:    budget-matched random placement.
//
// The gap between predicted and oracle is the price of prediction error.
func (c Config) Ext3() *Figure {
	nodes, m := 50, 20
	observed, horizon := 10, 20
	ks := []int{2, 4, 6, 8, 10}
	pt := 0.12
	trials := 300
	if c.Quick {
		nodes, m = 24, 6
		observed, horizon = 3, 3
		ks = []int{2, 4}
		trials = 30
	}
	cfg := mobility.DefaultConfig()
	cfg.Nodes = nodes
	cfg.Steps = observed + horizon
	if c.Quick {
		cfg.Groups = 4
	}
	tr, err := mobility.Generate(cfg, c.rng(970))
	if err != nil {
		panic(fmt.Sprintf("experiments: ext3 trace: %v", err))
	}
	fm := netbuild.FailureModel{Radius: mobilityRadius, FailureAtRadius: mobilityFailAtR}
	thr := failprob.NewThreshold(pt)

	// Persistent command pairs sampled on the last observed snapshot.
	gObs, err := tr.Snapshot(observed-1, fm)
	if err != nil {
		panic(fmt.Sprintf("experiments: ext3 snapshot: %v", err))
	}
	ps, err := pairs.SampleViolating(shortestpath.NewTable(gObs, 0), thr.D, m, c.rng(971))
	if err != nil {
		panic(fmt.Sprintf("experiments: ext3 pairs: %v", err))
	}

	// The actual future topologies (ground truth for grading).
	actualGraphs := snapshotRange(tr, observed, horizon, fm)

	// The predicted future.
	predTrace, err := predict.DeadReckon(tr, observed, horizon)
	if err != nil {
		panic(fmt.Sprintf("experiments: ext3 predict: %v", err))
	}
	predGraphs := snapshotRange(predTrace, 0, horizon, fm)

	// The frozen strawman: the last observed topology repeated.
	frozenGraphs := make([]*gsnap, horizon)
	frozenTable := shortestpath.NewTable(gObs, 0)
	for h := range frozenGraphs {
		frozenGraphs[h] = &gsnap{g: gObs, table: frozenTable}
	}

	fig := &Figure{
		ID:     "Ext 3",
		Title:  fmt.Sprintf("Placement under predicted topologies (n=%d, m=%d, observe %d, plan %d ahead)", nodes, m, observed, horizon),
		XLabel: "k",
		YLabel: "actual total maintained connections (Σ_i σ_i)",
	}
	for _, k := range ks {
		fig.X = append(fig.X, float64(k))
	}
	oracleY := make([]float64, 0, len(ks))
	predY := make([]float64, 0, len(ks))
	frozenY := make([]float64, 0, len(ks))
	rndY := make([]float64, 0, len(ks))
	for _, k := range ks {
		actualProb := c.buildDyn(actualGraphs, ps, thr, k)
		oracle := core.Sandwich(actualProb, c.run()).Best
		oracleY = append(oracleY, float64(oracle.Sigma))

		predProb := c.buildDyn(predGraphs, ps, thr, k)
		predicted := core.Sandwich(predProb, c.run()).Best
		predY = append(predY, float64(actualProb.Sigma(predicted.Selection)))

		frozenProb := c.buildDyn(frozenGraphs, ps, thr, k)
		frozen := core.Sandwich(frozenProb, c.run()).Best
		frozenY = append(frozenY, float64(actualProb.Sigma(frozen.Selection)))

		rnd := mustRandom(actualProb, trials, c.rng(975+int64(k)), c.run())
		rndY = append(rndY, float64(rnd.Sigma))
	}
	fig.Series = append(fig.Series,
		Series{Name: "oracle (actual future)", Y: oracleY},
		Series{Name: "dead-reckoned forecast", Y: predY},
		Series{Name: "frozen topology", Y: frozenY},
		Series{Name: "random", Y: rndY},
	)
	return fig
}

// gsnap pairs a snapshot graph with its distance table.
type gsnap struct {
	g     *graph.Graph
	table *shortestpath.Table
}

func snapshotRange(tr *mobility.Trace, from, count int, fm netbuild.FailureModel) []*gsnap {
	out := make([]*gsnap, count)
	for h := 0; h < count; h++ {
		g, err := tr.Snapshot(from+h, fm)
		if err != nil {
			panic(fmt.Sprintf("experiments: snapshot %d: %v", from+h, err))
		}
		out[h] = &gsnap{g: g, table: shortestpath.NewTable(g, 0)}
	}
	return out
}

func (c Config) buildDyn(snaps []*gsnap, ps *pairs.Set, thr failprob.Threshold, k int) *dynamic.Problem {
	insts := make([]*core.Instance, len(snaps))
	for i, s := range snaps {
		inst, err := core.NewInstance(s.g, ps, thr, k, c.options(s.table))
		if err != nil {
			panic(fmt.Sprintf("experiments: ext3 instance %d: %v", i, err))
		}
		insts[i] = inst
	}
	prob, err := dynamic.NewProblem(insts)
	if err != nil {
		panic(fmt.Sprintf("experiments: ext3 problem: %v", err))
	}
	return prob
}
