package main

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"msc"
	"msc/internal/montecarlo"
)

// smallInstance builds a 60-node RGG instance; the same seed and options
// always give the same instance.
func smallInstance(t *testing.T, seed int64, opts msc.InstanceOptions) *msc.Instance {
	t.Helper()
	const n = 60
	rng := msc.NewRand(seed)
	g, err := msc.GenerateRGG(msc.RGGConfig{N: n, Radius: 1.6 * math.Sqrt(math.Log(n)/(math.Pi*n)),
		FailureAtRadius: 0.08, RequireConnected: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	thr := msc.NewThreshold(0.11)
	ps, err := msc.SampleViolatingPairs(msc.NewDistanceTable(g), thr, 12, rng)
	if err != nil {
		t.Fatal(err)
	}
	opts.AllowTrivial = true
	inst, err := msc.NewInstance(g, ps, thr, 4, &opts)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestTracedProblemFidelity checks that the traced wrapper changes
// nothing the solvers compute: byte-identical placements and the same
// backend-invariant work counters as the bare instance, for every solver
// the workloads use plus a budgeted run, serial and sharded.
func TestTracedProblemFidelity(t *testing.T) {
	type solver struct {
		name  string
		opts  msc.InstanceOptions
		solve func(p msc.Problem, workers int) any
	}
	solvers := []solver{
		{"sandwich", msc.InstanceOptions{}, func(p msc.Problem, w int) any { return msc.Sandwich(p, msc.Parallelism(w)) }},
		{"greedy", msc.InstanceOptions{}, func(p msc.Problem, w int) any { return msc.GreedySigma(p, msc.Parallelism(w)) }},
		{"greedy-survive", msc.InstanceOptions{Survive: msc.SurviveShortcut},
			func(p msc.Problem, w int) any { return msc.GreedySigma(p, msc.Parallelism(w)) }},
		{"aea", msc.InstanceOptions{}, func(p msc.Problem, w int) any {
			o := msc.DefaultAEAOptions()
			o.Iterations, o.Parallelism = 40, w
			return msc.AEA(p, o, msc.NewRand(7))
		}},
		{"greedy-budget", msc.InstanceOptions{Budget: 3, CostModel: msc.CostLength},
			func(p msc.Problem, w int) any { return msc.GreedySigma(p, msc.Parallelism(w)) }},
	}
	for _, s := range solvers {
		for _, workers := range []int{1, 2} {
			for seed := int64(1); seed <= 8; seed++ {
				t.Run(fmt.Sprintf("%s/par%d/seed%d", s.name, workers, seed), func(t *testing.T) {
					run := func(p msc.Problem) ([]byte, msc.CounterSnapshot) {
						before := msc.CountersSnapshot()
						out, err := json.Marshal(s.solve(p, workers))
						if err != nil {
							t.Fatal(err)
						}
						return out, msc.CountersSnapshot().Sub(before).BackendInvariant()
					}
					bare, bareCount := run(smallInstance(t, seed, s.opts))
					tr := newTracer(s.name)
					traced, tracedCount := run(&tracedProblem{Instance: smallInstance(t, seed, s.opts), tr: tr})
					if string(bare) != string(traced) {
						t.Fatalf("placements differ:\nbare   %s\ntraced %s", bare, traced)
					}
					if bareCount != tracedCount {
						t.Fatalf("counters differ:\nbare   %+v\ntraced %+v", bareCount, tracedCount)
					}
					checkSpans(t, tr.spans)
				})
			}
		}
	}
}

// TestRecountsMatchReferences ties the benchmark's σ and σ⁻ recounts to
// the repository's references: the instance's own σ oracle and
// montecarlo.Inject's minimum shortcut knockout.
func TestRecountsMatchReferences(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		inst := smallInstance(t, seed, msc.InstanceOptions{Survive: msc.SurviveShortcut})
		pl := msc.GreedySigma(inst)
		d := inst.Threshold().D
		if got := augmentedRecount(inst.Graph(), inst.Pairs(), pl.Edges, d); got != pl.Sigma {
			t.Errorf("seed %d: recounted σ %d, solver σ %d", seed, got, pl.Sigma)
		}
		rep, err := montecarlo.Inject(inst.Graph(), inst.Pairs(), inst.Threshold(), pl.Edges, montecarlo.InjectOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := knockoutMin(inst.Graph(), inst.Pairs(), pl.Edges, d)
		if got != rep.MinSigma || got != inst.SigmaWorst(pl.Selection) {
			t.Errorf("seed %d: knockout minimum %d, Inject %d, σ⁻ %d", seed, got, rep.MinSigma, inst.SigmaWorst(pl.Selection))
		}
	}
}

// checkSpans checks that the spans are closed, nest properly and include
// the search layer every solver uses.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	layers := map[string]bool{}
	for i, s := range spans {
		if s.ID != i || s.EndNS < s.StartNS {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
		if p := s.Parent; p >= 0 && (p >= i || spans[p].StartNS > s.StartNS || spans[p].EndNS < s.EndNS) {
			t.Fatalf("span %d not inside its parent: %+v in %+v", i, s, spans[p])
		}
		layers[s.layer()] = true
	}
	for _, l := range []string{"search", "scan", "commit", "sigma"} {
		if !layers[l] {
			t.Errorf("no %s span among %d spans", l, len(spans))
		}
	}
}

// TestTracedSearchMethodSets keeps the traced searches in step with the
// instance's searches: each wrapper has exactly the exported methods of
// the search it wraps, so an optional interface added to the searches in
// core fails here instead of silently changing the traced path.
func TestTracedSearchMethodSets(t *testing.T) {
	for _, mode := range []msc.Survivability{msc.SurviveNone, msc.SurviveShortcut} {
		inst := smallInstance(t, 1, msc.InstanceOptions{Survive: mode})
		inner := inst.NewSearch(nil)
		wrapped := newTracer("methods").wrapSearch(inner)
		if got, want := methodNames(wrapped), methodNames(inner); !reflect.DeepEqual(got, want) {
			t.Errorf("survive=%s: traced search methods %v, inner search methods %v", mode, got, want)
		}
	}
}

func methodNames(v any) []string {
	typ := reflect.TypeOf(v)
	var names []string
	for i := 0; i < typ.NumMethod(); i++ {
		names = append(names, typ.Method(i).Name)
	}
	sort.Strings(names)
	return names
}
