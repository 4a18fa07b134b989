package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"msc/internal/failprob"
	"msc/internal/graph"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
	"msc/internal/submodular"
	"msc/internal/telemetry"
	"msc/internal/xrand"
)

// surviveInstance builds a random survivable instance on a connected
// random graph.
func surviveInstance(t *testing.T, n, m, k int, dt float64, mode Survivability, rng *xrand.Rand) *Instance {
	t.Helper()
	g := randomConnectedGraph(t, n, 2*n, rng)
	table := shortestpath.NewTable(g, 0)
	ps, err := pairs.SampleViolating(table, dt, m, rng)
	if err != nil {
		t.Skipf("could not sample %d violating pairs: %v", m, err)
	}
	inst, err := NewInstance(g, ps, failprob.Threshold{P: 1 - math.Exp(-dt), D: dt}, k,
		&Options{AllowTrivial: true, Table: table, Survive: mode})
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	return inst
}

// surviveInstanceRetry is surviveInstance for exhaustive seed sweeps: when
// a seed's graph cannot supply m violating pairs it deterministically
// perturbs the sub-seed instead of skipping, so every sweep seed yields an
// instance.
func surviveInstanceRetry(t *testing.T, n, m, k int, dt float64, mode Survivability, seed int64) *Instance {
	t.Helper()
	for off := int64(0); off < 20; off++ {
		rng := xrand.New(seed*1000 + off)
		g := randomConnectedGraph(t, n, 2*n, rng)
		table := shortestpath.NewTable(g, 0)
		ps, err := pairs.SampleViolating(table, dt, m, rng)
		if err != nil {
			continue
		}
		inst, err := NewInstance(g, ps, failprob.Threshold{P: 1 - math.Exp(-dt), D: dt}, k,
			&Options{AllowTrivial: true, Table: table, Survive: mode})
		if err != nil {
			t.Fatalf("NewInstance: %v", err)
		}
		return inst
	}
	t.Fatalf("seed %d: no graph yielded %d violating pairs", seed, m)
	return nil
}

// naiveSigmaWorst recomputes σ⁻ with fresh Dijkstras per scenario: each
// shortcut scenario drops one selected shortcut, each node scenario (node
// mode) rebuilds G−v, drops the shortcuts incident to v, and counts pairs
// incident to v as vacuously maintained.
func naiveSigmaWorst(t *testing.T, inst *Instance, sel []int) int {
	t.Helper()
	worst, have := 0, false
	fold := func(s int) {
		if !have || s < worst {
			worst, have = s, true
		}
	}
	for j := range sel {
		rest := make([]int, 0, len(sel)-1)
		rest = append(rest, sel[:j]...)
		rest = append(rest, sel[j+1:]...)
		fold(naiveSigma(inst, rest))
	}
	if inst.Survive() == SurviveNode {
		for v := 0; v < inst.N(); v++ {
			fold(naiveNodeScenario(inst, sel, v))
		}
	}
	if !have {
		return naiveSigma(inst, nil)
	}
	return worst
}

// naiveNodeScenario evaluates σ for the failure of node v from first
// principles, independent of the overlay machinery.
func naiveNodeScenario(inst *Instance, sel []int, v int) int {
	n := inst.N()
	b := graph.NewBuilder(n)
	for _, e := range inst.Graph().Edges() {
		if int(e.U) != v && int(e.V) != v {
			b.AddEdge(e.U, e.V, e.Length)
		}
	}
	gv := b.MustBuild()
	var edges []graph.Edge
	for _, c := range sel {
		e := inst.CandidateEdge(c)
		if int(e.U) != v && int(e.V) != v {
			edges = append(edges, e)
		}
	}
	total := 0
	for i, p := range inst.Pairs().Pairs() {
		if int(p.U) == v || int(p.W) == v {
			total += inst.PairWeight(i) // vacuous: the demand left with v
			continue
		}
		dist := shortestpath.AugmentedDistances(gv, edges, p.U)
		if dist[p.W] <= inst.Threshold().D {
			total += inst.PairWeight(i)
		}
	}
	return total
}

// TestSigmaWorstMatchesNaive locks Instance.SigmaWorst — the from-scratch
// reference the incremental survivable search is compared against — to a
// first-principles recompute, in both failure modes, on random selections
// including duplicates.
func TestSigmaWorstMatchesNaive(t *testing.T) {
	for _, mode := range []Survivability{SurviveShortcut, SurviveNode} {
		rng := xrand.New(977)
		for trial := 0; trial < 6; trial++ {
			inst := surviveInstance(t, 14, 6, 3, 0.8, mode, rng)
			for rep := 0; rep < 6; rep++ {
				sel := rng.SampleDistinct(inst.NumCandidates(), rng.Intn(4))
				if len(sel) > 0 && rng.Bernoulli(0.3) {
					sel = append(sel, sel[0]) // duplicates are legal survivable moves
				}
				got := inst.SigmaWorst(sel)
				want := naiveSigmaWorst(t, inst, sel)
				if got != want {
					t.Fatalf("mode=%s trial=%d: SigmaWorst(%v) = %d, want %d", mode, trial, sel, got, want)
				}
			}
		}
	}
}

// TestSurviveSearchMatchesInstance checks the memoized survivable search
// against from-scratch evaluation after every mutation: Sigma() must equal
// the scalarized objective, and GainAdd must be the exact L
// difference — including for candidates already selected.
func TestSurviveSearchMatchesInstance(t *testing.T) {
	for _, mode := range []Survivability{SurviveShortcut, SurviveNode} {
		rng := xrand.New(1231)
		inst := surviveInstance(t, 12, 5, 4, 0.8, mode, rng)
		s := inst.NewSearch(nil)
		if _, ok := s.(*composite); !ok {
			t.Fatalf("mode=%s: NewSearch returned %T, want *composite", mode, s)
		}
		check := func(stage string) {
			sel := s.Selection()
			if got, want := s.Sigma(), objective(inst, sel, 1); got != want {
				t.Fatalf("mode=%s %s: search L %d != instance L %d (sel %v)", mode, stage, got, want, sel)
			}
			for c := 0; c < inst.NumCandidates(); c += 3 {
				want := objective(inst, append(append([]int(nil), sel...), c), 1) - objective(inst, sel, 1)
				if got := s.GainAdd(c); got != want {
					t.Fatalf("mode=%s %s: GainAdd(%d) = %d, want %d (sel %v)", mode, stage, c, got, want, sel)
				}
			}
			gains := s.GainsAdd()
			for c := range gains {
				want := objective(inst, append(append([]int(nil), sel...), c), 1) - objective(inst, sel, 1)
				if gains[c] != want {
					t.Fatalf("mode=%s %s: GainsAdd[%d] = %d, want %d (sel %v)", mode, stage, c, gains[c], want, sel)
				}
			}
		}
		check("empty")
		s.Add(7)
		check("after add 7")
		s.Add(7) // duplicate commit
		check("after duplicate add")
		s.Add(2)
		check("after add 2")
		for pos := range s.Selection() {
			rest := s.Selection()
			rest = append(rest[:pos], rest[pos+1:]...)
			if got, want := s.SigmaDrop(pos), objective(inst, rest, 1); got != want {
				t.Fatalf("mode=%s: SigmaDrop(%d) = %d, want %d", mode, pos, got, want)
			}
		}
		s.RemoveAt(1)
		check("after remove")
	}
}

// referenceSurviveGains is the survivable fold before the bound skip and
// the fused kernel, kept as the exactness reference: a fresh, cold-scanned
// search for the free selection and for every failure scenario of sel,
// folded candidate by candidate — every scenario's σ + gain, node
// scenarios pinned at their value on the candidates incident to the
// failed node — into L-gains.
func referenceSurviveGains(inst *Instance, sel []int) []int {
	free := inst.newInstSearch(sel)
	f := free.Sigma()
	freeGains := free.GainsAdd()
	wa := make([]int, inst.NumCandidates())
	for c := range wa {
		wa[c] = f
	}
	worst, have := 0, false
	fold := func(sc *instSearch, base, node int) {
		if !have || base < worst {
			worst, have = base, true
		}
		for c, g := range sc.GainsAdd() {
			v := base + g
			if e := inst.CandidateEdge(c); int(e.U) == node || int(e.V) == node {
				v = base // the shortcut dies with the node
			}
			wa[c] = min(wa[c], v)
		}
	}
	for j := range sel {
		rest := append(append([]int(nil), sel[:j]...), sel[j+1:]...)
		sc := inst.newInstSearch(rest)
		fold(sc, sc.Sigma(), -1)
	}
	if inst.Survive() == SurviveNode {
		insts, vac := inst.nodeScenarios()
		for v, ni := range insts {
			var surv []int
			for _, c := range sel {
				if e := inst.CandidateEdge(c); int(e.U) != v && int(e.V) != v {
					surv = append(surv, c)
				}
			}
			sc := ni.newInstSearch(surv)
			fold(sc, vac[v]+sc.Sigma(), v)
		}
	}
	if !have {
		worst = f
	}
	scale := inst.totalWeight + 1
	out := make([]int, len(wa))
	for c := range out {
		out[c] = wa[c]*scale + f + freeGains[c] - (worst*scale + f)
	}
	return out
}

// TestSurviveGainsBoundExact holds the survivable search's GainsAdd and
// BestAdd — concurrent refresh, bound skip, fused fold — to the reference
// fold over cold-scanned scenarios, on 24 seeds × both failure modes ×
// workers {1, 2, 8}, along an operation sequence with random commits, two
// duplicate commits (which leave F = σ⁻, so every scenario drops out) and
// a RemoveAt. At one worker every gain is also checked against the
// brute-force objective difference. The backend-invariant work of
// each step — the construction or mutation and its round — must not
// depend on the worker count, and the bound must skip
// at least one scenario scan somewhere, seen as fewer candidate
// evaluations than the reference's scan of every scenario.
func TestSurviveGainsBoundExact(t *testing.T) {
	skipped := map[Survivability]bool{}
	for _, mode := range []Survivability{SurviveShortcut, SurviveNode} {
		for _, size := range []struct {
			n     int
			seeds int64
		}{{12, 24}, {64, 3}} {
			for seed := int64(1); seed <= size.seeds; seed++ {
				testSurviveGainsBound(t, surviveInstanceRetry(t, size.n, 5, 3, 0.8, mode, seed), seed, skipped)
			}
		}
	}
	for _, mode := range []Survivability{SurviveShortcut, SurviveNode} {
		if !skipped[mode] {
			t.Errorf("mode=%s: the bound never skipped a scenario scan", mode)
		}
	}
}

// testSurviveGainsBound runs TestSurviveGainsBoundExact's operation
// sequence on inst at each worker count, recording in skipped whether the
// bound skipped a scan. Brute force runs at one worker on instances of at
// most 12 nodes.
func testSurviveGainsBound(t *testing.T, inst *Instance, seed int64, skipped map[Survivability]bool) {
	t.Helper()
	mode := inst.Survive()
	var work []telemetry.CounterSnapshot // per step, at the first worker count
	for _, workers := range []int{1, 2, 8} {
		rng := xrand.New(seed)
		tg := telemetry.Global()
		opStart := tg.Snapshot()
		s := inst.NewSearch(nil).(*composite)
		s.SetWorkers(workers)
		step := 0
		check := func(op string) {
			t.Helper()
			sel := s.Selection()
			before := tg.CandidateEvals.Load()
			got := append([]int(nil), s.GainsAdd()...)
			gotEvals := tg.CandidateEvals.Load() - before
			cand, gain := s.BestAdd()
			stepWork := tg.Snapshot().Sub(opStart).BackendInvariant()
			before = tg.CandidateEvals.Load()
			want := referenceSurviveGains(inst, sel)
			refEvals := tg.CandidateEvals.Load() - before
			where := func() string {
				return fmt.Sprintf("mode=%s seed=%d workers=%d after %s (sel %v)", mode, seed, workers, op, sel)
			}
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("%s: GainsAdd[%d] = %d, reference %d", where(), c, got[c], want[c])
				}
			}
			if wc, wg := argmax(want); cand != wc || gain != wg {
				t.Fatalf("%s: BestAdd (%d, %d), reference argmax (%d, %d)", where(), cand, gain, wc, wg)
			}
			if workers == 1 {
				work = append(work, stepWork)
			} else if stepWork != work[step] {
				t.Fatalf("%s: step work depends on the worker count:\n got        %+v\n one worker %+v", where(), stepWork, work[step])
			}
			if workers == 1 && inst.N() <= 12 {
				cur := objective(inst, sel, 1)
				for c := range got {
					if bf := objective(inst, append(slices.Clone(sel), c), 1) - cur; got[c] != bf {
						t.Fatalf("%s: GainsAdd[%d] = %d, brute force %d", where(), c, got[c], bf)
					}
				}
			}
			if gotEvals < refEvals {
				skipped[mode] = true
			}
			step++
		}
		check("construction")
		for _, op := range []string{"add", "add", "duplicate", "add", "remove", "duplicate"} {
			sel := s.Selection()
			opStart = tg.Snapshot()
			switch op {
			case "add":
				s.Add(rng.Intn(inst.NumCandidates()))
			case "duplicate":
				s.Add(sel[rng.Intn(len(sel))])
			case "remove":
				s.RemoveAt(rng.Intn(len(sel)))
			}
			check(op)
		}
	}
}

// TestSurvivableGreedyMatchesExhaustive is the brute-force differential
// suite of the tentpole's acceptance criteria: on 24 seeds and both
// failure modes, the survivable GreedySigma (memoized scenario searches,
// warm gains, serial and parallel) must pick exactly the selection an
// exhaustive per-round worst-case recompute picks, and the serial and
// parallel runs must be byte-identical with identical deterministic work
// counters.
func TestSurvivableGreedyMatchesExhaustive(t *testing.T) {
	for _, mode := range []Survivability{SurviveShortcut, SurviveNode} {
		for seed := int64(1); seed <= 24; seed++ {
			inst := surviveInstanceRetry(t, 12, 5, 3, 0.8, mode, seed)

			// Exhaustive reference: every round evaluates L(S ∪ {c}) from
			// scratch for every candidate (duplicates included), ties toward
			// the lowest index, stopping at zero gain or budget.
			var want []int
			for len(want) < inst.K() {
				cur := objective(inst, want, 1)
				bestC, bestGain := -1, 0
				scratch := append([]int(nil), want...)
				for c := 0; c < inst.NumCandidates(); c++ {
					if g := objective(inst, append(scratch, c), 1) - cur; g > bestGain {
						bestC, bestGain = c, g
					}
				}
				if bestC < 0 {
					break
				}
				want = append(want, bestC)
			}

			tg := telemetry.Global()
			before := tg.Snapshot()
			serial := GreedySigma(inst, Parallelism(1))
			mid := tg.Snapshot()
			parallel := GreedySigma(inst, Parallelism(4))
			after := tg.Snapshot()

			if !equalInts(serial.Selection, want) {
				t.Fatalf("mode=%s seed=%d: survivable greedy picked %v, exhaustive reference %v",
					mode, seed, serial.Selection, want)
			}
			if !equalInts(parallel.Selection, serial.Selection) {
				t.Fatalf("mode=%s seed=%d: parallel %v != serial %v", mode, seed, parallel.Selection, serial.Selection)
			}
			sw, pw := mid.Sub(before).BackendInvariant(), after.Sub(mid).BackendInvariant()
			if sw != pw {
				t.Fatalf("mode=%s seed=%d: deterministic counters diverge across worker counts:\nserial   %+v\nparallel %+v",
					mode, seed, sw, pw)
			}
			if sw.FailureScenariosEvaled == 0 {
				t.Fatalf("mode=%s seed=%d: survivable run evaluated no failure scenarios", mode, seed)
			}
			if got := inst.SigmaWorst(serial.Selection); got < inst.BaseSigma() && mode == SurviveShortcut {
				t.Fatalf("mode=%s seed=%d: shortcut-mode σ⁻ %d fell below σ(∅) %d", mode, seed, got, inst.BaseSigma())
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSurvivableLocalSearchNeverWorse drives LocalSearch over a survivable
// problem: the refinement speaks the lexicographic objective, so (σ⁻, σ)
// of the result must be ≥ the greedy input's, and the final placement must
// still verify against the from-scratch evaluator.
func TestSurvivableLocalSearchNeverWorse(t *testing.T) {
	for _, mode := range []Survivability{SurviveShortcut, SurviveNode} {
		rng := xrand.New(4242)
		inst := surviveInstance(t, 12, 5, 3, 0.8, mode, rng)
		seed := GreedySigma(inst)
		before := objective(inst, seed.Selection, 1)
		refined := LocalSearch(inst, seed.Selection, LocalSearchOptions{MaxIters: 5})
		after := objective(inst, refined.Selection, 1)
		if after < before {
			t.Fatalf("mode=%s: local search worsened L: %d -> %d", mode, before, after)
		}
	}
}

// TestSurvivableSandwichPicksLexBest locks the survivable sandwich arm
// pick: the winner must be lexicographically (σ⁻, σ)-maximal among the
// three arms.
func TestSurvivableSandwichPicksLexBest(t *testing.T) {
	rng := xrand.New(808)
	inst := surviveInstance(t, 12, 5, 3, 0.8, SurviveShortcut, rng)
	res := Sandwich(inst)
	bestL := objective(inst, res.Best.Selection, 1)
	for _, arm := range []Placement{res.FMu, res.FSigma, res.FNu} {
		if l := objective(inst, arm.Selection, 1); l > bestL {
			t.Fatalf("sandwich winner L=%d beaten by arm L=%d", bestL, l)
		}
	}
}

// TestSurvivableSandwichTraceIsFree: attaching a sink to a survivable
// Sandwich adds no solver work — the closing SandwichEvent's σ⁻ comes from
// the arm pick's value, not a second evaluation — so the counters match
// an untraced run except for the μ/ν reads of the traced greedy rounds
// themselves, one each per round.
func TestSurvivableSandwichTraceIsFree(t *testing.T) {
	for _, mode := range []Survivability{SurviveShortcut, SurviveNode} {
		run := func(sink *memSink) (SandwichResult, telemetry.CounterSnapshot, *Instance) {
			// A fresh instance per run keeps lazily built caches from
			// charging their work to the first run only.
			inst := surviveInstance(t, 16, 7, 3, 0.8, mode, xrand.New(811))
			opts := []Option{Parallelism(1)}
			if sink != nil {
				opts = append(opts, WithSink(sink))
			}
			before := telemetry.Global().Snapshot()
			res := Sandwich(inst, opts...)
			return res, telemetry.Global().Snapshot().Sub(before), inst
		}
		plain, plainWork, _ := run(nil)
		sink := &memSink{}
		traced, tracedWork, inst := run(sink)
		if !slices.Equal(plain.Best.Selection, traced.Best.Selection) {
			t.Fatalf("%s: sink changed the placement", mode)
		}
		rounds := int64(len(sink.rounds("greedy_sigma")))
		tracedWork.MuEvals -= rounds
		tracedWork.NuEvals -= rounds
		if plainWork != tracedWork {
			t.Errorf("%s: tracing changed the work counters\n plain:  %+v\n traced: %+v", mode, plainWork, tracedWork)
		}
		var events []telemetry.SandwichEvent
		for _, e := range sink.events {
			if ev, ok := e.(telemetry.SandwichEvent); ok {
				events = append(events, ev)
			}
		}
		if len(events) != 1 || events[0].SigmaWorst == nil {
			t.Fatalf("%s: want one SandwichEvent carrying σ⁻, got %+v", mode, events)
		}
		if got, want := *events[0].SigmaWorst, inst.SigmaWorst(traced.Best.Selection); got != want {
			t.Errorf("%s: SandwichEvent σ⁻ = %d, SigmaWorst of the winner = %d", mode, got, want)
		}
	}
}

// TestSigmaWorstShortcutMonotone exercises the monotonicity claim DESIGN.md
// §11 makes for shortcut-mode σ⁻ (dropping any single shortcut from S∪{c}
// leaves at least the coverage some scenario of S had), via the submodular
// package's property checker over a small candidate sub-universe.
func TestSigmaWorstShortcutMonotone(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := xrand.New(seed)
		inst := surviveInstance(t, 10, 4, 3, 0.8, SurviveShortcut, rng)
		sub := subUniverse(inst, 6)
		f := func(sel []int) float64 {
			mapped := make([]int, len(sel))
			for i, e := range sel {
				mapped[i] = sub[e]
			}
			return float64(inst.SigmaWorst(mapped))
		}
		if !submodular.IsMonotone(len(sub), f) {
			t.Fatalf("seed=%d: shortcut-mode σ⁻ not monotone on sub-universe %v", seed, sub)
		}
	}
}

// TestSigmaWorstNotSubmodular pins the caveat that σ⁻ — like σ itself —
// is not submodular: the property checker must find a witness within the
// (deterministic) seed budget. This is what justifies verifying the
// survivable greedy differentially instead of leaning on a (1−1/e) bound.
func TestSigmaWorstNotSubmodular(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := xrand.New(seed)
		inst := surviveInstance(t, 10, 4, 3, 0.8, SurviveShortcut, rng)
		sub := subUniverse(inst, 6)
		f := func(sel []int) float64 {
			mapped := make([]int, len(sel))
			for i, e := range sel {
				mapped[i] = sub[e]
			}
			return float64(inst.SigmaWorst(mapped))
		}
		if ok, witness := submodular.IsSubmodular(len(sub), f); !ok {
			t.Logf("seed=%d: non-submodularity witness %+v", seed, witness)
			return
		}
	}
	t.Fatal("no non-submodularity witness found for shortcut-mode σ⁻ within the seed budget")
}

// subUniverse picks count spread-out candidate indices.
func subUniverse(inst *Instance, count int) []int {
	sub := make([]int, count)
	for i := range sub {
		sub[i] = i * inst.NumCandidates() / count
	}
	return sub
}

// TestParseSurvivability covers the flag-value surface and the
// explicit-option → built-in resolution chain.
func TestParseSurvivability(t *testing.T) {
	for in, want := range map[string]Survivability{
		"": SurviveAuto, "auto": SurviveAuto, "none": SurviveNone,
		"shortcut": SurviveShortcut, "node": SurviveNode,
	} {
		got, err := ParseSurvivability(in)
		if err != nil || got != want {
			t.Fatalf("ParseSurvivability(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseSurvivability("bogus"); err == nil {
		t.Fatal("ParseSurvivability(bogus) did not error")
	}
	if got := resolveSurvivability(SurviveAuto); got != SurviveNone {
		t.Fatalf("resolve auto = %v, want none", got)
	}
	if got := resolveSurvivability(SurviveShortcut); got != SurviveShortcut {
		t.Fatalf("explicit shortcut must pass through, got %v", got)
	}
}

// TestCompositePositionMatchesFresh moves one composite — lex-min in both
// survivability modes, and sum over three time instances — through random
// selections of growing and shrinking length, as AEA's child reuse does,
// and requires Sigma, GainsAdd, BestAdd and SigmaDrops, before and after
// one more commit, to equal those of a composite built fresh at each
// selection.
func TestCompositePositionMatchesFresh(t *testing.T) {
	rng := xrand.New(4100)
	var insts []*Instance
	for i := 0; i < 3; i++ {
		insts = append(insts, testInstance(t, 12, 5, 3, 0.8, rng))
	}
	shortcut := surviveInstance(t, 12, 5, 3, 0.8, SurviveShortcut, rng)
	node := surviveInstance(t, 12, 5, 3, 0.8, SurviveNode, rng)
	for _, tc := range []struct {
		name      string
		newSearch func(sel []int) Search
	}{
		{"shortcut", shortcut.NewSearch},
		{"node", node.NewSearch},
		{"sum", func(sel []int) Search { return SumSearch(insts, sel, nil) }},
	} {
		s := tc.newSearch(nil)
		s.SetWorkers(2)
		numCand := insts[0].NumCandidates()
		for step := 0; step < 12; step++ {
			sel := rng.SampleDistinct(numCand, rng.Intn(5))
			s.(positioner).position(sel)
			fresh := tc.newSearch(sel)
			same := func(what string) {
				t.Helper()
				if got, want := len(s.(*composite).members), len(fresh.(*composite).members); got != want {
					t.Fatalf("%s step %d %s: %d members, fresh %d", tc.name, step, what, got, want)
				}
				if got, want := s.Sigma(), fresh.Sigma(); got != want {
					t.Fatalf("%s step %d %s: Sigma %d, fresh %d", tc.name, step, what, got, want)
				}
				if got, want := slices.Clone(s.GainsAdd()), fresh.GainsAdd(); !slices.Equal(got, want) {
					t.Fatalf("%s step %d %s: GainsAdd differs from a fresh search", tc.name, step, what)
				}
				gc, gg := s.BestAdd()
				if wc, wg := fresh.BestAdd(); gc != wc || gg != wg {
					t.Fatalf("%s step %d %s: BestAdd (%d, %d), fresh (%d, %d)", tc.name, step, what, gc, gg, wc, wg)
				}
				if got, want := slices.Clone(s.SigmaDrops()), fresh.SigmaDrops(); !slices.Equal(got, want) {
					t.Fatalf("%s step %d %s: SigmaDrops %v, fresh %v", tc.name, step, what, got, want)
				}
			}
			same("positioned")
			c := rng.Intn(numCand)
			s.Add(c)
			fresh.Add(c)
			same("after Add")
		}
	}
}
