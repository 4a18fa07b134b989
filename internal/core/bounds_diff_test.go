package core_test

import (
	"fmt"
	"math"
	"testing"

	"msc/internal/bitset"
	"msc/internal/core"
	"msc/internal/dynamic"
	"msc/internal/failprob"
	"msc/internal/gen/rgg"
	"msc/internal/gen/social"
	"msc/internal/graph"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
	"msc/internal/submodular"
	"msc/internal/telemetry"
	"msc/internal/xrand"
)

// The reference: μ and ν as one dense bitset per candidate, built exactly
// as the bounds were before the ball-derived families (every candidate
// pair (a, b) scans every pair against rows a and b), and greedy over them
// through a bitset marginal oracle. The families under test must
// reproduce it bit for bit: selections, bound values and the sandwich
// ratio.

// denseCover is a coverage function over one bitset per candidate.
type denseCover struct {
	weights  []float64 // nil: unit weights
	sets     []*bitset.Set
	initial  *bitset.Set // nil: nothing covered up front
	universe int
}

// covered returns initial ∪ the sets of sel.
func (d denseCover) covered(sel []int) *bitset.Set {
	c := bitset.New(d.universe)
	if d.initial != nil {
		c = d.initial.Clone()
	}
	for _, s := range sel {
		c.UnionWith(d.sets[s])
	}
	return c
}

// denseOracle is the bitset marginal oracle the greedy arms ran on.
type denseOracle struct {
	d       denseCover
	covered *bitset.Set
}

func (o *denseOracle) Gain(e int) float64 {
	s := o.d.sets[e]
	if o.d.weights == nil {
		return float64(o.covered.AndNotCount(s))
	}
	gain := 0.0
	s.ForEach(func(i int) {
		if !o.covered.Contains(i) {
			gain += o.d.weights[i]
		}
	})
	return gain
}

func (o *denseOracle) Accept(e int) { o.covered.UnionWith(o.d.sets[e]) }

// refBounds holds one instance's dense μ and ν.
type refBounds struct {
	mu, nu  denseCover
	weights []float64 // pair weights, for μ values
	base    float64
}

func buildRef(inst *core.Instance) refBounds {
	ps := inst.Pairs()
	m := ps.Len()
	d := inst.Threshold().D
	table := inst.Table()
	cands := inst.CandidateNodes()
	r := refBounds{base: float64(inst.BaseSigma()), weights: make([]float64, m)}
	satisfied0 := bitset.New(m)
	for i, p := range ps.Pairs() {
		r.weights[i] = float64(inst.PairWeight(i))
		if table.Dist(p.U, p.W) <= d {
			satisfied0.Add(i)
		}
	}
	r.mu = denseCover{initial: satisfied0, universe: m}
	if inst.MaxSigma() != m {
		r.mu.weights = r.weights
	}
	for ai := range cands {
		rowA := table.Row(cands[ai])
		for bi := ai + 1; bi < len(cands); bi++ {
			rowB := table.Row(cands[bi])
			s := bitset.New(m)
			for i, p := range ps.Pairs() {
				if satisfied0.Contains(i) {
					continue
				}
				if rowA[p.U]+rowB[p.W] <= d || rowB[p.U]+rowA[p.W] <= d {
					s.Add(i)
				}
			}
			r.mu.sets = append(r.mu.sets, s)
		}
	}
	nodes := ps.Nodes()
	index := make(map[graph.NodeID]int, len(nodes))
	for i, v := range nodes {
		index[v] = i
	}
	r.nu = denseCover{weights: make([]float64, len(nodes)), universe: len(nodes)}
	for i, p := range ps.Pairs() {
		half := r.weights[i] / 2
		r.nu.weights[index[p.U]] += half
		r.nu.weights[index[p.W]] += half
	}
	perNode := make([]*bitset.Set, len(cands))
	for vi, v := range cands {
		perNode[vi] = bitset.New(len(nodes))
		row := table.Row(v)
		for i, x := range nodes {
			if row[x] <= d {
				perNode[vi].Add(i)
			}
		}
	}
	for ai := range cands {
		for bi := ai + 1; bi < len(cands); bi++ {
			s := perNode[ai].Clone()
			s.UnionWith(perNode[bi])
			r.nu.sets = append(r.nu.sets, s)
		}
	}
	return r
}

func (r refBounds) muValue(sel []int) float64 {
	total := 0.0
	r.mu.covered(sel).ForEach(func(i int) { total += r.weights[i] })
	return total
}

func (r refBounds) nuValue(sel []int) float64 {
	total := r.base
	r.nu.covered(sel).ForEach(func(i int) { total += r.nu.weights[i] })
	return total
}

// concatDense joins per-instance covers over the same candidates into one
// cover over the disjoint union of their universes, as a dynamic problem's
// bounds are the sums of the per-instance ones.
func concatDense(subs []denseCover) denseCover {
	out := denseCover{}
	offsets := make([]int, len(subs))
	weighted := false
	for i, sub := range subs {
		offsets[i] = out.universe
		out.universe += sub.universe
		weighted = weighted || sub.weights != nil
	}
	if weighted {
		for _, sub := range subs {
			for j := 0; j < sub.universe; j++ {
				w := 1.0
				if sub.weights != nil {
					w = sub.weights[j]
				}
				out.weights = append(out.weights, w)
			}
		}
	}
	for i, sub := range subs {
		if sub.initial != nil {
			if out.initial == nil {
				out.initial = bitset.New(out.universe)
			}
			sub.initial.ForEach(func(j int) { out.initial.Add(offsets[i] + j) })
		}
	}
	for c := range subs[0].sets {
		s := bitset.New(out.universe)
		for i, sub := range subs {
			sub.sets[c].ForEach(func(j int) { s.Add(offsets[i] + j) })
		}
		out.sets = append(out.sets, s)
	}
	return out
}

// refArm is the reference greedy on one dense cover: CELF lazy greedy
// under cardinality k, the knapsack weighted greedy when budgeted.
func refArm(p core.Problem, d denseCover) []int {
	o := &denseOracle{d: d, covered: d.covered(nil)}
	if bp, ok := p.(core.BudgetProblem); ok && bp.Budgeted() {
		return submodular.WeightedGreedy(len(d.sets), bp.Budget(), bp.Cost, o)
	}
	return submodular.LazyGreedy(len(d.sets), p.K(), o)
}

// diffWorld draws a random connected graph and m distinct pairs. With
// violating set, every pair misses d_t in the raw network (the paper's
// setting); otherwise pairs are uniform, so some are satisfied at
// baseline. With integer set, edge lengths are 1–3, so many one-shortcut
// paths land exactly on an integer d_t.
func diffWorld(t *testing.T, n, m int, dt float64, violating, integer bool, rng *xrand.Rand) (*graph.Graph, *pairs.Set, *shortestpath.Table) {
	t.Helper()
	length := func() float64 {
		if integer {
			return float64(1 + rng.Intn(3))
		}
		return 0.1 + rng.Float64()
	}
	for attempt := 0; attempt < 20; attempt++ {
		b := graph.NewBuilder(n)
		perm := rng.Perm(n)
		for i := 1; i < n; i++ {
			b.AddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[rng.Intn(i)]), length())
		}
		for e := 0; e < 2*n; e++ {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				b.AddEdge(graph.NodeID(u), graph.NodeID(v), length())
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		table := shortestpath.NewTable(g, 0)
		if violating {
			ps, err := pairs.SampleViolating(table, dt, m, rng)
			if err != nil {
				continue
			}
			return g, ps, table
		}
		seen := map[pairs.Pair]bool{}
		var list []pairs.Pair
		for len(list) < m {
			p := pairs.New(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
			if p.U != p.W && !seen[p] {
				seen[p] = true
				list = append(list, p)
			}
		}
		return g, pairs.MustNewSet(n, list), table
	}
	t.Fatalf("no graph yielded %d violating pairs", m)
	return nil, nil, nil
}

func diffInstance(t *testing.T, g *graph.Graph, ps *pairs.Set, dt float64, k int, opts core.Options) *core.Instance {
	t.Helper()
	opts.AllowTrivial = true
	inst, err := core.NewInstance(g, ps, failprob.Threshold{P: 1 - math.Exp(-dt), D: dt}, k, &opts)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// checkBoundsDiff asserts that p's μ/ν arms, bound values and sandwich
// certificate equal the reference's. mu and nu evaluate the reference
// bounds on a selection; muCover and nuCover are the reference families.
func checkBoundsDiff(t *testing.T, name string, p core.Problem, muCover, nuCover denseCover,
	mu, nu func([]int) float64, rng *xrand.Rand) {
	t.Helper()
	wantMu, wantNu := refArm(p, muCover), refArm(p, nuCover)
	if got := core.GreedyMu(p).Selection; !equalSel(got, wantMu) {
		t.Fatalf("%s: GreedyMu chose %v, reference %v", name, got, wantMu)
	}
	if got := core.GreedyNu(p).Selection; !equalSel(got, wantNu) {
		t.Fatalf("%s: GreedyNu chose %v, reference %v", name, got, wantNu)
	}
	for rep := 0; rep < 8; rep++ {
		sel := rng.SampleDistinct(p.NumCandidates(), rng.Intn(p.K()+3))
		if got, want := p.Mu(sel), mu(sel); got != want {
			t.Fatalf("%s: μ(%v) = %v, reference %v", name, sel, got, want)
		}
		if got, want := p.Nu(sel), nu(sel); got != want {
			t.Fatalf("%s: ν(%v) = %v, reference %v", name, sel, got, want)
		}
	}
	res := core.Sandwich(p)
	if !equalSel(res.FMu.Selection, wantMu) || !equalSel(res.FNu.Selection, wantNu) {
		t.Fatalf("%s: sandwich arms F_μ=%v F_ν=%v, reference %v %v", name, res.FMu.Selection, res.FNu.Selection, wantMu, wantNu)
	}
	ratio := 1.0
	if v := nu(res.FSigma.Selection); v > 0 {
		ratio = float64(res.FSigma.Sigma) / v
	}
	factor := ratio * (1 - 1/math.E)
	if bp, ok := p.(core.BudgetProblem); ok && bp.Budgeted() {
		factor /= 2
	}
	if res.Ratio != ratio || res.ApproxFactor != factor {
		t.Fatalf("%s: sandwich ratio %v factor %v, reference %v %v", name, res.Ratio, res.ApproxFactor, ratio, factor)
	}
}

func equalSel(a, b []int) bool {
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

// ballWorlds draws the graphs of the backend sweep: a paper-style RGG and
// a venue-clustered social network, both with raw −ln(1−p) lengths at the
// benchmark's p_t, and an integer-length graph whose pairs and
// one-shortcut paths land exactly on d_t = 4.
func ballWorlds(t *testing.T, rng *xrand.Rand) []ballWorld {
	t.Helper()
	const n = 40
	var out []ballWorld
	g, err := rgg.Generate(rgg.Config{N: n, Radius: 1.6 * math.Sqrt(math.Log(n)/(math.Pi*n)), FailureAtRadius: 0.08, RequireConnected: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, ballWorld{name: "rgg", g: g, dt: -math.Log(1 - 0.11)})
	net, err := social.Generate(social.ScaledConfig(n), rng)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, ballWorld{name: "social", g: net.Graph, dt: -math.Log(1 - 0.23)})
	gi, _, _ := diffWorld(t, 30, 8, 4, true, true, rng)
	out = append(out, ballWorld{name: "integer", g: gi, dt: 4})
	for i, w := range out {
		ps, err := pairs.SampleViolating(shortestpath.NewTable(w.g, 0), w.dt, 8, rng)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		out[i].ps = ps
	}
	return out
}

type ballWorld struct {
	name string
	g    *graph.Graph
	dt   float64
	ps   *pairs.Set
}

// ballBackends are the distance backends of the sweep. The dense and lazy
// full-row legs are not backends NewInstance builds; backendOptions
// supplies them through Options.Table.
var ballBackends = []struct {
	name string
	opts core.Options
}{
	{"dense", core.Options{}},
	{"lazy", core.Options{}},
	{"bounded", core.Options{DistBackend: core.BackendBounded}},
}

// backendOptions returns opts for the named ballBackends leg over g: the
// "dense" leg gets a fresh dense shortestpath.Table as Options.Table, the
// "lazy" leg a fresh shortestpath.LazyTable.
func backendOptions(g *graph.Graph, name string, opts core.Options) core.Options {
	switch name {
	case "dense":
		opts.Table = shortestpath.NewTable(g, 0)
	case "lazy":
		opts.Table = shortestpath.NewLazyTable(g, shortestpath.LazyOptions{})
	}
	return opts
}

// TestBoundsDifferential pins the ball-derived μ/ν families to the dense
// reference over 24 seeds. Every distance backend, at Parallelism 1, 2
// and 8, is checked on RGG and social graphs with raw lengths and on
// integer lengths where distances hit d_t exactly; the reference reads
// the backend's own full rows, which on the bounded backend are the dense
// rows truncated at d_t. Six more regimes run on the dense and lazy backends:
// unit weights (also on integer lengths), weighted pairs, pairs
// satisfied at baseline, the pair-endpoint-free candidate universe, unit-
// and length-priced budgets through the weighted greedy, and a dynamic
// problem.
func TestBoundsDifferential(t *testing.T) {
	const dt = 1.2
	satisfiedSeen := 0
	muSets := map[string]int{} // per ball world, μ sets seen across seeds
	for seed := int64(1); seed <= 24; seed++ {
		rng := xrand.New(seed)
		checkInst := func(name string, inst *core.Instance) {
			t.Helper()
			r := buildRef(inst)
			checkBoundsDiff(t, name, inst, r.mu, r.nu, r.muValue, r.nuValue, rng)
		}

		for _, w := range ballWorlds(t, rng) {
			for _, be := range ballBackends {
				for _, par := range []int{1, 2, 8} {
					opts := backendOptions(w.g, be.name, be.opts)
					opts.Parallelism = par
					inst := diffInstance(t, w.g, w.ps, w.dt, 3, opts)
					checkInst(fmt.Sprintf("seed %d %s/%s/par%d", seed, w.name, be.name, par), inst)
					muSets[w.name] += len(inst.MuProblem().Sparse.IDs)
				}
			}
		}

		g, ps, table := diffWorld(t, 30, 8, dt, true, false, rng)
		backend := "dense"
		if seed%2 == 1 {
			backend = "lazy"
		}
		checkInst("unit", diffInstance(t, g, ps, dt, 3, backendOptions(g, backend, core.Options{})))
		gi, psi, _ := diffWorld(t, 30, 8, 4, true, true, rng)
		checkInst("integer", diffInstance(t, gi, psi, 4, 3, backendOptions(gi, backend, core.Options{})))

		weights := make([]int, ps.Len())
		for i := range weights {
			weights[i] = 1 + rng.Intn(4)
		}
		checkInst("weighted", diffInstance(t, g, ps, dt, 3, core.Options{Table: table, PairWeights: weights}))

		g2, ps2, table2 := diffWorld(t, 30, 10, dt, false, false, rng)
		sat := diffInstance(t, g2, ps2, dt, 3, core.Options{Table: table2})
		if sat.BaseSigma() > 0 {
			satisfiedSeen++
		}
		checkInst("satisfied0", sat)

		checkInst("exclude", diffInstance(t, g, ps, dt, 3, core.Options{Table: table, ExcludePairEndpoints: true}))

		checkInst("budget-unit", diffInstance(t, g, ps, dt, 3, core.Options{Table: table, Budget: 3, CostModel: core.CostUnit}))
		checkInst("budget-length", diffInstance(t, g, ps, dt, 3, core.Options{Table: table, Budget: 4, CostModel: core.CostLength}))

		var insts []*core.Instance
		var refs []refBounds
		for i := 0; i < 3; i++ {
			gi, psi, ti := diffWorld(t, 24, 6, dt, i%2 == 0, false, rng)
			inst := diffInstance(t, gi, psi, dt, 3, core.Options{Table: ti})
			insts = append(insts, inst)
			refs = append(refs, buildRef(inst))
		}
		dp, err := dynamic.NewProblem(insts)
		if err != nil {
			t.Fatal(err)
		}
		var mus, nus []denseCover
		for _, r := range refs {
			mus, nus = append(mus, r.mu), append(nus, r.nu)
		}
		sum := func(value func(refBounds, []int) float64) func([]int) float64 {
			return func(sel []int) float64 {
				total := 0.0
				for _, r := range refs {
					total += value(r, sel)
				}
				return total
			}
		}
		checkBoundsDiff(t, "dynamic", dp, concatDense(mus), concatDense(nus),
			sum(refBounds.muValue), sum(refBounds.nuValue), rng)
	}
	if satisfiedSeen == 0 {
		t.Fatal("no seed produced a pair satisfied at baseline")
	}
	for name, n := range muSets {
		if n == 0 {
			t.Fatalf("%s: no candidate satisfied any pair; the sweep checked empty μ families only", name)
		}
	}
}

// TestBoundsReadBallsOnly pins what the μ/ν build reads: the pair
// endpoints' d_t-balls, which the σ search reads anyway, and nothing for
// any other candidate, in both candidate universes. On the bounded backend
// that is one cached ball per pair node and no dense row; on the lazy
// backend one full row per pair node; on the dense backend the resident
// rows, with no Dijkstra run.
func TestBoundsReadBallsOnly(t *testing.T) {
	build := func(inst *core.Instance) {
		inst.MuProblem()
		inst.NuProblem()
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := xrand.New(seed)
		for _, w := range ballWorlds(t, rng) {
			pairNodes := len(w.ps.Nodes())
			for _, exclude := range []bool{false, true} {
				name := fmt.Sprintf("seed %d %s exclude=%v", seed, w.name, exclude)
				bounded := diffInstance(t, w.g, w.ps, w.dt, 3, core.Options{DistBackend: core.BackendBounded, ExcludePairEndpoints: exclude})
				build(bounded)
				bt := bounded.Table().(*shortestpath.BoundedTable)
				if s := bt.Stats(); s.DenseRows != 0 || s.Cached != pairNodes {
					t.Fatalf("%s: bounded build materialized %d dense rows and left %d cached balls, want 0 and %d", name, s.DenseRows, s.Cached, pairNodes)
				}

				lazy := diffInstance(t, w.g, w.ps, w.dt, 3, backendOptions(w.g, "lazy", core.Options{ExcludePairEndpoints: exclude}))
				build(lazy)
				if got := lazy.Table().(*shortestpath.LazyTable).Stats().Computes; got != int64(pairNodes) {
					t.Fatalf("%s: lazy build computed %d rows, want %d: one per pair node", name, got, pairNodes)
				}

				dense := diffInstance(t, w.g, w.ps, w.dt, 3, backendOptions(w.g, "dense", core.Options{ExcludePairEndpoints: exclude}))
				before := telemetry.Global().DijkstraRuns.Load()
				build(dense)
				if runs := telemetry.Global().DijkstraRuns.Load() - before; runs != 0 {
					t.Fatalf("%s: dense build ran %d Dijkstras, want 0", name, runs)
				}
			}
		}
	}
}
