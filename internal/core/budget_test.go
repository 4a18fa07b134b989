package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"msc/internal/failprob"
	"msc/internal/graph"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
	"msc/internal/xrand"
)

// budgetWorld deterministically builds a (graph, pairs, table) world for
// budgeted-solver sweeps. Like surviveInstanceRetry, a seed whose graph
// cannot supply m violating pairs perturbs the sub-seed instead of
// skipping, so every sweep seed yields a world.
func budgetWorld(t *testing.T, n, m int, dt float64, seed int64) (*graph.Graph, *pairs.Set, *shortestpath.Table) {
	t.Helper()
	for off := int64(0); off < 20; off++ {
		rng := xrand.New(seed*1000 + off)
		g := randomConnectedGraph(t, n, 2*n, rng)
		table := shortestpath.NewTable(g, 0)
		ps, err := pairs.SampleViolating(table, dt, m, rng)
		if err != nil {
			continue
		}
		return g, ps, table
	}
	t.Fatalf("seed %d: no graph yielded %d violating pairs", seed, m)
	return nil, nil, nil
}

// budgetInstance builds an instance on a prebuilt world with the given
// budget options layered on top of the shared test defaults.
func budgetInstance(t *testing.T, g *graph.Graph, ps *pairs.Set, table *shortestpath.Table, k int, dt float64, opts Options) *Instance {
	t.Helper()
	opts.AllowTrivial = true
	opts.Table = table
	inst, err := NewInstance(g, ps, failprob.Threshold{P: 1 - math.Exp(-dt), D: dt}, k, &opts)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	return inst
}

// budgetSolvers is the full budget-aware solver stack the differential
// suite drives. Each runner is deterministic given (problem, workers,
// seed); RNG solvers get a fresh generator per call so repeated runs
// reproduce exactly.
var budgetSolvers = []struct {
	name string
	run  func(t *testing.T, p Problem, workers int, seed int64) []int
}{
	{"greedy", func(t *testing.T, p Problem, w int, _ int64) []int {
		return GreedySigma(p, Parallelism(w)).Selection
	}},
	{"sandwich", func(t *testing.T, p Problem, w int, _ int64) []int {
		return Sandwich(p, Parallelism(w)).Best.Selection
	}},
	{"localsearch", func(t *testing.T, p Problem, w int, _ int64) []int {
		start := GreedySigma(p, Parallelism(w))
		return LocalSearch(p, start.Selection, LocalSearchOptions{MaxIters: 4, RunOptions: RunOptions{Parallelism: w}}).Selection
	}},
	{"ea", func(t *testing.T, p Problem, w int, seed int64) []int {
		return EA(p, EAOptions{Iterations: 40, RunOptions: RunOptions{Parallelism: w}}, xrand.New(seed)).Best.Selection
	}},
	{"aea", func(t *testing.T, p Problem, w int, seed int64) []int {
		return AEA(p, AEAOptions{Iterations: 40, PopSize: 4, Delta: 0.2, RunOptions: RunOptions{Parallelism: w}}, xrand.New(seed)).Best.Selection
	}},
	{"random", func(t *testing.T, p Problem, w int, seed int64) []int {
		pl, err := RandomPlacement(p, 16, xrand.New(seed), Parallelism(w))
		if err != nil {
			t.Fatalf("RandomPlacement: %v", err)
		}
		return pl.Selection
	}},
}

// TestBudgetedSolversDifferential is the brute-force differential suite of
// the budgeted stack: on 24 seeds with heterogeneous length-proportional
// prices, every solver must stay budget-feasible, never beat the
// ExhaustiveBudget optimum, and return byte-identical placements across
// worker counts and against the rebuild reference (rebuildProblem). The
// exhaustive reference itself must agree between its serial and
// residue-strided parallel enumerations, and the sandwich must honor its
// reported (budget-adjusted) approximation factor against the true
// optimum.
func TestBudgetedSolversDifferential(t *testing.T) {
	const budget = 4.0
	for seed := int64(1); seed <= 24; seed++ {
		g, ps, table := budgetWorld(t, 10, 5, 0.8, seed)
		inst := budgetInstance(t, g, ps, table, 3, 0.8, Options{Budget: budget, CostModel: CostLength})
		rebuilt := rebuildProblem{inst}

		opt, err := ExhaustiveBudget(inst, 2_000_000)
		if err != nil {
			t.Fatalf("seed=%d: ExhaustiveBudget: %v", seed, err)
		}
		optPar, err := ExhaustiveBudget(inst, 2_000_000, Parallelism(3))
		if err != nil {
			t.Fatalf("seed=%d: parallel ExhaustiveBudget: %v", seed, err)
		}
		if !equalInts(opt.Selection, optPar.Selection) || opt.Sigma != optPar.Sigma {
			t.Fatalf("seed=%d: exhaustive serial %v (σ=%d) != parallel %v (σ=%d)",
				seed, opt.Selection, opt.Sigma, optPar.Selection, optPar.Sigma)
		}
		if got := inst.CostOf(opt.Selection); got > budget+1e-9 {
			t.Fatalf("seed=%d: exhaustive optimum spends %v of budget %v", seed, got, budget)
		}

		for _, s := range budgetSolvers {
			serial := s.run(t, inst, 1, seed)
			parallel := s.run(t, inst, 4, seed)
			if !equalInts(serial, parallel) {
				t.Fatalf("seed=%d %s: parallel %v != serial %v", seed, s.name, parallel, serial)
			}
			for _, w := range []int{1, 4} {
				if other := s.run(t, rebuilt, w, seed); !equalInts(serial, other) {
					t.Fatalf("seed=%d %s: rebuild reference at %d workers %v != incremental %v", seed, s.name, w, other, serial)
				}
			}
			if spent := inst.CostOf(serial); spent > budget+1e-9 {
				t.Fatalf("seed=%d %s: placement %v spends %v of budget %v", seed, s.name, serial, spent, budget)
			}
			if sigma := inst.Sigma(serial); sigma > opt.Sigma {
				t.Fatalf("seed=%d %s: σ=%d beats exhaustive optimum %d", seed, s.name, sigma, opt.Sigma)
			}
		}

		res := Sandwich(inst)
		if float64(res.Best.Sigma) < res.ApproxFactor*float64(opt.Sigma)-1e-9 {
			t.Fatalf("seed=%d: budgeted sandwich bound violated: σ=%d factor=%v opt=%d",
				seed, res.Best.Sigma, res.ApproxFactor, opt.Sigma)
		}
	}
}

// TestBudgetUnitCostEqualsCardinality locks the reduction the cost model
// is designed around: a unit-cost budget B = k run is bit-for-bit
// identical to the paper's cardinality-k run, for every solver in the
// stack. The RNG solvers require k·3 < N so the cardinality seed draw
// takes SampleDistinct's rejection branch (the one affordableFill
// reproduces); the worlds here satisfy that by construction.
func TestBudgetUnitCostEqualsCardinality(t *testing.T) {
	const k = 3
	for seed := int64(1); seed <= 12; seed++ {
		g, ps, table := budgetWorld(t, 12, 5, 0.8, seed)
		card := budgetInstance(t, g, ps, table, k, 0.8, Options{})
		bud := budgetInstance(t, g, ps, table, k, 0.8, Options{Budget: k, CostModel: CostUnit})
		if card.Budgeted() || !bud.Budgeted() {
			t.Fatalf("seed=%d: budget activation wrong: card=%v bud=%v", seed, card.Budgeted(), bud.Budgeted())
		}
		if k*3 >= card.NumCandidates() {
			t.Fatalf("seed=%d: world too small for RNG-parity precondition (k=%d, N=%d)", seed, k, card.NumCandidates())
		}
		for _, s := range budgetSolvers {
			a := s.run(t, card, 1, seed)
			b := s.run(t, bud, 1, seed)
			if !equalInts(a, b) {
				t.Fatalf("seed=%d %s: unit-cost B=k placement %v != cardinality-k placement %v", seed, s.name, b, a)
			}
		}
		ra, rb := Sandwich(card), Sandwich(bud)
		if !equalInts(ra.FMu.Selection, rb.FMu.Selection) ||
			!equalInts(ra.FSigma.Selection, rb.FSigma.Selection) ||
			!equalInts(ra.FNu.Selection, rb.FNu.Selection) {
			t.Fatalf("seed=%d: sandwich arms diverge: %v/%v/%v vs %v/%v/%v", seed,
				ra.FMu.Selection, ra.FSigma.Selection, ra.FNu.Selection,
				rb.FMu.Selection, rb.FSigma.Selection, rb.FNu.Selection)
		}
		if ra.Ratio != rb.Ratio {
			t.Fatalf("seed=%d: sandwich ratio diverges: %v vs %v", seed, ra.Ratio, rb.Ratio)
		}
		if math.Abs(rb.ApproxFactor-ra.ApproxFactor/2) > 1e-12 {
			t.Fatalf("seed=%d: budgeted factor %v is not half the cardinality factor %v", seed, rb.ApproxFactor, ra.ApproxFactor)
		}
		optA, err := Exhaustive(card, 2_000_000)
		if err != nil {
			t.Fatalf("seed=%d: Exhaustive: %v", seed, err)
		}
		optB, err := ExhaustiveBudget(bud, 2_000_000)
		if err != nil {
			t.Fatalf("seed=%d: ExhaustiveBudget: %v", seed, err)
		}
		if optA.Sigma != optB.Sigma {
			t.Fatalf("seed=%d: cardinality optimum σ=%d != unit-budget optimum σ=%d", seed, optA.Sigma, optB.Sigma)
		}
	}
}

// Property: the exact budgeted optimum is monotone in B — a larger budget
// admits a superset of the feasible selections, so σ* can only grow.
// ExhaustiveBudget results are cached per (world, budget) so the quick
// sweep costs at most len(worlds)·len(budgets) enumerations.
func TestQuickBudgetOptimumMonotone(t *testing.T) {
	type world struct {
		g     *graph.Graph
		ps    *pairs.Set
		table *shortestpath.Table
	}
	worlds := make([]world, 3)
	for i := range worlds {
		g, ps, table := budgetWorld(t, 9, 4, 0.8, int64(100+i))
		worlds[i] = world{g, ps, table}
	}
	budgets := []float64{0, 1, 1.5, 2.5, 3.5, 4.5}
	cache := map[[2]int]int{}
	sigmaOpt := func(w, b int) int {
		if v, ok := cache[[2]int{w, b}]; ok {
			return v
		}
		inst := budgetInstance(t, worlds[w].g, worlds[w].ps, worlds[w].table, 2, 0.8,
			Options{Budget: budgets[b], CostModel: CostLength})
		opt, err := ExhaustiveBudget(inst, 1_000_000)
		if err != nil {
			t.Fatalf("world=%d budget=%v: %v", w, budgets[b], err)
		}
		cache[[2]int{w, b}] = opt.Sigma
		return opt.Sigma
	}
	property := func(pick, b1, b2 uint8) bool {
		w := int(pick) % len(worlds)
		i, j := int(b1)%len(budgets), int(b2)%len(budgets)
		if budgets[i] > budgets[j] {
			i, j = j, i
		}
		return sigmaOpt(w, i) <= sigmaOpt(w, j)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: budgeted RandomPlacement under unit costs with B = k consumes
// the exact RNG draw sequence of the cardinality sampler, for arbitrary
// quick-chosen seeds — the draw-compatibility contract of affordableFill.
func TestQuickUnitBudgetRandomParity(t *testing.T) {
	type pair struct{ card, bud *Instance }
	const k = 2
	pool := make([]pair, 4)
	for i := range pool {
		g, ps, table := budgetWorld(t, 10, 4, 0.8, int64(200+i))
		pool[i] = pair{
			card: budgetInstance(t, g, ps, table, k, 0.8, Options{}),
			bud:  budgetInstance(t, g, ps, table, k, 0.8, Options{Budget: k, CostModel: CostUnit}),
		}
	}
	property := func(pick uint8, seed int64) bool {
		p := pool[int(pick)%len(pool)]
		a, err := RandomPlacement(p.card, 8, xrand.New(seed))
		if err != nil {
			return false
		}
		b, err := RandomPlacement(p.bud, 8, xrand.New(seed))
		if err != nil {
			return false
		}
		return equalInts(a.Selection, b.Selection) && a.Sigma == b.Sigma
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestBudgetEdgeCases covers the degenerate corners of the budget surface:
// B = 0 is legal and yields the empty placement, a universe of
// unaffordable candidates degrades every solver to the empty placement
// without spinning, and malformed prices or budgets are rejected up front
// with typed *InputError values.
func TestBudgetEdgeCases(t *testing.T) {
	g := graph.NewBuilder(4).MustBuild() // no edges: both pairs violating
	ps := pairs.MustNewSet(4, []pairs.Pair{{U: 0, W: 1}, {U: 2, W: 3}})
	thr := failprob.NewThreshold(0.3)
	numCand := NumCandidatesFor(4)
	build := func(opts Options) (*Instance, error) {
		opts.AllowTrivial = true
		return NewInstance(g, ps, thr, 1, &opts)
	}
	mustBuild := func(t *testing.T, opts Options) *Instance {
		t.Helper()
		inst, err := build(opts)
		if err != nil {
			t.Fatalf("NewInstance: %v", err)
		}
		return inst
	}
	allCost := func(c float64) []float64 {
		costs := make([]float64, numCand)
		for i := range costs {
			costs[i] = c
		}
		return costs
	}

	t.Run("zero budget yields the empty placement without error", func(t *testing.T) {
		inst := mustBuild(t, Options{Budget: 0, CostModel: CostUnit})
		if !inst.Budgeted() || inst.Budget() != 0 {
			t.Fatalf("explicit B=0 not budgeted: budgeted=%v B=%v", inst.Budgeted(), inst.Budget())
		}
		if pl := GreedySigma(inst); len(pl.Selection) != 0 || pl.Sigma != 0 {
			t.Fatalf("greedy under B=0 placed %v (σ=%d)", pl.Selection, pl.Sigma)
		}
		pl, err := RandomPlacement(inst, 5, xrand.New(1))
		if err != nil || len(pl.Selection) != 0 {
			t.Fatalf("random under B=0: %v, %v", pl.Selection, err)
		}
		opt, err := ExhaustiveBudget(inst, 1000)
		if err != nil || len(opt.Selection) != 0 {
			t.Fatalf("exhaustive under B=0: %v, %v", opt.Selection, err)
		}
		res := AEA(inst, AEAOptions{Iterations: 10, PopSize: 2, Delta: 0.5}, xrand.New(1))
		if len(res.Best.Selection) != 0 {
			t.Fatalf("AEA under B=0 placed %v", res.Best.Selection)
		}
	})

	t.Run("all candidates unaffordable degrades to the empty placement", func(t *testing.T) {
		for name, opts := range map[string]Options{
			"finite but over budget": {Budget: 5, Costs: allCost(10)},
			"all infinite":           {Budget: 1e9, Costs: allCost(math.Inf(1))},
		} {
			inst := mustBuild(t, opts)
			if pl := GreedySigma(inst); len(pl.Selection) != 0 {
				t.Fatalf("%s: greedy placed %v", name, pl.Selection)
			}
			pl, err := RandomPlacement(inst, 5, xrand.New(1))
			if err != nil || len(pl.Selection) != 0 {
				t.Fatalf("%s: random placed %v, %v", name, pl.Selection, err)
			}
			res := AEA(inst, AEAOptions{Iterations: 10, PopSize: 2, Delta: 0.5}, xrand.New(1))
			if len(res.Best.Selection) != 0 {
				t.Fatalf("%s: AEA placed %v", name, res.Best.Selection)
			}
			opt, err := ExhaustiveBudget(inst, 1000)
			if err != nil || len(opt.Selection) != 0 {
				t.Fatalf("%s: exhaustive placed %v, %v", name, opt.Selection, err)
			}
		}
	})

	t.Run("single infinite price is legal and never selected", func(t *testing.T) {
		costs := allCost(1)
		heavy := 2
		costs[heavy] = math.Inf(1)
		inst := mustBuild(t, Options{Budget: 100, Costs: costs})
		pl := GreedySigma(inst)
		for _, c := range pl.Selection {
			if c == heavy {
				t.Fatalf("greedy selected the +Inf-priced candidate: %v", pl.Selection)
			}
		}
	})

	rejected := []struct {
		name  string
		opts  Options
		param string
	}{
		{"NaN cost", Options{Budget: 2, Costs: func() []float64 { c := allCost(1); c[2] = math.NaN(); return c }()}, "costs"},
		{"negative cost", Options{Budget: 2, Costs: func() []float64 { c := allCost(1); c[0] = -1; return c }()}, "costs"},
		{"zero cost", Options{Budget: 2, Costs: func() []float64 { c := allCost(1); c[4] = 0; return c }()}, "costs"},
		{"cost table length mismatch", Options{Budget: 2, Costs: []float64{1, 1}}, "costs"},
		{"negative budget", Options{Budget: -1, CostModel: CostUnit}, "budget"},
		{"NaN budget", Options{Budget: math.NaN(), CostModel: CostUnit}, "budget"},
		{"infinite budget", Options{Budget: math.Inf(1), CostModel: CostUnit}, "budget"},
		{"costs conflict with unit model", Options{Budget: 2, CostModel: CostUnit, Costs: []float64{1}}, "costs"},
		{"costs conflict with length model", Options{Budget: 2, CostModel: CostLength, Costs: []float64{1}}, "costs"},
		{"table model without costs", Options{Budget: 2, CostModel: CostTable}, "costs"},
	}
	for _, tc := range rejected {
		t.Run(tc.name+" rejected", func(t *testing.T) {
			_, err := build(tc.opts)
			var ie *InputError
			if !errors.As(err, &ie) {
				t.Fatalf("got %v (%T), want *InputError", err, err)
			}
			if ie.Param != tc.param {
				t.Fatalf("flagged param %q, want %q (%v)", ie.Param, tc.param, err)
			}
		})
	}
}

// TestGreedyBudgetFallbackSingleton pins the load-bearing best-single-item
// fallback (Khuller–Moss–Naor; cf. Ren & Zhao): the ratio greedy prefers a
// cheap mediocre shortcut whose commitment prices the excellent one out of
// the budget, and only the fallback recovers the optimum.
func TestGreedyBudgetFallbackSingleton(t *testing.T) {
	g := graph.NewBuilder(4).MustBuild()
	ps := pairs.MustNewSet(4, []pairs.Pair{{U: 0, W: 1}, {U: 2, W: 3}})
	costs := make([]float64, NumCandidatesFor(4))
	for i := range costs {
		costs[i] = math.Inf(1)
	}
	heavy := CandidateIndexFor(4, edgeOf(0, 1)) // serves the weight-5 pair
	cheap := CandidateIndexFor(4, edgeOf(2, 3)) // serves the weight-1 pair
	costs[heavy], costs[cheap] = 5, 0.5
	inst, err := NewInstance(g, ps, failprob.NewThreshold(0.3), 1, &Options{
		AllowTrivial: true, PairWeights: []int{5, 1}, Budget: 5, Costs: costs,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Ratio greedy alone: round 0 picks cheap (ratio 2 vs 1), leaving
	// 4.5 < 5 of budget, so heavy never fits and the prefix ends at σ=1.
	// The fallback singleton (heavy, σ=5) must win.
	pl := GreedySigma(inst)
	if !equalInts(pl.Selection, []int{heavy}) || pl.Sigma != 5 {
		t.Fatalf("fallback not taken: placed %v (σ=%d), want [%d] (σ=5)", pl.Selection, pl.Sigma, heavy)
	}
	opt, err := ExhaustiveBudget(inst, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Sigma != pl.Sigma {
		t.Fatalf("fallback σ=%d misses the exhaustive optimum σ=%d", pl.Sigma, opt.Sigma)
	}
}

// TestCostLengthPricing locks the length model's price formula to the raw
// distance table: 1 + D0(u,v)/d_t, evaluated lazily and cached — on a
// supplied dense table and on the bounded backend, whose own rows stop at
// d_t.
func TestCostLengthPricing(t *testing.T) {
	g, ps, table := budgetWorld(t, 10, 4, 0.8, 5)
	bounded, err := NewInstance(g, ps, thrD(0.8), 2, &Options{
		AllowTrivial: true, DistBackend: BackendBounded, Budget: 3, CostModel: CostLength,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range []*Instance{
		budgetInstance(t, g, ps, table, 2, 0.8, Options{Budget: 3, CostModel: CostLength}),
		bounded,
	} {
		if inst.CostModel() != CostLength {
			t.Fatalf("cost model %q, want %q", inst.CostModel(), CostLength)
		}
		total := 0.0
		sel := make([]int, 0, 4)
		for c := 0; c < inst.NumCandidates(); c += 7 {
			e := inst.CandidateEdge(c)
			want := 1.0
			if d := table.Dist(e.U, e.V); d > 0 {
				want = 1 + d/inst.Threshold().D
			}
			if got := inst.Cost(c); got != want {
				t.Fatalf("%T: Cost(%d) = %v, want %v", inst.Table(), c, got, want)
			}
			sel = append(sel, c)
			total += want
		}
		if got := inst.CostOf(sel); math.Abs(got-total) > 1e-12 {
			t.Fatalf("%T: CostOf(%v) = %v, want %v", inst.Table(), sel, got, total)
		}
	}
	// Cardinality instances price everything at 1, making CostOf the
	// selection size.
	card := budgetInstance(t, g, ps, table, 2, 0.8, Options{})
	if card.Cost(3) != 1 || card.CostOf([]int{0, 5, 9}) != 3 {
		t.Fatalf("cardinality pricing broken: Cost=%v CostOf=%v", card.Cost(3), card.CostOf([]int{0, 5, 9}))
	}
}

// TestExhaustiveBudgetGuards covers the typed rejections and the counting
// pre-pass of the budgeted brute force.
func TestExhaustiveBudgetGuards(t *testing.T) {
	g, ps, table := budgetWorld(t, 9, 4, 0.8, 7)
	card := budgetInstance(t, g, ps, table, 2, 0.8, Options{})
	bud := budgetInstance(t, g, ps, table, 2, 0.8, Options{Budget: 2, CostModel: CostUnit})

	var ie *InputError
	if _, err := ExhaustiveBudget(card, 1000); !errors.As(err, &ie) || ie.Param != "budget" {
		t.Fatalf("ExhaustiveBudget on a cardinality problem: %v", err)
	}
	if _, err := Exhaustive(bud, 1000); !errors.As(err, &ie) || ie.Param != "budget" {
		t.Fatalf("Exhaustive on a budgeted problem: %v", err)
	}
	if _, err := ExhaustiveBudget(bud, 0); !errors.As(err, &ie) || ie.Param != "maxEvals" {
		t.Fatalf("ExhaustiveBudget with maxEvals=0: %v", err)
	}
	if _, err := ExhaustiveBudget(bud, 3); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("ExhaustiveBudget beyond the eval cap: %v", err)
	}
}

// TestParseCostModelAndDefaults covers the flag-value surface and the
// explicit-option → built-in resolution chain, including which options
// activate budgeted placement.
func TestParseCostModelAndDefaults(t *testing.T) {
	for in, want := range map[string]CostModel{
		"": CostModelAuto, "auto": CostModelAuto, "unit": CostUnit,
		"length": CostLength, "table": CostTable,
	} {
		got, err := ParseCostModel(in)
		if err != nil || got != want {
			t.Fatalf("ParseCostModel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseCostModel("bogus"); err == nil {
		t.Fatal("ParseCostModel(bogus) did not error")
	}

	if got := resolveCostModel(CostModelAuto); got != CostUnit {
		t.Fatalf("resolve auto = %v, want unit", got)
	}
	if got := resolveCostModel(CostLength); got != CostLength {
		t.Fatalf("explicit length must pass through, got %v", got)
	}

	// An instance is budgeted exactly when a budget option is set; the
	// model alone activates it at B = 0, priced as given.
	g, ps, table := budgetWorld(t, 9, 4, 0.8, 11)
	if card := budgetInstance(t, g, ps, table, 2, 0.8, Options{}); card.Budgeted() {
		t.Fatal("instance without budget options is budgeted")
	}
	for _, tc := range []struct {
		opts   Options
		budget float64
		model  CostModel
	}{
		{Options{Budget: 2}, 2, CostUnit},
		{Options{Budget: 2, CostModel: CostLength}, 2, CostLength},
		{Options{CostModel: CostLength}, 0, CostLength},
	} {
		inst := budgetInstance(t, g, ps, table, 2, 0.8, tc.opts)
		if !inst.Budgeted() || inst.Budget() != tc.budget || inst.CostModel() != tc.model {
			t.Fatalf("%+v: budgeted=%v B=%v model=%q; want B=%v model=%q",
				tc.opts, inst.Budgeted(), inst.Budget(), inst.CostModel(), tc.budget, tc.model)
		}
	}
}

// TestBudgetedSurvivableDifferential threads the knapsack budget through
// the survivable scalarization: on 8 seeds the budgeted shortcut-mode
// greedy must match an exhaustive recompute of the ratio-greedy recursion
// with the KMN fallback under the lexicographic (σ⁻, σ) objective, and
// stay byte-identical across worker counts.
func TestBudgetedSurvivableDifferential(t *testing.T) {
	const budget = 3.5
	for seed := int64(1); seed <= 8; seed++ {
		g, ps, table := budgetWorld(t, 10, 4, 0.8, seed)
		inst := budgetInstance(t, g, ps, table, 3, 0.8,
			Options{Budget: budget, CostModel: CostLength, Survive: SurviveShortcut})

		// Reference: the same cost-benefit recursion, evaluated from
		// scratch with objective (duplicates legal, each re-charged).
		var want []int
		rem := budget
		singleC, singleGain := -1, 0
		for round := 0; ; round++ {
			cur := objective(inst, want, 1)
			scratch := append([]int(nil), want...)
			bestC, bestGain := -1, 0
			bestCost := 0.0
			for c := 0; c < inst.NumCandidates(); c++ {
				gain := objective(inst, append(scratch, c), 1) - cur
				if gain <= 0 {
					continue
				}
				cost := inst.Cost(c)
				if round == 0 && cost <= budget && gain > singleGain {
					singleC, singleGain = c, gain
				}
				if cost > rem {
					continue
				}
				l, r := float64(gain)*bestCost, float64(bestGain)*cost
				if bestC < 0 || l > r || (l == r && gain > bestGain) {
					bestC, bestGain, bestCost = c, gain, cost
				}
			}
			if bestC < 0 {
				break
			}
			want = append(want, bestC)
			rem -= bestCost
		}
		if singleC >= 0 && objective(inst, []int{singleC}, 1) > objective(inst, want, 1) {
			want = []int{singleC}
		}

		serial := GreedySigma(inst, Parallelism(1))
		parallel := GreedySigma(inst, Parallelism(4))
		if !equalInts(serial.Selection, want) {
			t.Fatalf("seed=%d: budgeted survivable greedy picked %v, reference %v", seed, serial.Selection, want)
		}
		if !equalInts(parallel.Selection, serial.Selection) {
			t.Fatalf("seed=%d: parallel %v != serial %v", seed, parallel.Selection, serial.Selection)
		}
		if spent := inst.CostOf(serial.Selection); spent > budget+1e-9 {
			t.Fatalf("seed=%d: survivable placement spends %v of budget %v", seed, spent, budget)
		}
	}
}
