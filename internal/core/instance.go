// Package core implements the Maintaining Social Connections (MSC) problem
// and every placement algorithm the paper proposes.
//
// MSC (paper §III-C): given an undirected graph G with edge lengths
// l = −ln(1−p_fail), a set S of m important social pairs, a distance
// threshold d_t = −ln(1−p_t), and a budget k, place at most k zero-length
// shortcut edges F ⊆ V×V maximizing σ(F) — the number of pairs of S whose
// shortest-path distance in G ∪ F is ≤ d_t. The problem is NP-hard
// (Corollary 2) and σ is not submodular (§V-A).
//
// Algorithms provided:
//
//   - GreedySigma        — greedy maximization of σ itself (the F_σ arm).
//   - GreedyMu, GreedyNu — greedy on the submodular lower/upper bounds μ, ν.
//   - Sandwich           — the approximation algorithm AA of §V-B: best of
//     the three greedy arms, with the data-dependent ratio bound of Eq. (5).
//   - SolveCommonNode    — the (1−1/e) max-coverage greedy for MSC-CN (§IV).
//   - EA                 — GSEMO-style evolutionary algorithm (Alg. 1).
//   - AEA                — adaptive evolutionary algorithm (Alg. 2).
//   - RandomPlacement    — best-of-R random baseline (§VII-C).
//   - Exhaustive         — exact optimum by enumeration (test-sized only).
//
// All algorithms are written against the Problem interface so they apply
// unchanged to dynamic networks (§VI, internal/dynamic).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"msc/internal/bitset"
	"msc/internal/failprob"
	"msc/internal/graph"
	"msc/internal/maxcover"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
	"msc/internal/telemetry"
)

// Problem abstracts an MSC instance (single-topology or dynamic) for the
// placement algorithms. Candidates are the N = n(n−1)/2 unordered node
// pairs, identified by dense indices.
//
// Implementations must keep Sigma, Mu, Nu, and NewSearch safe for
// concurrent calls with distinct arguments: the parallel solvers evaluate
// disjoint selections from multiple goroutines (see parallel.go). Lazily
// built state must be guarded (Instance uses sync.Once for its bound
// coverage sets and σ query buffers).
type Problem interface {
	// N returns the number of nodes.
	N() int
	// NumCandidates returns the size of the candidate shortcut universe.
	NumCandidates() int
	// CandidateEdge maps a candidate index to its edge.
	CandidateEdge(i int) graph.Edge
	// CandidateIndex maps an edge to its candidate index.
	CandidateIndex(e graph.Edge) int
	// K returns the shortcut budget.
	K() int
	// MaxSigma returns the largest achievable σ (m, or Σ m_i for dynamic
	// instances).
	MaxSigma() int
	// Sigma evaluates σ on a selection of candidate indices.
	Sigma(sel []int) int
	// SigmaPar is Sigma with its per-pair distance checks sharded across
	// workers; it equals Sigma(sel) for every worker count, and workers
	// <= 1 is the serial Sigma itself.
	SigmaPar(sel []int, workers int) int
	// Mu evaluates the submodular lower bound μ (§V-B1).
	Mu(sel []int) float64
	// Nu evaluates the submodular upper bound ν (§V-B2).
	Nu(sel []int) float64
	// MuProblem returns μ as a max-coverage instance with budget k.
	MuProblem() maxcover.Problem
	// NuProblem returns ν as a weighted max-coverage instance with budget k.
	NuProblem() maxcover.Problem
	// NewSearch returns an incremental evaluator positioned at the given
	// selection (which it copies).
	NewSearch(sel []int) Search
}

// Search incrementally evaluates σ around a current selection; it is the
// workhorse of GreedySigma and AEA. A Search belongs to one goroutine:
// callers must never invoke its methods concurrently. SetWorkers only lets
// a Search fan each scan out internally, over goroutine-private scratch,
// with results identical to the serial scan (see parallel.go for the
// determinism contract).
type Search interface {
	// Sigma returns σ of the current selection.
	Sigma() int
	// Selection returns a copy of the current candidate indices.
	Selection() []int
	// Len returns the current selection size.
	Len() int
	// GainAdd returns σ(S ∪ {cand}) − σ(S) without mutating the state.
	GainAdd(cand int) int
	// BestAdd returns the candidate with the largest σ gain (ties toward
	// the lowest candidate index) and that gain.
	BestAdd() (cand, gain int)
	// GainsAdd returns σ gains for every candidate. The slice is scratch
	// state owned by the Search: it is valid until the next call and must
	// not be retained or modified.
	GainsAdd() []int
	// SigmaDrop returns σ(S \ {S[pos]}) without mutating the state.
	SigmaDrop(pos int) int
	// SigmaDrops returns σ(S \ {S[pos]}) for every selection position in
	// one sharded pass. Like GainsAdd, the slice is scratch owned by the
	// Search: valid until the next call, not to be retained or modified.
	SigmaDrops() []int
	// BestDrop returns the selection position whose removal leaves the
	// largest σ (ties toward the lowest position) and that σ.
	BestDrop() (pos, sigma int)
	// Add inserts candidate cand into the selection.
	Add(cand int)
	// RemoveAt removes the selection element at position pos.
	RemoveAt(pos int)
	// Contains reports whether cand is in the current selection.
	Contains(cand int) bool
	// SetWorkers fixes the shard count for subsequent scans (GainsAdd,
	// BestAdd, SigmaDrops, BestDrop). 1 means fully serial; n <= 0
	// resolves via ResolveParallelism.
	SetWorkers(n int)
	// SetContext installs the supervision context subsequent scans poll
	// between rows, so cancellation interrupts even one long scan; nil
	// disables polling. A canceled scan may return partial results:
	// callers check the context before using them.
	SetContext(ctx context.Context)
	// EnableScanTiming turns per-shard timing of GainsAdd scans on or
	// off. It is off by default: timing costs two clock reads per shard
	// per scan, so solvers turn it on only for a trace sink or the ops
	// plane.
	EnableScanTiming(on bool)
	// LastScanShards reports the fastest and slowest per-shard wall time
	// of the most recent timed gains scan and its shard count; zeros when
	// no timed scan has run.
	LastScanShards() (minNS, maxNS int64, shards int)
	// LastEvalStats drains the incremental evaluation's work since the
	// previous call: endpoint balls the commits' merges changed and
	// proved untouched, and pairs the gains scans covered. pairsSkipped
	// always reads 0 (every gains refresh is a cold scan) and stays for
	// the RoundEvent field it fills.
	LastEvalStats() (rowsMerged, rowsUnchanged, pairsRescanned, pairsSkipped int64)
}

// ParallelSearch, ScanTimer, ContextAware and EvalStats are other names
// for Search, and ParallelSigma for Problem.
//
// Deprecated: use Search and Problem. The names are kept for
// bench/mscperf, which spells them.
type (
	ParallelSearch = Search
	ScanTimer      = Search
	ContextAware   = Search
	EvalStats      = Search
	ParallelSigma  = Problem
)

// Instance is a single-topology MSC instance. It precomputes the all-pairs
// distance table once and derives everything else from it. Instances are
// immutable and safe for concurrent readers.
type Instance struct {
	g     *graph.Graph
	table shortestpath.DistanceSource
	ps    *pairs.Set
	thr   failprob.Threshold
	k     int

	// satisfied0 marks pairs already within d_t in the raw network.
	satisfied0 *bitset.Set

	// The pair→ball index every search shares read-only: endpoints lists
	// the distinct pair endpoints ascending (one search ball each), and
	// pairU[i], pairW[i] are the ball indices of pair i's U and W.
	endpoints    []graph.NodeID
	pairU, pairW []int32

	// mergers is the ball-merge scratch every search's rebuilds and
	// commits draw from, one merger per merge running at once.
	mergers *shortestpath.Mergers

	// Candidate indexing: candidate i ↔ unordered pair of candidate
	// nodes. By default every node may host a shortcut endpoint
	// (candNodes = 0..n-1, N = n(n−1)/2); Options.ExcludePairEndpoints
	// restricts the universe to non-pair nodes (see EXPERIMENTS.md for
	// why the paper's Tables I–II imply that restriction).
	candNodes []graph.NodeID
	candPos   []int32 // node → candidate position, -1 outside; nil when candNodes is the identity
	numCand   int

	// sparseBest makes searches aggregate sparse gain cells in BestAdd
	// instead of a dense gains array: numCand ≥ sparseGainsThreshold.
	sparseBest bool

	// survive is the resolved Options.Survive failure model; SurviveNone
	// keeps the paper's fault-free objective (survive.go).
	survive Survivability

	// Budgeted placement (cost.go): when budgeted is set, the knapsack
	// budget B under costModel replaces the cardinality budget k. costs is
	// the per-candidate price table (nil under CostUnit: every price is 1).
	budgeted  bool
	budget    float64
	costModel CostModel
	costOnce  sync.Once
	costs     []float64

	// Lazily-built per-node failure scenario instances (SurviveNode):
	// nodeInsts[v] is this instance on G−v, nodeVac[v] the constant weight
	// of pairs incident to v. Guarded like the other lazy structures.
	nodeOnce  sync.Once
	nodeInsts []*Instance
	nodeVac   []int

	// weights[i] is pair i's importance level (all 1 when unweighted);
	// totalWeight = Σ weights = MaxSigma.
	weights     []int32
	totalWeight int
	baseSigma   int

	// Lazily-built coverage problems for μ (sparse family over pairs) and
	// ν (pair-union family over pair nodes weighted ½ × multiplicity).
	// boundsOnce guards the build: parallel scans may race to the first
	// Mu/Nu call, and a bare nil-check would let two goroutines build (and
	// publish) the structures concurrently.
	boundsOnce sync.Once
	mu, nu     maxcover.Problem

	// Lazily-built flat query arrays for the sharded σ oracle, guarded for
	// the same reason as boundsOnce.
	queryOnce sync.Once
	queryU    []graph.NodeID
	queryW    []graph.NodeID

	// Memoized raw-network d_t-balls the searches compose their endpoint
	// balls from (baseBalls), one per node ever asked for.
	balls *shortestpath.Memo[shortestpath.Ball]
}

// Errors returned by NewInstance.
var (
	ErrBudget    = errors.New("core: shortcut budget must be at least 1")
	ErrPairGraph = errors.New("core: pair set node universe does not match graph")
	ErrTrivial   = errors.New("core: m <= k makes MSC trivial (connect each pair directly)")
)

// Options tune instance construction.
type Options struct {
	// AllowTrivial permits instances with m ≤ k, which the paper excludes
	// as trivial (§III-C). Tests and examples may enable it.
	AllowTrivial bool
	// Table supplies a precomputed distance source (e.g. a dense table
	// shared across thresholds, or a bounded table shared across budgets
	// at one d_t); when nil NewInstance builds a bounded d_t-ball table.
	// Placements, σ/μ/ν values, and all solver work counters except the
	// Dijkstra and row-cache ones are identical across sources.
	Table shortestpath.DistanceSource
	// DistBackend is a compatibility name: it accepts BackendAuto and
	// BackendBounded, which both select the bounded table that every
	// instance built without a Table runs on.
	DistBackend DistBackend
	// Parallelism is the worker budget of callers that carry one Options
	// value to both the instance and the solvers (the experiments read it
	// for their solver runs); NewInstance builds nothing in parallel.
	Parallelism int
	// Survive selects the failure model the objective must survive:
	// SurviveNone (the paper's fault-free σ), SurviveShortcut, or
	// SurviveNode (survive.go). Under a non-none mode NewSearch returns the
	// worst-case survivable evaluator and the solvers optimize (σ⁻, σ)
	// lexicographically; the zero value resolves to SurviveNone.
	Survive Survivability
	// ExcludePairEndpoints removes the important-pair nodes from the
	// candidate shortcut universe, so shortcuts may only land on relay
	// nodes. Under the unrestricted universe greedy-σ trivially gains one
	// pair per edge by direct connection, which the published Tables I–II
	// rule out; this option reproduces their regime. Incompatible with
	// SolveCommonNode (whose shortcuts are incident to a pair node).
	ExcludePairEndpoints bool
	// Budget, when set (or when CostModel/Costs is set), switches the
	// instance to budgeted placement: the knapsack budget B replaces the
	// cardinality budget k, and solvers charge each shortcut its CostModel
	// price. B = 0 is legal and admits only the empty placement. Negative,
	// NaN, or infinite budgets are rejected with a typed *InputError. The
	// zero value with no other budget option keeps cardinality placement.
	Budget float64
	// CostModel prices candidates on budgeted instances: CostUnit (1 per
	// shortcut, so B = k reproduces cardinality placement bit for bit),
	// CostLength (1 + D0(a,b)/d_t), or CostTable (explicit Costs). The
	// zero value resolves to CostUnit (CostTable when Costs is set).
	CostModel CostModel
	// Costs supplies the per-candidate price table for CostTable, one
	// positive entry per candidate index (+Inf marks an unaffordable
	// candidate; NaN and non-positive prices are rejected with a typed
	// *InputError). Setting Costs with CostModelAuto implies CostTable.
	Costs []float64
	// PairWeights assigns an integer importance level ≥ 1 to each pair
	// (one entry per pair, in pair-set order); σ becomes the total weight
	// of maintained pairs. Nil means every pair weighs 1 (the paper's
	// objective). An extension motivated by §VI's observation that "the
	// importance level of different social pairs may change over time":
	// the μ/ν sandwich survives weighting (weighted coverage is still
	// submodular, and a maintained pair still has both endpoints covered),
	// so every algorithm and guarantee carries over.
	PairWeights []int
}

// NewInstance validates and builds an instance.
func NewInstance(g *graph.Graph, ps *pairs.Set, thr failprob.Threshold, k int, opts *Options) (*Instance, error) {
	if k < 1 {
		return nil, ErrBudget
	}
	if ps.N() != g.N() {
		return nil, fmt.Errorf("%w: pairs over %d nodes, graph has %d", ErrPairGraph, ps.N(), g.N())
	}
	if ps.Len() <= k && (opts == nil || !opts.AllowTrivial) {
		return nil, fmt.Errorf("%w: m=%d, k=%d", ErrTrivial, ps.Len(), k)
	}
	if math.IsNaN(thr.D) {
		// A NaN d_t makes every `d <= d_t` comparison false and would
		// degenerate a bounded search into full exploration: refuse it on
		// every backend, before one is built.
		return nil, &InputError{Param: "threshold", Reason: "d_t must not be NaN"}
	}
	table, err := newDistanceSource(g, thr, opts)
	if err != nil {
		return nil, err
	}
	inst := &Instance{
		g:       g,
		table:   table,
		ps:      ps,
		thr:     thr,
		k:       k,
		mergers: shortestpath.NewMergers(g.N()),
	}
	inst.balls = shortestpath.NewMemo(func(u graph.NodeID) shortestpath.Ball {
		return shortestpath.ReadBall(table, u, thr.D)
	})
	var survOpt Survivability
	if opts != nil {
		survOpt = opts.Survive
	}
	switch sv := resolveSurvivability(survOpt); sv {
	case SurviveNone, SurviveShortcut, SurviveNode:
		inst.survive = sv
	default:
		return nil, fmt.Errorf("core: unknown survivability mode %q (want auto, none, shortcut, or node)", sv)
	}
	inst.indexEndpoints()
	if opts != nil && opts.ExcludePairEndpoints {
		isPairNode := make(map[graph.NodeID]bool, len(inst.endpoints))
		for _, v := range inst.endpoints {
			isPairNode[v] = true
		}
		inst.candPos = make([]int32, g.N())
		for v := range inst.candPos {
			inst.candPos[v] = -1
			if !isPairNode[graph.NodeID(v)] {
				inst.candPos[v] = int32(len(inst.candNodes))
				inst.candNodes = append(inst.candNodes, graph.NodeID(v))
			}
		}
		if len(inst.candNodes) < 2 {
			return nil, fmt.Errorf("core: fewer than two non-pair candidate nodes")
		}
	} else {
		inst.candNodes = make([]graph.NodeID, g.N())
		for v := range inst.candNodes {
			inst.candNodes[v] = graph.NodeID(v)
		}
	}
	inst.numCand = len(inst.candNodes) * (len(inst.candNodes) - 1) / 2
	inst.sparseBest = inst.numCand >= sparseGainsThreshold
	if err := inst.initBudget(opts); err != nil {
		return nil, err
	}
	inst.weights = make([]int32, ps.Len())
	if opts != nil && opts.PairWeights != nil {
		if len(opts.PairWeights) != ps.Len() {
			return nil, fmt.Errorf("core: %d pair weights for %d pairs", len(opts.PairWeights), ps.Len())
		}
		for i, w := range opts.PairWeights {
			if w < 1 {
				return nil, fmt.Errorf("core: pair weight %d at index %d must be >= 1", w, i)
			}
			inst.weights[i] = int32(w)
		}
	} else {
		for i := range inst.weights {
			inst.weights[i] = 1
		}
	}
	for _, w := range inst.weights {
		inst.totalWeight += int(w)
	}
	inst.satisfied0 = bitset.New(ps.Len())
	for i, p := range ps.Pairs() {
		if table.Dist(p.U, p.W) <= thr.D {
			inst.satisfied0.Add(i)
			inst.baseSigma += int(inst.weights[i])
		}
	}
	return inst, nil
}

// indexEndpoints builds the pair→ball index: the sorted distinct pair
// endpoints, and each pair's two positions in that list.
func (inst *Instance) indexEndpoints() {
	inst.endpoints = inst.ps.Nodes()
	m := inst.ps.Len()
	inst.pairU = make([]int32, m)
	inst.pairW = make([]int32, m)
	for i, p := range inst.ps.Pairs() {
		u, _ := slices.BinarySearch(inst.endpoints, p.U)
		w, _ := slices.BinarySearch(inst.endpoints, p.W)
		inst.pairU[i], inst.pairW[i] = int32(u), int32(w)
	}
}

// MustNewInstance is NewInstance but panics on error.
func MustNewInstance(g *graph.Graph, ps *pairs.Set, thr failprob.Threshold, k int, opts *Options) *Instance {
	inst, err := NewInstance(g, ps, thr, k, opts)
	if err != nil {
		panic(err)
	}
	return inst
}

// Graph returns the underlying network.
func (inst *Instance) Graph() *graph.Graph { return inst.g }

// Table returns the instance's distance source: the supplied
// Options.Table, else the bounded d_t-ball table.
func (inst *Instance) Table() shortestpath.DistanceSource { return inst.table }

// Pairs returns the important social pairs.
func (inst *Instance) Pairs() *pairs.Set { return inst.ps }

// Threshold returns the connectivity requirement.
func (inst *Instance) Threshold() failprob.Threshold { return inst.thr }

// K returns the shortcut budget.
func (inst *Instance) K() int { return inst.k }

// N returns the number of nodes.
func (inst *Instance) N() int { return inst.g.N() }

// MaxSigma returns the largest achievable σ: the total pair weight, which
// is m when unweighted.
func (inst *Instance) MaxSigma() int { return inst.totalWeight }

// BaseSigma returns σ(∅): the weight of pairs already satisfied by the
// raw network.
func (inst *Instance) BaseSigma() int { return inst.baseSigma }

// PairWeight returns pair i's importance level (1 when unweighted).
func (inst *Instance) PairWeight(i int) int { return int(inst.weights[i]) }

// NumCandidates returns the candidate-universe size: t(t−1)/2 for t
// candidate nodes (t = n unless ExcludePairEndpoints was set).
func (inst *Instance) NumCandidates() int { return inst.numCand }

// CandidateNodes returns the nodes allowed to host shortcut endpoints.
// Callers must not modify the slice.
func (inst *Instance) CandidateNodes() []graph.NodeID { return inst.candNodes }

// CandidateEdge maps a dense candidate index to its unordered node pair,
// using the standard row-major triangular encoding over candidate nodes.
func (inst *Instance) CandidateEdge(i int) graph.Edge {
	e := candidateEdge(len(inst.candNodes), i)
	if inst.candPos == nil {
		return e
	}
	return graph.Edge{U: inst.candNodes[e.U], V: inst.candNodes[e.V]}.Canon()
}

// CandidateIndex maps an edge to its candidate index. It panics when an
// endpoint is outside the candidate universe (e.g. a pair node under
// ExcludePairEndpoints).
func (inst *Instance) CandidateIndex(e graph.Edge) int {
	if inst.candPos == nil {
		return candidateIndex(len(inst.candNodes), e)
	}
	pu, pv := inst.candPos[e.U], inst.candPos[e.V]
	if pu < 0 || pv < 0 {
		panic(fmt.Sprintf("core: edge (%d,%d) outside restricted candidate universe", e.U, e.V))
	}
	return candidateIndex(len(inst.candNodes), graph.Edge{U: graph.NodeID(pu), V: graph.NodeID(pv)})
}

func candidateEdge(n, i int) graph.Edge {
	if i < 0 || i >= n*(n-1)/2 {
		panic(fmt.Sprintf("core: candidate index %d out of range for n=%d", i, n))
	}
	// Find u = largest row with rowStart(u) <= i, where
	// rowStart(u) = u*n - u*(u+1)/2 counts pairs before row u.
	// Solve quadratically, then correct for rounding.
	fn := float64(n)
	u := int(math.Floor((2*fn - 1 - math.Sqrt((2*fn-1)*(2*fn-1)-8*float64(i))) / 2))
	for rowStart(n, u+1) <= i {
		u++
	}
	for u > 0 && rowStart(n, u) > i {
		u--
	}
	v := u + 1 + (i - rowStart(n, u))
	return graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v)}
}

func candidateIndex(n int, e graph.Edge) int {
	c := e.Canon()
	u, v := int(c.U), int(c.V)
	if u < 0 || v >= n || u == v {
		panic(fmt.Sprintf("core: edge (%d,%d) out of range for n=%d", e.U, e.V, n))
	}
	return rowStart(n, u) + (v - u - 1)
}

// rowStart returns the number of unordered pairs (a,b), a<b, with a < u.
func rowStart(n, u int) int { return u*n - u*(u+1)/2 }

// NumCandidatesFor returns the candidate-universe size of an n-node
// instance with the unrestricted universe: n(n−1)/2.
func NumCandidatesFor(n int) int { return n * (n - 1) / 2 }

// CandidateIndexFor maps an edge to its dense candidate index in the
// unrestricted universe of an n-node instance, without an instance in hand
// (e.g. to build Options.Costs from a graphio cost table before
// NewInstance runs). It panics on out-of-range endpoints, like
// Instance.CandidateIndex.
func CandidateIndexFor(n int, e graph.Edge) int { return candidateIndex(n, e) }

// SelectionEdges converts candidate indices to edges.
func SelectionEdges(p Problem, sel []int) []graph.Edge {
	out := make([]graph.Edge, len(sel))
	for i, c := range sel {
		out[i] = p.CandidateEdge(c)
	}
	return out
}

// EdgeSelection converts edges to candidate indices.
func EdgeSelection(p Problem, es []graph.Edge) []int {
	out := make([]int, len(es))
	for i, e := range es {
		out[i] = p.CandidateIndex(e)
	}
	return out
}

// Sigma evaluates σ(F) for the selection via the shortcut-overlay oracle:
// the total weight of pairs within d_t in G ∪ F.
func (inst *Instance) Sigma(sel []int) int {
	telemetry.Global().SigmaEvals.Add(1)
	if len(sel) == 0 {
		return inst.baseSigma
	}
	ov := shortestpath.NewOverlay(inst.table, SelectionEdges(inst, sel))
	total := 0
	for i, p := range inst.ps.Pairs() {
		if ov.Dist(p.U, p.W) <= inst.thr.D {
			total += int(inst.weights[i])
		}
	}
	return total
}

// fullRow returns u's exact, untruncated distance row in the raw network,
// read from u's side. A table with full rows (a supplied dense one) serves
// its own row; otherwise — a bounded table reads +Inf beyond d_t — it
// runs one plain Dijkstra, whose row the caller holds only while it needs
// it. Both give the same bits: a dense table's rows are those Dijkstras.
// The length prices and the report's failure probabilities read it.
func (inst *Instance) fullRow(u graph.NodeID) []float64 {
	if _, sparse := inst.table.(shortestpath.SparseSource); sparse {
		return shortestpath.Dijkstra(inst.g, u)
	}
	return inst.table.Row(u)
}

// baseBall returns u's d_t-ball in the raw network, read from the distance
// source on first use (shortestpath.ReadBall: the bounded backend's cached
// ball itself, a dense row filtered once) and memoized on the
// instance. Safe for concurrent use; every caller sees the same immutable
// ball.
func (inst *Instance) baseBall(u graph.NodeID) shortestpath.Ball {
	b, _ := inst.balls.Get(u)
	return b
}

// baseBallSource adapts Instance.baseBall to shortestpath.BallSource.
type baseBallSource struct{ inst *Instance }

func (b baseBallSource) Ball(u graph.NodeID) shortestpath.Ball { return b.inst.baseBall(u) }

// baseBalls returns the instance's memoized raw-network d_t-balls as the
// source the overlay composes search balls from.
func (inst *Instance) baseBalls() shortestpath.BallSource { return baseBallSource{inst} }

// SigmaEdges is Sigma for an explicit edge set.
func (inst *Instance) SigmaEdges(es []graph.Edge) int {
	return inst.Sigma(EdgeSelection(inst, es))
}

// SigmaPar is Sigma with the per-pair distance checks sharded across
// workers through the shortestpath.Evaluator. The overlay is built once
// and read-only afterward, and per-shard weights sum exactly, so
// SigmaPar(sel, w) == Sigma(sel) for every worker count.
func (inst *Instance) SigmaPar(sel []int, workers int) int {
	if workers <= 1 || len(sel) == 0 {
		return inst.Sigma(sel)
	}
	telemetry.Global().SigmaEvals.Add(1)
	inst.queryOnce.Do(func() {
		ps := inst.ps.Pairs()
		inst.queryU = make([]graph.NodeID, len(ps))
		inst.queryW = make([]graph.NodeID, len(ps))
		for i, p := range ps {
			inst.queryU[i] = p.U
			inst.queryW[i] = p.W
		}
	})
	ov := shortestpath.NewOverlay(inst.table, SelectionEdges(inst, sel))
	ev := shortestpath.NewEvaluator(ov, workers)
	return ev.CountWithin(inst.queryU, inst.queryW, inst.weights, inst.thr.D)
}
