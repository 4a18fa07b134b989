// Package msc maintains social connections in wireless networks by placing
// reliable "shortcut" links, implementing Qiu, Ma & Cao, "Maintaining
// Social Connections through Direct Link Placement in Wireless Networks"
// (ICDCS 2019).
//
// # The problem
//
// A wireless network is an undirected graph whose links fail independently
// with known probabilities. Among all node pairs, a set S of m important
// social pairs (commander↔squad leaders, control center↔rescue teams) must
// stay connected: each pair needs some path whose end-to-end failure
// probability is at most a threshold p_t. When the raw network cannot
// provide that, up to k reliable zero-failure links (satellite or UAV
// links — "shortcut edges") may be added anywhere. The MSC problem asks
// for the placement of at most k shortcuts maximizing the number of
// maintained pairs. It is NP-hard, and its objective σ is not submodular.
//
// # Quick start
//
//	b := msc.NewGraphBuilder(4)
//	b.AddEdge(0, 1, msc.LengthFromProb(0.3))
//	b.AddEdge(1, 2, msc.LengthFromProb(0.3))
//	b.AddEdge(2, 3, msc.LengthFromProb(0.3))
//	g, _ := b.Build()
//	ps, _ := msc.NewPairSet(4, []msc.Pair{{U: 0, W: 3}, {U: 1, W: 3}, {U: 0, W: 2}})
//	inst, _ := msc.NewInstance(g, ps, msc.NewThreshold(0.25), 1, nil)
//	res := msc.Sandwich(inst)
//	fmt.Println(res.Best) // placed shortcuts and maintained pairs
//
// # Algorithms
//
//   - Sandwich (AA): the paper's approximation algorithm — greedy runs on
//     two submodular bounds μ ≤ σ ≤ ν plus σ itself, best-of-three, with a
//     data-dependent approximation guarantee (Eq. 5).
//   - GreedySigma / GreedyMu / GreedyNu: the individual arms.
//   - SolveCommonNode: the (1−1/e) max-coverage greedy for the MSC-CN
//     special case where all pairs share a node (§IV).
//   - EA: the GSEMO-style evolutionary algorithm (Algorithm 1).
//   - AEA: the adaptive evolutionary algorithm (Algorithm 2).
//   - RandomPlacement: the best-of-R random baseline.
//   - Exhaustive: exact optimum by enumeration (small instances).
//
// All algorithms accept the Problem interface, so they run unchanged on
// dynamic networks (a series of topologies sharing one placement, §VI) via
// NewDynamicProblem.
//
// This facade re-exports the library's core types; the heavy lifting lives
// in the internal packages (see DESIGN.md for the map).
package msc

import (
	"context"
	"io"
	"time"

	"msc/internal/core"
	"msc/internal/dynamic"
	"msc/internal/failprob"
	"msc/internal/graph"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
	"msc/internal/telemetry"
	"msc/internal/xrand"
)

// Core model types.
type (
	// Graph is an immutable weighted undirected network; edge lengths are
	// −ln(1−p_fail). Build with NewGraphBuilder.
	Graph = graph.Graph
	// GraphBuilder accumulates edges and produces a Graph.
	GraphBuilder = graph.Builder
	// Edge is an undirected edge or shortcut, canonical with U < V.
	Edge = graph.Edge
	// NodeID identifies a node (dense ids 0..N-1).
	NodeID = graph.NodeID
	// Pair is an important social pair.
	Pair = pairs.Pair
	// PairSet is a validated set of important social pairs.
	PairSet = pairs.Set
	// Threshold is the connectivity requirement in both its probability
	// (p_t) and distance (d_t) forms.
	Threshold = failprob.Threshold
	// DistanceSource abstracts shortest-path access: a dense DistanceTable
	// or a BoundedDistanceTable; InstanceOptions.Table accepts either.
	DistanceSource = shortestpath.DistanceSource
	// DistanceTable is an eagerly materialized all-pairs shortest-path
	// table.
	DistanceTable = shortestpath.Table
	// BoundedDistanceTable computes bounded-reach Dijkstra balls on demand
	// and memoizes them: per-row memory scales with the d_t-ball, not
	// with n. Distances within the reach are exact and distances beyond it
	// read +Inf — indistinguishable for any consumer that only compares
	// distances against a threshold ≤ reach, which is all the MSC solvers
	// ever do.
	BoundedDistanceTable = shortestpath.BoundedTable
	// BoundedTableOptions tune a BoundedDistanceTable (its reach).
	BoundedTableOptions = shortestpath.BoundedOptions
	// SparseDistanceRow is a distance row truncated at a bound, as
	// returned by BoundedDistanceTable.SparseRow: sorted node ids with
	// their exact distances; absent nodes read +Inf.
	SparseDistanceRow = shortestpath.Ball
	// DistBackend names the distance backend of an instance built without
	// a supplied table. Every such instance runs on the bounded d_t-ball
	// table, so BackendAuto and BackendBounded select the same thing; the
	// names are kept for compatibility.
	DistBackend = core.DistBackend
	// Survivability selects the failure model an instance optimizes
	// against: SurviveNone, SurviveShortcut, or SurviveNode.
	Survivability = core.Survivability
	// CostModel selects how candidate shortcuts are priced under a
	// knapsack budget: CostUnit, CostLength, or CostTable.
	CostModel = core.CostModel
	// Rand is the deterministic randomness source used by the randomized
	// algorithms and generators.
	Rand = xrand.Rand
)

// Problem-and-solver types.
type (
	// Instance is a single-topology MSC instance.
	Instance = core.Instance
	// InstanceOptions tune instance construction.
	InstanceOptions = core.Options
	// Problem abstracts single-topology and dynamic instances.
	Problem = core.Problem
	// Search is the incremental σ evaluator used by custom heuristics. Its
	// scans shard across workers after SetWorkers, with results identical
	// to a serial scan.
	Search = core.Search
	// Placement is a set of shortcut edges with its σ value.
	Placement = core.Placement
	// SandwichResult reports the approximation algorithm with its bound.
	SandwichResult = core.SandwichResult
	// CommonNodeResult reports the MSC-CN greedy.
	CommonNodeResult = core.CommonNodeResult
	// EAOptions tune EA; EAResult reports it.
	EAOptions = core.EAOptions
	// EAResult reports an EA run.
	EAResult = core.EAResult
	// AEAOptions tune AEA; AEAResult reports it.
	AEAOptions = core.AEAOptions
	// AEAResult reports an AEA run.
	AEAResult = core.AEAResult
	// DynamicProblem evaluates one placement against a topology series.
	DynamicProblem = dynamic.Problem
	// Option configures a solver entry point (e.g. Parallelism).
	Option = core.Option
	// StopReason classifies why a solver run ended.
	StopReason = core.StopReason
	// StopInfo reports how a run ended (reason, rounds, σ); solvers attach
	// it to Placement.Stop.
	StopInfo = core.StopInfo
	// ShardPanicError is the typed panic value a failing parallel-scan
	// shard surfaces on the caller's goroutine.
	ShardPanicError = core.ShardPanicError
	// InputError reports a structurally invalid solver argument.
	InputError = core.InputError
	// WorstCaseProblem extends Problem with the worst-case objective σ⁻
	// of survivable instances.
	WorstCaseProblem = core.WorstCaseProblem
	// BudgetProblem extends Problem with the knapsack budget and candidate
	// prices of budget-weighted instances (InstanceOptions.Budget).
	BudgetProblem = core.BudgetProblem
	// Checkpoint snapshots a resumable EA/AEA run at an iteration
	// boundary; see EAOptions.Resume / AEAOptions.Resume.
	Checkpoint = telemetry.CheckpointEvent
	// CheckpointSolution is one archived solution inside a Checkpoint.
	CheckpointSolution = telemetry.CheckpointSolution
)

// Stop reasons attached to Placement.Stop by supervised solver runs.
const (
	StopConverged  = core.StopConverged
	StopDeadline   = core.StopDeadline
	StopCanceled   = core.StopCanceled
	StopEvalBudget = core.StopEvalBudget
)

// Distance backend names accepted by InstanceOptions.DistBackend. Both
// select the bounded d_t-ball table, which every instance built without
// InstanceOptions.Table runs on; a dense table (NewDistanceTable) reaches
// an instance only through InstanceOptions.Table, and placements and
// σ/μ/ν are identical on either. The names are kept for compatibility.
const (
	BackendAuto    = core.BackendAuto
	BackendBounded = core.BackendBounded
)

// Survivability modes selectable via InstanceOptions.Survive. SurviveAuto
// (the zero value) resolves to SurviveNone. Under SurviveShortcut or SurviveNode the
// solvers maximize the worst-case σ⁻ over all single shortcut or node
// failures, breaking ties by fault-free σ; see DESIGN.md §11.
const (
	SurviveAuto     = core.SurviveAuto
	SurviveNone     = core.SurviveNone
	SurviveShortcut = core.SurviveShortcut
	SurviveNode     = core.SurviveNode
)

// Cost models selectable via InstanceOptions.CostModel. CostModelAuto (the
// zero value) resolves to CostUnit. A knapsack budget B (InstanceOptions.Budget) replaces
// the cardinality budget k whenever any budget option is set; unit-cost
// runs with B = k are bit-for-bit identical to cardinality-k runs. See
// DESIGN.md §12.
const (
	CostModelAuto = core.CostModelAuto
	CostUnit      = core.CostUnit
	CostLength    = core.CostLength
	CostTable     = core.CostTable
)

// Parallelism fixes the number of candidate-scan workers a solver may use:
// 1 restores the fully serial code path, n <= 0 (or omitting the option)
// selects runtime.GOMAXPROCS(0). Placements are identical for every worker
// count — the parallel scans reduce deterministically (see DESIGN.md).
func Parallelism(n int) Option { return core.Parallelism(n) }

// WithContext makes a solver run cancelable: when ctx is canceled the
// solver stops at its next supervision point and returns the best
// feasible placement found so far, with Placement.Stop reporting why and
// how far it got. A nil or never-canceled context changes nothing — the
// placement is bit-identical to an unsupervised run.
func WithContext(ctx context.Context) Option { return core.WithContext(ctx) }

// WithDeadline bounds a solver run's wall-clock time; d <= 0 means no
// deadline. Combines with WithContext (whichever fires first stops the
// run).
func WithDeadline(d time.Duration) Option { return core.WithDeadline(d) }

// NewRandFromState rebuilds a Rand at a previously captured (seed, draws)
// state; used by checkpoint resume. See Rand.State.
func NewRandFromState(seed int64, draws uint64) *Rand { return xrand.NewFromState(seed, draws) }

// LastCheckpoint scans a telemetry JSONL stream (e.g. the file written by
// mscplace -checkpoint) and returns its final checkpoint event, from
// which an EA or AEA run can resume.
func LastCheckpoint(r io.Reader) (*Checkpoint, error) { return telemetry.LastCheckpoint(r) }

// NewGraphBuilder returns a builder for a network with n nodes.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// LengthFromProb converts a link failure probability p ∈ [0, 1) to the
// edge length −ln(1−p) used by Graph.
func LengthFromProb(p float64) float64 { return failprob.LengthFromProb(p) }

// ProbFromLength converts a path length back to its failure probability.
func ProbFromLength(l float64) float64 { return failprob.ProbFromLength(l) }

// NewThreshold builds the connectivity requirement from a failure
// probability bound p_t ∈ [0, 1).
func NewThreshold(pt float64) Threshold { return failprob.NewThreshold(pt) }

// NewPairSet validates and builds the important social pairs for an
// n-node network.
func NewPairSet(n int, ps []Pair) (*PairSet, error) { return pairs.NewSet(n, ps) }

// NewDistanceTable precomputes all-pairs shortest paths; share it across
// instances with different thresholds via InstanceOptions.Table.
func NewDistanceTable(g *Graph) *DistanceTable { return shortestpath.NewTable(g, 0) }

// NewBoundedDistanceTable wraps g in a bounded-reach sparse distance
// source: rows hold only the nodes within opts.Reach of the source, and
// everything beyond reads +Inf. Share it across instances whose d_t is at
// most the reach via InstanceOptions.Table.
func NewBoundedDistanceTable(g *Graph, opts BoundedTableOptions) (*BoundedDistanceTable, error) {
	return shortestpath.NewBoundedTable(g, opts)
}

// RowBytesResident reports the bytes of distance-row payload currently
// resident across every row cache in the process (bounded sparse rows and
// the dense rows materialized from them) — the msc_row_bytes_resident
// gauge as a plain value.
func RowBytesResident() int64 { return shortestpath.RowBytesResident() }

// ParseDistBackend validates a -dist-backend flag value: "auto" and
// "bounded" both select the bounded table; "dense" is refused, since the
// dense backend was removed.
func ParseDistBackend(s string) (DistBackend, error) { return core.ParseDistBackend(s) }

// ParseSurvivability validates a -survive flag value ("auto", "none",
// "shortcut", "node").
func ParseSurvivability(s string) (Survivability, error) { return core.ParseSurvivability(s) }

// WithSurvivability returns instance options selecting the failure model
// the objective must survive — shorthand for the common
// NewInstance(..., &InstanceOptions{Survive: mode}) call.
func WithSurvivability(mode Survivability) *InstanceOptions {
	return &InstanceOptions{Survive: mode}
}

// WithBudget returns instance options replacing the cardinality budget k
// with a knapsack budget B priced by the given cost model — shorthand for
// the common NewInstance(..., &InstanceOptions{Budget: b, CostModel: m})
// call.
func WithBudget(b float64, m CostModel) *InstanceOptions {
	return &InstanceOptions{Budget: b, CostModel: m}
}

// ParseCostModel validates a -cost-model flag value ("auto", "unit",
// "length", "table").
func ParseCostModel(s string) (CostModel, error) { return core.ParseCostModel(s) }

// NumCandidatesFor returns the size n(n−1)/2 of the candidate-shortcut
// universe of an n-node instance — the length InstanceOptions.Costs must
// have.
func NumCandidatesFor(n int) int { return core.NumCandidatesFor(n) }

// CandidateIndexFor returns the candidate index of the shortcut edge e in
// an n-node instance's enumeration; use it to address InstanceOptions.Costs
// entries by endpoint pair.
func CandidateIndexFor(n int, e Edge) int { return core.CandidateIndexFor(n, e) }

// SampleViolatingPairs randomly picks m pairs whose current best path
// violates the distance threshold — the paper's evaluation setup
// (§VII-A3).
func SampleViolatingPairs(t DistanceSource, thr Threshold, m int, rng *Rand) (*PairSet, error) {
	return pairs.SampleViolating(t, thr.D, m, rng)
}

// SampleViolatingPairsRandom draws m distinct threshold-violating pairs
// by rejection sampling point distance queries instead of enumerating
// all ~n²/2 candidates — same uniform distribution over violating pairs
// as SampleViolatingPairs, but each trial costs one Dist call, so it
// composes with the bounded backend at 10³–10⁶ nodes. It fails
// after 1000·m unproductive draws, the regime where violating pairs are
// rare and the exhaustive sampler is the right tool.
func SampleViolatingPairsRandom(t DistanceSource, thr Threshold, m int, rng *Rand) (*PairSet, error) {
	return pairs.SampleViolatingRandom(t, thr.D, m, rng, 0)
}

// NewInstance validates and builds a single-topology MSC instance with
// shortcut budget k. opts may be nil.
func NewInstance(g *Graph, ps *PairSet, thr Threshold, k int, opts *InstanceOptions) (*Instance, error) {
	return core.NewInstance(g, ps, thr, k, opts)
}

// NewDynamicProblem bundles per-time-instance MSC instances into a dynamic
// problem (§VI): one placement, objective Σ_i σ_i.
func NewDynamicProblem(insts []*Instance) (*DynamicProblem, error) {
	return dynamic.NewProblem(insts)
}

// NewRand returns a deterministic randomness source for the randomized
// algorithms; equal seeds reproduce runs exactly.
func NewRand(seed int64) *Rand { return xrand.New(seed) }

// Sandwich runs the paper's approximation algorithm (AA): best of the
// greedy placements for μ, σ, and ν, with the data-dependent bound of
// Eq. (5).
func Sandwich(p Problem, opts ...Option) SandwichResult { return core.Sandwich(p, opts...) }

// GreedySigma greedily maximizes σ directly (the F_σ arm).
func GreedySigma(p Problem, opts ...Option) Placement { return core.GreedySigma(p, opts...) }

// GreedyMu greedily maximizes the submodular lower bound μ.
func GreedyMu(p Problem) Placement { return core.GreedyMu(p) }

// GreedyNu greedily maximizes the submodular upper bound ν.
func GreedyNu(p Problem) Placement { return core.GreedyNu(p) }

// SolveCommonNode runs the (1−1/e)-approximate max-coverage greedy for
// instances whose pairs all share a common node (MSC-CN, §IV).
func SolveCommonNode(inst *Instance) (CommonNodeResult, error) {
	return core.SolveCommonNode(inst)
}

// EA runs the evolutionary algorithm of §V-C (Algorithm 1).
func EA(p Problem, opts EAOptions, rng *Rand) EAResult { return core.EA(p, opts, rng) }

// AEA runs the adaptive evolutionary algorithm of §V-D (Algorithm 2).
func AEA(p Problem, opts AEAOptions, rng *Rand) AEAResult { return core.AEA(p, opts, rng) }

// DefaultAEAOptions mirror the paper's evaluation settings (r=500, l=10,
// δ=0.05).
func DefaultAEAOptions() AEAOptions { return core.DefaultAEAOptions() }

// RandomPlacement returns the best of `trials` uniform random placements —
// the baseline of §VII-C. It rejects trials < 1 and budgets exceeding the
// candidate universe with a typed *InputError.
func RandomPlacement(p Problem, trials int, rng *Rand, opts ...Option) (Placement, error) {
	return core.RandomPlacement(p, trials, rng, opts...)
}

// Exhaustive computes the exact optimum by enumeration; exponential, for
// small instances (maxEvals caps the σ evaluations).
func Exhaustive(p Problem, maxEvals int, opts ...Option) (Placement, error) {
	return core.Exhaustive(p, maxEvals, opts...)
}

// ExhaustiveBudget computes the exact optimal budget-feasible placement of
// a budgeted problem by enumerating every selection whose total cost fits
// the budget; exponential, for small instances (maxEvals caps the σ
// evaluations).
func ExhaustiveBudget(p Problem, maxEvals int, opts ...Option) (Placement, error) {
	return core.ExhaustiveBudget(p, maxEvals, opts...)
}

// SelectionEdges converts a solver's candidate-index selection to edges.
func SelectionEdges(p Problem, sel []int) []Edge { return core.SelectionEdges(p, sel) }

// Diagnostics and refinement (library extensions beyond the paper).
type (
	// PairStatus is the per-pair diagnostic of a placement.
	PairStatus = core.PairStatus
	// PlacementSummary condenses pair statuses into counts.
	PlacementSummary = core.Summary
	// LocalSearchOptions tune the swap-refinement pass.
	LocalSearchOptions = core.LocalSearchOptions
)

// Report evaluates a placement pair by pair: failure probability before
// and after, whether the pair is maintained, and whether a shortcut is
// responsible.
func Report(inst *Instance, sel []int) []PairStatus { return inst.Report(sel) }

// SummarizeReport aggregates pair statuses into counts.
func SummarizeReport(statuses []PairStatus) PlacementSummary { return core.Summarize(statuses) }

// FormatReport renders pair statuses as an aligned table, worst first.
func FormatReport(statuses []PairStatus) string { return core.FormatReport(statuses) }

// GreedySigmaCurve returns σ after each successive greedy shortcut
// (curve[0] = baseline): the marginal value of every unit of budget.
func GreedySigmaCurve(p Problem, opts ...Option) []int { return core.GreedySigmaCurve(p, opts...) }

// LocalSearch refines a placement by best-improvement (drop, add) swaps
// until a swap-local optimum; it never returns a worse placement.
func LocalSearch(p Problem, start []int, opts LocalSearchOptions) Placement {
	return core.LocalSearch(p, start, opts)
}

// Telemetry (see internal/telemetry and the DESIGN.md telemetry section):
// work counters accumulated by the solver stack, and typed trace events
// streamed to a sink. A nil sink is free; attaching one never changes any
// placement.
type (
	// TelemetrySink receives trace events; nil means telemetry off.
	TelemetrySink = telemetry.Sink
	// TelemetryEvent is one typed trace event.
	TelemetryEvent = telemetry.Event
	// JSONLSink serializes events as one JSON object per line.
	JSONLSink = telemetry.JSONLSink
	// AtomicJSONLSink is the crash-safe JSONLSink for checkpoint files:
	// every Emit rewrites the file via temp-file + fsync + rename, so the
	// on-disk stream is never torn mid-line.
	AtomicJSONLSink = telemetry.AtomicJSONLSink
	// FanoutSink multiplexes one event stream to attached sinks and live
	// channel subscribers (the ops server's /events stream).
	FanoutSink = telemetry.FanoutSink
	// RingSink keeps the last N events for flight-recorder dumps.
	RingSink = telemetry.RingSink
	// RoundEvent traces one committed solver round.
	RoundEvent = telemetry.RoundEvent
	// SandwichEvent summarizes the three sandwich arms and the bound.
	SandwichEvent = telemetry.SandwichEvent
	// DynamicStepEvent traces one committed shortcut on a dynamic problem.
	DynamicStepEvent = telemetry.DynamicStepEvent
	// RunRecord is the schema-stable end-of-run summary the commands emit.
	RunRecord = telemetry.RunRecord
	// CounterSnapshot is a point-in-time copy of the work counters.
	CounterSnapshot = telemetry.CounterSnapshot
)

// NewJSONLSink returns a sink writing one JSON object per event line to w;
// Emit is safe for concurrent use and the first write error is sticky
// (check Err after the run).
func NewJSONLSink(w io.Writer) *JSONLSink { return telemetry.NewJSONL(w) }

// NewAtomicJSONLSink returns a crash-safe sink that atomically rewrites
// path on every event (temp file + fsync + rename). Use it for checkpoint
// streams, where a torn final line would scrap the resume; keep
// NewJSONLSink for hot per-round traces.
func NewAtomicJSONLSink(path string) *AtomicJSONLSink { return telemetry.NewAtomicJSONL(path) }

// NewFanoutSink returns an empty event fanout; attach sinks and subscribe
// live consumers, then pass it wherever a TelemetrySink goes.
func NewFanoutSink() *FanoutSink { return telemetry.NewFanout() }

// NewRingSink returns a flight-recorder ring holding the last n events.
func NewRingSink(n int) *RingSink { return telemetry.NewRing(n) }

// WithSink attaches a telemetry sink to a solver entry point; per-round
// trace events stream to it. Placements are byte-identical with and
// without a sink.
func WithSink(s TelemetrySink) Option { return core.WithSink(s) }

// CountersSnapshot copies the process-wide solver work counters (Dijkstra
// runs, edge relaxations, candidate/σ/μ/ν evaluations, overlay activity).
// Snapshot before and after a run and Sub the two to cost it; totals are
// identical at every worker count.
func CountersSnapshot() CounterSnapshot { return telemetry.Global().Snapshot() }

// ResetCounters zeroes the process-wide solver work counters.
func ResetCounters() { telemetry.Global().Reset() }
