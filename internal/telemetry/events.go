package telemetry

// Event is a typed telemetry payload. EventKind returns the stable "event"
// discriminator value the JSONL encoding leads with; the set of kinds is
// part of the run-record schema consumed by CI and BENCH aggregation.
type Event interface {
	EventKind() string
}

// RoundEvent traces one round of an iterative placement algorithm: one
// greedy round of GreedySigma, one iteration of EA/AEA, one swap of
// LocalSearch. σ/μ/ν values let a trace reconstruct the sandwich-bound
// trajectory; the per-shard wall-clock extrema expose load imbalance in
// the parallel candidate scans.
type RoundEvent struct {
	// Algorithm identifies the emitter: "greedy_sigma", "ea", "aea",
	// "local_search".
	Algorithm string `json:"algorithm"`
	// Round is the 0-based round (or iteration) index.
	Round int `json:"round"`
	// Shortcut is the edge chosen this round (endpoint node ids), nil when
	// the round chose none (e.g. a rejected EA offspring).
	Shortcut *[2]int32 `json:"shortcut,omitempty"`
	// Gain is the σ improvement over the state the round started from.
	Gain int `json:"gain"`
	// Sigma is σ of the algorithm's incumbent after the round.
	Sigma int `json:"sigma"`
	// SigmaWorst is the survivable worst-case σ⁻ of the incumbent after the
	// round; nil for fault-free runs (core.SurviveNone). When set, Gain is
	// measured on the lexicographic objective (σ⁻, σ), not on σ alone.
	SigmaWorst *int `json:"sigma_worst,omitempty"`
	// Selected is the incumbent selection size after the round.
	Selected int `json:"selected"`
	// Candidates is the number of candidate evaluations this round scanned
	// (0 for rounds that evaluate whole selections instead).
	Candidates int `json:"candidates"`
	// Mu and Nu are the sandwich bounds of the incumbent selection, when
	// the emitter computes them (greedy, EA, AEA and local-search rounds);
	// both 0 otherwise.
	Mu float64 `json:"mu"`
	Nu float64 `json:"nu"`
	// ElapsedNS is the wall-clock time of the round.
	ElapsedNS int64 `json:"elapsed_ns"`
	// ShardMinNS/ShardMaxNS are the fastest and slowest per-shard wall
	// times of the round's sharded candidate scan, and Shards the shard
	// count; all 0 when the round ran no instrumented scan.
	ShardMinNS int64 `json:"shard_min_ns"`
	ShardMaxNS int64 `json:"shard_max_ns"`
	Shards     int   `json:"shards"`
	// Incremental-evaluation work of the round (Search.LastEvalStats):
	// RowsMerged/RowsUnchanged split the endpoint distance rows by whether
	// the committed shortcut's O(n) merge changed them (both 0 on the
	// rebuild evaluation path); PairsRescanned counts the pairs the round's
	// gains scans covered. PairsSkipped always reads 0: every gains refresh
	// is a cold scan of all unsatisfied pairs, so none is carried over. It
	// is kept for the readers of the pairs_skipped field. All 0 for
	// emitters without incremental state.
	RowsMerged     int64 `json:"rows_merged"`
	RowsUnchanged  int64 `json:"rows_unchanged"`
	PairsRescanned int64 `json:"pairs_rescanned"`
	PairsSkipped   int64 `json:"pairs_skipped"`
}

// EventKind implements Event.
func (RoundEvent) EventKind() string { return "round" }

// SandwichEvent summarizes a Sandwich (approximation algorithm AA) run:
// the three greedy arms, the winner, and the data-dependent bound.
type SandwichEvent struct {
	// SigmaMu, SigmaSigma, SigmaNu are σ of the three greedy arms.
	SigmaMu    int `json:"sigma_mu"`
	SigmaSigma int `json:"sigma_sigma"`
	SigmaNu    int `json:"sigma_nu"`
	// Best names the winning arm: "mu", "sigma", or "nu".
	Best string `json:"best"`
	// Sigma is σ of the winning placement.
	Sigma int `json:"sigma"`
	// SigmaWorst is σ⁻ of the winning placement under the problem's
	// survivability mode; nil for fault-free runs. Survivable runs pick the
	// winner lexicographically by (σ⁻, σ) instead of by σ.
	SigmaWorst *int `json:"sigma_worst,omitempty"`
	// Ratio is σ(F_σ)/ν(F_σ) and ApproxFactor is Ratio·(1−1/e) — the
	// computable guarantee of Eq. (5).
	Ratio        float64 `json:"ratio"`
	ApproxFactor float64 `json:"approx_factor"`
	NuAtFSigma   float64 `json:"nu_at_f_sigma"`
	// ElapsedNS is the wall-clock time of the whole sandwich run.
	ElapsedNS int64 `json:"elapsed_ns"`
}

// EventKind implements Event.
func (SandwichEvent) EventKind() string { return "sandwich" }

// DynamicStepEvent is emitted by the dynamic problem each time a solver
// commits a shortcut: the per-time-instance σ breakdown of the new
// selection, exposing which time instances a shortcut serves.
type DynamicStepEvent struct {
	// Shortcut is the committed edge (endpoint node ids).
	Shortcut [2]int32 `json:"shortcut"`
	// Selected is the selection size after the commit.
	Selected int `json:"selected"`
	// PerInstanceSigma holds σ_i for each time instance.
	PerInstanceSigma []int `json:"per_instance_sigma"`
	// Sigma is Σ_i σ_i.
	Sigma int `json:"sigma"`
}

// EventKind implements Event.
func (DynamicStepEvent) EventKind() string { return "dynamic_step" }

// CheckpointSolution is one archived solution inside a CheckpointEvent.
type CheckpointSolution struct {
	// Selection holds sorted candidate indices.
	Selection []int `json:"selection"`
	// Sigma is σ(Selection).
	Sigma int `json:"sigma"`
}

// CheckpointEvent snapshots a resumable randomized solver (EA/AEA) at an
// iteration boundary: the RNG stream position, the population, the best
// feasible solution so far, and the iteration count. Restoring all four and
// continuing reproduces the straight-through run bit for bit, which
// checkpoint_test.go locks in. Events ride the same JSONL telemetry stream
// as round traces; `mscplace -resume f.jsonl` picks up the last one.
type CheckpointEvent struct {
	// Algorithm identifies the solver the snapshot belongs to: "ea" or
	// "aea". Resume refuses snapshots from a different algorithm.
	Algorithm string `json:"algorithm"`
	// Round is the number of iterations completed when the snapshot was
	// taken; the resumed run continues with iteration Round.
	Round int `json:"round"`
	// Seed and Draws locate the RNG stream position (xrand.Rand.State).
	Seed  int64  `json:"seed"`
	Draws uint64 `json:"draws"`
	// Population is the solver's archive in its internal order.
	Population []CheckpointSolution `json:"population"`
	// Best is the best feasible solution found so far.
	Best CheckpointSolution `json:"best"`
	// Evaluations counts σ evaluations performed so far (EA; 0 for AEA).
	Evaluations int `json:"evaluations"`
}

// EventKind implements Event.
func (CheckpointEvent) EventKind() string { return "checkpoint" }

// RunRecord is the machine-readable record of one solver or experiment
// run. The schema is stable: every field below is always present (ints
// default to 0, Sigma to −1 when no single σ applies) so CI validation and
// BENCH_*.json aggregation can rely on it.
type RunRecord struct {
	// Name identifies the run: an experiment id for mscbench ("table1"),
	// the algorithm name for mscplace.
	Name string `json:"name"`
	// Algorithm is the placement algorithm, or "experiment" for whole
	// mscbench experiment runs.
	Algorithm string `json:"algorithm"`
	// Seed is the random seed driving the run.
	Seed int64 `json:"seed"`
	// Workers is the resolved candidate-scan parallelism (0 = default).
	Workers int `json:"workers"`
	// DistBackend records the -dist-backend value the run was launched
	// with ("auto" or "bounded", both the bounded d_t-ball table); "" for
	// runs that predate the field. Older records may say "dense" or
	// "lazy", backends that were since removed.
	DistBackend string `json:"dist_backend"`
	// Survive records the survivability mode the run was launched with
	// ("none", "shortcut", "node"); "" for runs that predate the field.
	Survive string `json:"survive"`
	// Quick marks reduced-scale smoke runs.
	Quick bool `json:"quick"`
	// Instance shape: node count, important pairs, candidate-universe
	// size, budget, threshold. Zero when the run spans many instances.
	N          int     `json:"n"`
	Pairs      int     `json:"pairs"`
	Candidates int     `json:"candidates"`
	K          int     `json:"k"`
	Pt         float64 `json:"p_t"`
	// Budget is the knapsack budget B of a budget-weighted run; 0 for
	// cardinality runs (and runs that predate the field). CostSpent is the
	// total price of the final placement under the run's cost model, and
	// CostModel names that model ("unit", "length", "table"); "" for
	// cardinality runs.
	Budget    float64 `json:"budget"`
	CostSpent float64 `json:"cost_spent"`
	CostModel string  `json:"cost_model"`
	// Sigma is σ achieved and MaxSigma the achievable maximum; Sigma is −1
	// when the run has no single σ (e.g. a whole experiment suite).
	Sigma    int `json:"sigma"`
	MaxSigma int `json:"max_sigma"`
	// SigmaWorst is the survivable worst-case σ⁻ of the final placement; −1
	// for fault-free runs and runs with no single placement.
	SigmaWorst int `json:"sigma_worst"`
	// WallMS is the run's wall-clock time in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// RowBytesResident is the process-wide distance-row payload resident
	// at emission time (bounded sparse rows and dense rows materialized
	// from them); 0 for runs that predate the field.
	// Unlike the counters, it is a level, not a delta — the number behind
	// the "bytes/row scales with the d_t-ball" claim.
	RowBytesResident int64 `json:"row_bytes_resident"`
	// ShardImbalance is the mean relative per-shard wall-time imbalance
	// (max−min)/max over the run's timed candidate scans: 0 = perfectly
	// balanced shards (and for runs without timed scans — EA/AEA rounds
	// evaluate whole selections and never shard a candidate scan).
	ShardImbalance float64 `json:"shard_imbalance"`
	// Counters is the work performed by the run (snapshot difference of
	// the global counters).
	Counters CounterSnapshot `json:"counters"`
	// StopReason records how the solver run ended — "converged",
	// "deadline", "canceled", "eval_budget" — or "" for runs that predate
	// supervision or have no single solver loop (experiment suites).
	StopReason string `json:"stop_reason"`
}

// EventKind implements Event.
func (RunRecord) EventKind() string { return "run" }
