package telemetry

import "sync/atomic"

// Counters is a set of monotonically increasing work counters. All fields
// are atomics so independent shards and goroutines may add concurrently;
// because every instrumented site adds the full logical amount of work for
// a (deterministic) unit — one scan, one evaluation, one Dijkstra run —
// totals are independent of worker count and interleaving.
type Counters struct {
	// DijkstraRuns counts single-source shortest-path computations.
	DijkstraRuns atomic.Int64
	// EdgeRelaxations counts successful distance updates inside Dijkstra
	// (accumulated locally per run, flushed once at the end).
	EdgeRelaxations atomic.Int64
	// CandidateEvals counts candidate-shortcut gain evaluations: a full
	// GainsAdd scan adds the candidate-universe size, a single GainAdd
	// adds one. A survivable round adds one scan for the free search and
	// one per failure scenario it scans; the scenarios its bound skips
	// add nothing.
	CandidateEvals atomic.Int64
	// SigmaEvals counts σ oracle evaluations (Sigma/SigmaPar calls).
	SigmaEvals atomic.Int64
	// MuEvals counts μ lower-bound evaluations.
	MuEvals atomic.Int64
	// NuEvals counts ν upper-bound evaluations.
	NuEvals atomic.Int64
	// OverlayBuilds counts shortcut-overlay oracle constructions.
	OverlayBuilds atomic.Int64
	// OverlayQueries counts point distance queries against an overlay.
	OverlayQueries atomic.Int64
	// OverlayRows counts full distance-row queries against an overlay.
	OverlayRows atomic.Int64
	// RowCacheHits counts bounded-table row requests served from cache.
	// (Records from before the dense/bounded pair also count the retired
	// lazy Dijkstra row cache here.)
	RowCacheHits atomic.Int64
	// RowCacheMisses counts bounded-table row requests that created a new
	// cache entry.
	RowCacheMisses atomic.Int64
	// RowCacheComputes counts the bounded Dijkstra balls the bounded
	// table computed. Unlike the solver counters above, the row-cache
	// counters depend on the distance backend (dense tables never touch
	// them), so the backend-equivalence guarantees exclude them.
	RowCacheComputes atomic.Int64

	// RowsMerged counts endpoint d_t-balls the incremental shortcut merge
	// (core search Add) changed; RowsUnchanged counts the balls it proved
	// untouched. A rebuild (a fresh search, or one after RemoveAt) merges
	// nothing and counts neither. A survivable commit merges into the free
	// search and every failure scenario the shortcut survives in, so both
	// sum over those searches. Like the solver counters, their totals are
	// worker-count invariant: whether a ball changed depends only on the
	// (deterministic) distance values, never on shard boundaries or on
	// which worker merged which scenario.
	RowsMerged    atomic.Int64
	RowsUnchanged atomic.Int64
	// PairsRescanned counts pairs whose per-candidate gains contribution
	// was computed by a gains scan: every unsatisfied pair, once per cold
	// scan. PairsSkipped is no longer written and always reads 0: every
	// gains refresh is a cold near-list scan, so no pair's contribution is
	// ever carried over from an earlier scan. The field stays so the
	// counter's JSON name, its /metrics series and the readers of both
	// keep working.
	PairsRescanned atomic.Int64
	PairsSkipped   atomic.Int64
	// CandidatesPruned counts candidate cells a pruned gains scan proved
	// zero-gain without touching them: per scanned pair, the candidate
	// universe minus the cells both of whose endpoints lie within d_t of
	// a pair endpoint. Accumulated while the per-pair candidate lists are
	// built — a serial step — so the total is identical at every worker
	// count. Every scan is pruned: the near lists come from d_t-balls on
	// every distance backend, so the total is the same on all of them.
	CandidatesPruned atomic.Int64

	// FailureScenariosEvaled counts single-failure scenario σ evaluations
	// performed by the survivable objective (core σ⁻): one per scenario
	// folded into a worst-case recompute. Stays 0 under SurviveNone. Like
	// the solver counters, the total depends only on the failure model and
	// the selection trajectory, never on shard boundaries.
	FailureScenariosEvaled atomic.Int64
}

// global is the process-wide counter set every instrumented package feeds.
var global Counters

// Global returns the process-wide counters. The solver stack adds to them
// unconditionally (the per-evaluation atomic add is noise next to the work
// it counts); consumers snapshot before and after a region of interest and
// diff.
func Global() *Counters { return &global }

// CounterSnapshot is a plain-integer copy of a Counters state with a
// stable JSON schema: every field is always present, so run records can be
// diffed and aggregated by machines.
type CounterSnapshot struct {
	DijkstraRuns    int64 `json:"dijkstra_runs"`
	EdgeRelaxations int64 `json:"edge_relaxations"`
	CandidateEvals  int64 `json:"candidate_evals"`
	SigmaEvals      int64 `json:"sigma_evals"`
	MuEvals         int64 `json:"mu_evals"`
	NuEvals         int64 `json:"nu_evals"`
	OverlayBuilds   int64 `json:"overlay_builds"`
	OverlayQueries  int64 `json:"overlay_queries"`
	OverlayRows     int64 `json:"overlay_rows"`

	RowCacheHits     int64 `json:"row_cache_hits"`
	RowCacheMisses   int64 `json:"row_cache_misses"`
	RowCacheComputes int64 `json:"row_cache_computes"`

	RowsMerged       int64 `json:"rows_merged"`
	RowsUnchanged    int64 `json:"rows_unchanged"`
	PairsRescanned   int64 `json:"pairs_rescanned"`
	PairsSkipped     int64 `json:"pairs_skipped"`
	CandidatesPruned int64 `json:"candidates_pruned"`

	FailureScenariosEvaled int64 `json:"failure_scenarios_evaled"`
}

// Snapshot reads all counters. Each field is read atomically; the snapshot
// as a whole is consistent when taken at a quiescent point (between runs),
// which is how the cmds and tests use it.
func (c *Counters) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		DijkstraRuns:    c.DijkstraRuns.Load(),
		EdgeRelaxations: c.EdgeRelaxations.Load(),
		CandidateEvals:  c.CandidateEvals.Load(),
		SigmaEvals:      c.SigmaEvals.Load(),
		MuEvals:         c.MuEvals.Load(),
		NuEvals:         c.NuEvals.Load(),
		OverlayBuilds:   c.OverlayBuilds.Load(),
		OverlayQueries:  c.OverlayQueries.Load(),
		OverlayRows:     c.OverlayRows.Load(),

		RowCacheHits:     c.RowCacheHits.Load(),
		RowCacheMisses:   c.RowCacheMisses.Load(),
		RowCacheComputes: c.RowCacheComputes.Load(),

		RowsMerged:       c.RowsMerged.Load(),
		RowsUnchanged:    c.RowsUnchanged.Load(),
		PairsRescanned:   c.PairsRescanned.Load(),
		PairsSkipped:     c.PairsSkipped.Load(),
		CandidatesPruned: c.CandidatesPruned.Load(),

		FailureScenariosEvaled: c.FailureScenariosEvaled.Load(),
	}
}

// Reset zeroes all counters. Intended for tests and for CLI runs that want
// per-run totals without diffing.
func (c *Counters) Reset() {
	c.DijkstraRuns.Store(0)
	c.EdgeRelaxations.Store(0)
	c.CandidateEvals.Store(0)
	c.SigmaEvals.Store(0)
	c.MuEvals.Store(0)
	c.NuEvals.Store(0)
	c.OverlayBuilds.Store(0)
	c.OverlayQueries.Store(0)
	c.OverlayRows.Store(0)
	c.RowCacheHits.Store(0)
	c.RowCacheMisses.Store(0)
	c.RowCacheComputes.Store(0)
	c.RowsMerged.Store(0)
	c.RowsUnchanged.Store(0)
	c.PairsRescanned.Store(0)
	c.PairsSkipped.Store(0)
	c.CandidatesPruned.Store(0)
	c.FailureScenariosEvaled.Store(0)
}

// BackendInvariant returns a copy of the snapshot with every counter that
// depends on the distance backend zeroed: Dijkstra runs and edge
// relaxations (eager for a dense table, on-demand balls for a bounded one)
// and the row-cache activity (dense tables never touch it). The merge row
// classification and CandidatesPruned stay: every backend merges and scans
// the same d_t-balls. What remains is exactly the solver work that must
// be identical across backends — the invariant the backend-differential
// suite asserts.
func (s CounterSnapshot) BackendInvariant() CounterSnapshot {
	s.DijkstraRuns = 0
	s.EdgeRelaxations = 0
	s.RowCacheHits = 0
	s.RowCacheMisses = 0
	s.RowCacheComputes = 0
	return s
}

// Sub returns the field-wise difference s − prev: the work performed
// between two snapshots.
func (s CounterSnapshot) Sub(prev CounterSnapshot) CounterSnapshot {
	return CounterSnapshot{
		DijkstraRuns:    s.DijkstraRuns - prev.DijkstraRuns,
		EdgeRelaxations: s.EdgeRelaxations - prev.EdgeRelaxations,
		CandidateEvals:  s.CandidateEvals - prev.CandidateEvals,
		SigmaEvals:      s.SigmaEvals - prev.SigmaEvals,
		MuEvals:         s.MuEvals - prev.MuEvals,
		NuEvals:         s.NuEvals - prev.NuEvals,
		OverlayBuilds:   s.OverlayBuilds - prev.OverlayBuilds,
		OverlayQueries:  s.OverlayQueries - prev.OverlayQueries,
		OverlayRows:     s.OverlayRows - prev.OverlayRows,

		RowCacheHits:     s.RowCacheHits - prev.RowCacheHits,
		RowCacheMisses:   s.RowCacheMisses - prev.RowCacheMisses,
		RowCacheComputes: s.RowCacheComputes - prev.RowCacheComputes,

		RowsMerged:       s.RowsMerged - prev.RowsMerged,
		RowsUnchanged:    s.RowsUnchanged - prev.RowsUnchanged,
		PairsRescanned:   s.PairsRescanned - prev.PairsRescanned,
		PairsSkipped:     s.PairsSkipped - prev.PairsSkipped,
		CandidatesPruned: s.CandidatesPruned - prev.CandidatesPruned,

		FailureScenariosEvaled: s.FailureScenariosEvaled - prev.FailureScenariosEvaled,
	}
}
