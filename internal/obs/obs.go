// Package obs is the live observability plane: a dependency-free metrics
// registry (atomic counters, gauges, fixed-bucket histograms with a
// zero-allocation Observe) and an opt-in HTTP ops server exposing it —
// /metrics in the Prometheus text format, /healthz, /debug/pprof,
// /debug/vars (expvar), a /events Server-Sent-Events stream of the typed
// telemetry trace events, and /debug/flightrecorder dumping the last N
// events as schema-valid JSONL.
//
// Where internal/telemetry answers "what work did this run do" after the
// fact (counters diffed per run, JSONL records read post-mortem), obs
// answers "what is this process doing right now": distributions of round
// wall time, Dijkstra row compute cost, merge/rescan sizes, and candidate
// scan shard imbalance, scraped while a solve is running. It is the
// substrate the placement daemon (`mscd`, ROADMAP) mounts directly.
//
// # Overhead contract
//
// Collection is off by default. Every instrumentation site in the solver
// stack guards on Enabled() — one atomic load — before reading a clock or
// observing a histogram, and Histogram.Observe itself never allocates, so
// with the plane disabled the hot paths are bit-for-bit the PR 2 nil-sink
// fast paths (TestCandidateScanZeroAllocs and BenchmarkGainsAddSerialNoSink
// lock that in), and with it enabled the cost is a few atomic adds per
// round-level event — never per candidate.
//
// The package may be imported by every solver layer: it depends only on
// the standard library and internal/telemetry.
package obs

import (
	"encoding/json"
	"runtime"
	"sync/atomic"
	"time"

	"msc/internal/telemetry"
)

// enabled gates metric collection at the instrumentation sites.
var enabled atomic.Bool

// SetEnabled turns metric collection on or off process-wide. The cmds
// enable it when -ops (or a telemetry sink that wants derived metrics) is
// set; libraries may enable it directly.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether instrumentation sites should collect. The check
// is one atomic load, cheap enough for round-level sites; per-candidate
// hot loops are never instrumented at all.
func Enabled() bool { return enabled.Load() }

// Standard solver metrics, registered on the Default registry. The ops
// server exports them; instrumentation sites in internal/core and
// internal/shortestpath feed them when Enabled.
var (
	// RoundWall is the wall-clock time of one solver round (one greedy
	// round, one EA/AEA iteration, one local-search swap), in seconds.
	RoundWall = NewHistogram(Default(), "msc_round_wall_seconds",
		"Wall-clock time of one solver round.",
		ExpBuckets(1e-5, 4, 12)) // 10µs … ~42s

	// RowCompute is the cost of one on-demand Dijkstra row computation
	// (bounded-table ball fills), in seconds.
	RowCompute = NewHistogram(Default(), "msc_row_compute_seconds",
		"Wall-clock time of one on-demand Dijkstra distance-row computation.",
		ExpBuckets(1e-6, 4, 12)) // 1µs … ~4s

	// MergeRows is the number of endpoint distance rows one incremental
	// shortcut commit actually changed (core mergeAdd).
	MergeRows = NewHistogram(Default(), "msc_merge_rows_changed",
		"Endpoint distance rows changed by one incremental shortcut commit.",
		ExpBuckets(1, 4, 10)) // 1 … ~262k

	// RescanPairs is the number of pairs one gains scan recomputed: the
	// full unsatisfied set, since every gains refresh is a cold scan.
	RescanPairs = NewHistogram(Default(), "msc_rescan_pairs",
		"Pairs whose gains contribution one scan recomputed.",
		ExpBuckets(1, 4, 10))

	// ScenarioEval is the cost of one failure-scenario evaluation by the
	// survivable objective (the lex-min composite in core): one
	// scenario's incremental merge on commit, or one scenario's (usually
	// warm) gains read during a candidate scan, in seconds.
	ScenarioEval = NewHistogram(Default(), "msc_failure_scenario_eval_seconds",
		"Wall-clock time of one survivable failure-scenario evaluation.",
		ExpBuckets(1e-7, 4, 12)) // 100ns … ~0.4s

	// ShardImbalance is the relative imbalance (max−min)/max of per-shard
	// wall times of one timed sharded candidate scan: 0 = perfectly even,
	// →1 = one shard did all the waiting.
	ShardImbalance = NewHistogram(Default(), "msc_scan_shard_imbalance",
		"Per-scan relative shard wall-time imbalance (max-min)/max.",
		LinearBuckets(0.05, 0.05, 19)) // 0.05 … 0.95
)

// ObserveRound records one solver round's wall time when collection is
// enabled. d is the round's duration.
func ObserveRound(d time.Duration) {
	if enabled.Load() {
		RoundWall.Observe(d.Seconds())
	}
}

// ObserveRowCompute records one on-demand row computation's wall time.
// Callers gate the clock reads on Enabled themselves.
func ObserveRowCompute(d time.Duration) { RowCompute.Observe(d.Seconds()) }

// ObserveMerge records one incremental commit's row-merge width and one
// scan's rescanned-pair count when collection is enabled. Zero-valued
// arguments are skipped: a merge that changed nothing is the cache-hit
// case the histograms are not about.
func ObserveMerge(rowsChanged, pairsRescanned int64) {
	if !enabled.Load() {
		return
	}
	if rowsChanged > 0 {
		MergeRows.Observe(float64(rowsChanged))
	}
	if pairsRescanned > 0 {
		RescanPairs.Observe(float64(pairsRescanned))
	}
}

// ObserveScenarioEval records one failure-scenario evaluation's wall time.
// Callers gate the clock reads on Enabled themselves.
func ObserveScenarioEval(d time.Duration) { ScenarioEval.Observe(d.Seconds()) }

// ObserveScanShards records one timed scan's shard imbalance when
// collection is enabled.
func ObserveScanShards(minNS, maxNS int64, shards int) {
	if !enabled.Load() || shards < 1 || maxNS <= 0 {
		return
	}
	ShardImbalance.Observe(float64(maxNS-minNS) / float64(maxNS))
}

// init bridges the existing telemetry layer and the Go runtime into the
// registry: every telemetry.CounterSnapshot field becomes an exported
// counter (msc_<json_name>_total, read at scrape time, so the two schemas
// can never drift), the row-cache hit ratio becomes a gauge, and two
// runtime gauges round out the ops picture.
func init() {
	// Counter names come from the CounterSnapshot JSON schema itself via an
	// encode/decode round trip, exactly like the sweep aggregator derives
	// its metric namespace: a counter added to telemetry flows into
	// /metrics (and the golden-list CI diff catches the schema change).
	body, err := json.Marshal(telemetry.CounterSnapshot{})
	if err != nil {
		panic("obs: encode telemetry counters: " + err.Error())
	}
	var fields map[string]int64
	if err := json.Unmarshal(body, &fields); err != nil {
		panic("obs: decode telemetry counters: " + err.Error())
	}
	for name := range fields {
		field := name
		NewCounterFunc(Default(), "msc_"+field+"_total",
			"Solver work counter "+field+" (see internal/telemetry).",
			func() float64 {
				return counterField(telemetry.Global().Snapshot(), field)
			})
	}

	NewGaugeFunc(Default(), "msc_row_cache_hit_ratio",
		"Distance-table row cache hit ratio hits/(hits+misses); 0 before any request.",
		func() float64 {
			s := telemetry.Global().Snapshot()
			total := s.RowCacheHits + s.RowCacheMisses
			if total == 0 {
				return 0
			}
			return float64(s.RowCacheHits) / float64(total)
		})

	NewGaugeFunc(Default(), "msc_goroutines",
		"Number of live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	NewGaugeFunc(Default(), "msc_heap_alloc_bytes",
		"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
}

// counterField reads one CounterSnapshot field by its JSON name through
// the same round trip init derived the names from.
func counterField(s telemetry.CounterSnapshot, field string) float64 {
	body, err := json.Marshal(s)
	if err != nil {
		return 0
	}
	var m map[string]int64
	if err := json.Unmarshal(body, &m); err != nil {
		return 0
	}
	return float64(m[field])
}
