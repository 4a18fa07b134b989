package main

// metricDef describes one reported metric. End-to-end metrics come from
// the untraced children; layer metrics from the traced leg.
type metricDef struct {
	Name   string
	Unit   string
	Higher bool // higher is better
	Layer  bool // per-layer (traced leg) rather than end-to-end
	// Listed marks the metrics BENCHMARK.json names: they are on every
	// workload, never null, and make up the last line of a run's output.
	Listed bool
	// Rel and Floor are the -compare regression bound for end-to-end
	// metrics: a change regresses when it is worse than the parent by more
	// than Rel of the parent's median AND by more than Floor (in Unit).
	// Both zero means exact: any change in the worse direction counts.
	Rel, Floor float64
}

// e2eMetrics are the end-to-end metrics, measured with tracing off. The
// absolute floors follow the sweep gate's relative-and-absolute rule, so
// the ~20 ms set-up of the paper-scale workloads does not flag on jitter.
var e2eMetrics = []metricDef{
	{Name: "wall_s", Unit: "s", Listed: true, Rel: 0.10, Floor: 0.025},
	{Name: "setup_s", Unit: "s", Listed: true, Rel: 0.10, Floor: 0.025},
	{Name: "solve_s", Unit: "s", Listed: true, Rel: 0.10, Floor: 0.025},
	{Name: "peak_rss_mb", Unit: "MB", Listed: true, Rel: 0.05, Floor: 2},
	{Name: "sigma", Unit: "pairs", Higher: true},
	{Name: "sigma_worst", Unit: "pairs", Higher: true},
	{Name: "ratio_bound", Unit: "ratio", Higher: true},
	{Name: "failed_frac", Unit: "ratio"},
}

// layerMetrics are the per-layer metrics of the traced leg, named after
// the module that does the work. Null values are documented in
// bench/README.md (a layer the workload never calls, or a percentile
// without ten samples beyond it).
var layerMetrics = []metricDef{
	{Name: "graphio.read_s", Unit: "s", Layer: true, Listed: true},
	{Name: "graphio.graph_s", Unit: "s", Layer: true, Listed: true},
	{Name: "graphio.alloc_mb", Unit: "MB", Layer: true, Listed: true},
	{Name: "graphio.input_mb", Unit: "MB", Layer: true, Listed: true},
	{Name: "shortestpath.build_s", Unit: "s", Layer: true, Listed: true},
	{Name: "shortestpath.landmarks_s", Unit: "s", Layer: true, Listed: true},
	{Name: "shortestpath.row_us", Unit: "us", Layer: true, Listed: true},
	{Name: "shortestpath.row_bytes", Unit: "bytes", Layer: true, Listed: true},
	{Name: "shortestpath.dijkstra_runs", Unit: "count", Layer: true, Listed: true},
	{Name: "shortestpath.edge_relaxations", Unit: "count", Layer: true, Listed: true},
	{Name: "shortestpath.resident_mb", Unit: "MB", Layer: true, Listed: true},
	{Name: "search.init_s", Unit: "s", Layer: true, Listed: true},
	{Name: "search.init_calls", Unit: "count", Layer: true, Listed: true},
	{Name: "search.row_mb", Unit: "MB", Layer: true, Listed: true},
	{Name: "scan.s", Unit: "s", Layer: true, Listed: true},
	{Name: "scan.calls", Unit: "count", Layer: true, Listed: true},
	{Name: "scan.p50_ms", Unit: "ms", Layer: true, Listed: true},
	{Name: "scan.p90_ms", Unit: "ms", Layer: true},
	{Name: "scan.candidate_evals", Unit: "count", Layer: true, Listed: true},
	{Name: "scan.candidates_pruned", Unit: "count", Higher: true, Layer: true, Listed: true},
	{Name: "scan.pruned_frac", Unit: "ratio", Higher: true, Layer: true, Listed: true},
	{Name: "scan.pairs_rescanned", Unit: "count", Layer: true, Listed: true},
	{Name: "scan.pairs_skipped", Unit: "count", Higher: true, Layer: true, Listed: true},
	{Name: "scan.shard_imbalance", Unit: "ratio", Layer: true},
	{Name: "commit.s", Unit: "s", Layer: true, Listed: true},
	{Name: "commit.calls", Unit: "count", Layer: true, Listed: true},
	{Name: "commit.rows_merged", Unit: "count", Layer: true, Listed: true},
	{Name: "commit.rows_unchanged", Unit: "count", Higher: true, Layer: true, Listed: true},
	{Name: "remove.s", Unit: "s", Layer: true},
	{Name: "drop.s", Unit: "s", Layer: true},
	{Name: "survive.scenarios_evaled", Unit: "count", Layer: true, Listed: true},
	{Name: "bounds.build_s", Unit: "s", Layer: true},
	{Name: "bounds.eval_s", Unit: "s", Layer: true},
	{Name: "bounds.alloc_mb", Unit: "MB", Layer: true, Listed: true},
	{Name: "solve.self_s", Unit: "s", Layer: true, Listed: true},
	{Name: "sigma.eval_s", Unit: "s", Layer: true, Listed: true},
	{Name: "sigma.evals", Unit: "count", Layer: true, Listed: true},
	{Name: "emit.s", Unit: "s", Layer: true, Listed: true},
	{Name: "process.cpu_util", Unit: "ratio", Higher: true, Layer: true, Listed: true},
	{Name: "cli.wall_s", Unit: "s", Layer: true, Listed: true},
	{Name: "trace.overhead_frac", Unit: "ratio", Layer: true, Listed: true},
}

func allMetrics() []metricDef {
	return append(append([]metricDef(nil), e2eMetrics...), layerMetrics...)
}
