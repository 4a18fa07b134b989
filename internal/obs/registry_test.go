package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExport(t *testing.T) {
	r := NewRegistry()
	ops, depth := 0.0, 1.5
	NewCounterFunc(r, "test_ops_total", "Ops.", func() float64 { return ops })
	NewGaugeFunc(r, "test_depth", "Depth.", func() float64 { return depth })
	ops, depth = 5, -2.25 // func metrics read their value at export time
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP test_ops_total Ops.",
		"# TYPE test_ops_total counter",
		"test_ops_total 5",
		"# TYPE test_depth gauge",
		"test_depth -2.25",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	NewCounterFunc(r, "dup_total", "x", func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	NewGaugeFunc(r, "dup_total", "x", func() float64 { return 0 })
}

func TestRegisterIfAbsentToleratesDuplicate(t *testing.T) {
	r := NewRegistry()
	calls := 0
	NewGaugeFuncIfAbsent(r, "maybe_dup", "x", func() float64 { calls++; return 1 })
	NewGaugeFuncIfAbsent(r, "maybe_dup", "x", func() float64 { t.Error("second registration won"); return 2 })
	if got := r.Snapshot()["maybe_dup"]; got != 1 {
		t.Fatalf("maybe_dup = %v, want 1 (first registration)", got)
	}
	if calls != 1 {
		t.Fatalf("first fn called %d times during one snapshot", calls)
	}
}

// Names returns the registered metric names in registry order, which
// register keeps sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.order...)
}

func TestRegistryNamesSorted(t *testing.T) {
	r := NewRegistry()
	zero := func() float64 { return 0 }
	NewCounterFunc(r, "zzz_total", "z", zero)
	NewCounterFunc(r, "aaa_total", "a", zero)
	NewGaugeFunc(r, "mmm", "m", zero)
	names := r.Names()
	want := []string{"aaa_total", "mmm", "zzz_total"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
}

func TestHistogramBucketsAndSnapshot(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram(r, "test_seconds", "x", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 50, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("Count = %d, want 6", s.Count)
	}
	if s.Sum != 1066.5 {
		t.Fatalf("Sum = %v, want 1066.5", s.Sum)
	}
	// Bounds are inclusive upper bounds; cumulative counts end at Count.
	wantCum := []int64{2, 4, 5, 6}
	if len(s.Buckets) != len(wantCum) {
		t.Fatalf("Buckets = %v, want %v", s.Buckets, wantCum)
	}
	for i, w := range wantCum {
		if s.Buckets[i] != w {
			t.Fatalf("Buckets = %v, want %v", s.Buckets, wantCum)
		}
	}
	if got := s.Mean(); math.Abs(got-1066.5/6) > 1e-12 {
		t.Fatalf("Mean() = %v", got)
	}
	if got := (HistogramSnapshot{}).Mean(); got != 0 {
		t.Fatalf("empty Mean() = %v, want 0", got)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`test_seconds_bucket{le="1"} 2`,
		`test_seconds_bucket{le="100"} 5`,
		`test_seconds_bucket{le="+Inf"} 6`,
		"test_seconds_sum 1066.5",
		"test_seconds_count 6",
		"# TYPE test_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramObserveZeroAllocs(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram(r, "alloc_check", "x", ExpBuckets(1e-6, 4, 12))
	allocs := testing.AllocsPerRun(1000, func() { h.Observe(3.14e-4) })
	if allocs != 0 {
		t.Fatalf("Histogram.Observe allocates %v per call, want 0", allocs)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram(r, "conc_seconds", "x", []float64{1, 2, 4})
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(1) // identical values keep the expected Sum exact
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("Count = %d, want %d", s.Count, workers*per)
	}
	if s.Sum != float64(workers*per) {
		t.Fatalf("Sum = %v, want %v (CAS loop lost updates)", s.Sum, workers*per)
	}
	if s.Buckets[0] != workers*per {
		t.Fatalf("first bucket = %d, want %d", s.Buckets[0], workers*per)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	for i, want := range []float64{1, 2, 4, 8} {
		if exp[i] != want {
			t.Fatalf("ExpBuckets = %v", exp)
		}
	}
	lin := LinearBuckets(0.5, 0.25, 3)
	for i, want := range []float64{0.5, 0.75, 1.0} {
		if lin[i] != want {
			t.Fatalf("LinearBuckets = %v", lin)
		}
	}
}

func TestParsePrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	NewCounterFunc(r, "rt_total", "x", func() float64 { return 7 })
	h := NewHistogram(r, "rt_seconds", "x", []float64{1})
	h.Observe(0.5)
	h.Observe(3)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatalf("ParsePrometheus: %v", err)
	}
	want := r.Snapshot()
	if len(parsed) != len(want) {
		t.Fatalf("parsed %d samples, registry has %d", len(parsed), len(want))
	}
	for name, v := range want {
		if parsed[name] != v {
			t.Errorf("sample %s: parsed %v, registry %v", name, parsed[name], v)
		}
	}
	names := MetricNames(parsed)
	if len(names) != 2 || names[0] != "rt_seconds" || names[1] != "rt_total" {
		t.Fatalf("MetricNames = %v, want [rt_seconds rt_total]", names)
	}
}

func TestParsePrometheusRejectsGarbage(t *testing.T) {
	if _, err := ParsePrometheus(strings.NewReader("rt_total notanumber\n")); err == nil {
		t.Fatal("bad value accepted")
	}
	if _, err := ParsePrometheus(strings.NewReader("loneword\n")); err == nil {
		t.Fatal("valueless line accepted")
	}
}

func TestDefaultRegistryHasStandardMetrics(t *testing.T) {
	names := Default().Names()
	has := make(map[string]bool, len(names))
	for _, n := range names {
		has[n] = true
	}
	for _, want := range []string{
		"msc_round_wall_seconds",
		"msc_row_compute_seconds",
		"msc_merge_rows_changed",
		"msc_rescan_pairs",
		"msc_scan_shard_imbalance",
		"msc_row_cache_hit_ratio",
		"msc_sigma_evals_total",     // bridged from telemetry counters
		"msc_dijkstra_runs_total",   // ditto
		"msc_pairs_rescanned_total", // ditto (incremental-eval counters)
		"msc_goroutines",
		"msc_heap_alloc_bytes",
	} {
		if !has[want] {
			t.Errorf("Default registry missing %s (have %v)", want, names)
		}
	}
}

func TestObserveHelpersRespectEnabledGate(t *testing.T) {
	SetEnabled(false)
	defer SetEnabled(false)
	before := RoundWall.Snapshot().Count
	ObserveRound(1e6)
	ObserveMerge(10, 10)
	ObserveScanShards(1, 100, 4)
	if got := RoundWall.Snapshot().Count; got != before {
		t.Fatal("ObserveRound recorded while disabled")
	}
	SetEnabled(true)
	if !Enabled() {
		t.Fatal("Enabled() = false after SetEnabled(true)")
	}
	ObserveRound(1e6)
	ObserveMerge(10, 10)
	ObserveScanShards(1, 100, 4)
	if got := RoundWall.Snapshot().Count; got != before+1 {
		t.Fatalf("RoundWall count moved %d, want 1", got-before)
	}
	// (max-min)/max = 99/100
	s := ShardImbalance.Snapshot()
	if s.Count == 0 {
		t.Fatal("ShardImbalance not recorded while enabled")
	}
}
