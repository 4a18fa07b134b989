package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// metric is anything the registry can export. Implementations must be
// safe for concurrent updates while an export runs.
type metric interface {
	metricName() string
	metricHelp() string
	metricType() string
	// writeSamples appends the metric's sample lines (without HELP/TYPE
	// headers) to buf.
	writeSamples(buf []byte) []byte
	// samples adds the metric's flat name→value samples to out (the expvar
	// and harvest form; histogram buckets use name{le="..."} keys).
	samples(out map[string]float64)
}

// Registry holds a named set of metrics and exports them in the
// Prometheus text exposition format and as a flat snapshot map. It is
// dependency-free (stdlib only) so every solver layer can feed it.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
	order   []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// defaultRegistry is the process-wide registry the standard solver metrics
// live in; the ops server exports it.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// register adds m, panicking on a duplicate name — metric names are
// compile-time constants, so a clash is a programming error the first test
// run catches.
func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	if _, dup := r.metrics[m.metricName()]; dup {
		panic("obs: duplicate metric " + m.metricName())
	}
	r.metrics[m.metricName()] = m
	r.order = append(r.order, m.metricName())
	sort.Strings(r.order)
}

// WritePrometheus exports every metric in the Prometheus text exposition
// format (version 0.0.4), sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ms := make([]metric, 0, len(r.order))
	for _, name := range r.order {
		ms = append(ms, r.metrics[name])
	}
	r.mu.Unlock()
	buf := make([]byte, 0, 4096)
	for _, m := range ms {
		buf = append(buf, "# HELP "...)
		buf = append(buf, m.metricName()...)
		buf = append(buf, ' ')
		buf = append(buf, m.metricHelp()...)
		buf = append(buf, "\n# TYPE "...)
		buf = append(buf, m.metricName()...)
		buf = append(buf, ' ')
		buf = append(buf, m.metricType()...)
		buf = append(buf, '\n')
		buf = m.writeSamples(buf)
	}
	_, err := w.Write(buf)
	return err
}

// Snapshot returns every sample as a flat name→value map: counters and
// gauges under their name, histograms as name_count/name_sum plus one
// name_bucket{le="..."} entry per bucket. This is the form /debug/vars
// publishes and the sweep harvester stores.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	ms := make([]metric, 0, len(r.order))
	for _, name := range r.order {
		ms = append(ms, r.metrics[name])
	}
	r.mu.Unlock()
	out := make(map[string]float64)
	for _, m := range ms {
		m.samples(out)
	}
	return out
}

func appendSample(buf []byte, name string, v float64) []byte {
	buf = append(buf, name...)
	buf = append(buf, ' ')
	buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
	return append(buf, '\n')
}

// funcMetric evaluates a function at export time. It bridges values that
// already live elsewhere — the telemetry work counters, the Go runtime —
// into the registry without a second store.
type funcMetric struct {
	name, help, typ string
	fn              func() float64
}

// NewCounterFunc registers a counter whose value is read from fn at export
// time. fn must be safe for concurrent calls and monotone for the
// exported series to be a well-formed counter.
func NewCounterFunc(r *Registry, name, help string, fn func() float64) {
	r.register(&funcMetric{name: name, help: help, typ: "counter", fn: fn})
}

// NewGaugeFunc registers a gauge whose value is read from fn at export
// time.
func NewGaugeFunc(r *Registry, name, help string, fn func() float64) {
	r.register(&funcMetric{name: name, help: help, typ: "gauge", fn: fn})
}

// registerIfAbsent registers m unless the name is already taken,
// reporting whether it registered. Used by per-server metrics that bind
// to process-global state (tests start several servers; the first wins).
func (r *Registry) registerIfAbsent(m metric) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	if _, dup := r.metrics[m.metricName()]; dup {
		return false
	}
	r.metrics[m.metricName()] = m
	r.order = append(r.order, m.metricName())
	sort.Strings(r.order)
	return true
}

// NewCounterFuncIfAbsent is NewCounterFunc that tolerates an existing
// registration instead of panicking.
func NewCounterFuncIfAbsent(r *Registry, name, help string, fn func() float64) {
	r.registerIfAbsent(&funcMetric{name: name, help: help, typ: "counter", fn: fn})
}

// NewGaugeFuncIfAbsent is NewGaugeFunc that tolerates an existing
// registration instead of panicking.
func NewGaugeFuncIfAbsent(r *Registry, name, help string, fn func() float64) {
	r.registerIfAbsent(&funcMetric{name: name, help: help, typ: "gauge", fn: fn})
}

func (f *funcMetric) metricName() string { return f.name }
func (f *funcMetric) metricHelp() string { return f.help }
func (f *funcMetric) metricType() string { return f.typ }
func (f *funcMetric) writeSamples(buf []byte) []byte {
	return appendSample(buf, f.name, f.fn())
}
func (f *funcMetric) samples(out map[string]float64) { out[f.name] = f.fn() }

// Histogram is a fixed-bucket histogram with a zero-allocation,
// lock-free Observe: one linear bucket probe over a small immutable bound
// slice, two atomic adds, and a CAS loop for the float sum. That makes it
// safe to call from solver hot paths when collection is enabled.
type Histogram struct {
	name, help string
	// bounds are the inclusive upper bounds of the finite buckets, strictly
	// increasing; counts has len(bounds)+1 entries, the last being +Inf.
	bounds  []float64
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

// NewHistogram registers a histogram with the given inclusive bucket
// upper bounds (strictly increasing; the +Inf bucket is implicit).
func NewHistogram(r *Registry, name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds not strictly increasing: " + name)
		}
	}
	h := &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	r.register(h)
	return h
}

// Observe records one value. It never allocates and never blocks (the sum
// update is a CAS loop that retries only under concurrent observation of
// the same histogram).
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	// Count is the total number of observations and Sum their sum.
	Count int64
	Sum   float64
	// Buckets holds cumulative counts per upper bound, ending with the
	// +Inf bucket (== Count).
	Buckets []int64
}

// Mean returns Sum/Count, or 0 with no observations.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Sub returns the delta snapshot s − prev: the observations made between
// the two snapshots. A zero-value prev (no Buckets) subtracts nothing, so
// before/after diffing works without priming.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	d := HistogramSnapshot{
		Count:   s.Count - prev.Count,
		Sum:     s.Sum - prev.Sum,
		Buckets: append([]int64(nil), s.Buckets...),
	}
	for i := range prev.Buckets {
		if i < len(d.Buckets) {
			d.Buckets[i] -= prev.Buckets[i]
		}
	}
	return d
}

// Snapshot copies the histogram state. Each field is read atomically; the
// snapshot is consistent at quiescent points, which is how the cmds use it
// (before/after a solver run).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     math.Float64frombits(h.sumBits.Load()),
		Buckets: make([]int64, len(h.counts)),
	}
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		s.Buckets[i] = cum
	}
	return s
}

func (h *Histogram) metricName() string { return h.name }
func (h *Histogram) metricHelp() string { return h.help }
func (h *Histogram) metricType() string { return "histogram" }

func (h *Histogram) bucketLabel(i int) string {
	if i == len(h.bounds) {
		return "+Inf"
	}
	return strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
}

func (h *Histogram) writeSamples(buf []byte) []byte {
	s := h.Snapshot()
	for i, cum := range s.Buckets {
		buf = append(buf, h.name...)
		buf = append(buf, `_bucket{le="`...)
		buf = append(buf, h.bucketLabel(i)...)
		buf = append(buf, `"} `...)
		buf = strconv.AppendInt(buf, cum, 10)
		buf = append(buf, '\n')
	}
	buf = appendSample(buf, h.name+"_sum", s.Sum)
	buf = append(buf, h.name...)
	buf = append(buf, "_count "...)
	buf = strconv.AppendInt(buf, s.Count, 10)
	return append(buf, '\n')
}

func (h *Histogram) samples(out map[string]float64) {
	s := h.Snapshot()
	for i, cum := range s.Buckets {
		out[fmt.Sprintf(`%s_bucket{le="%s"}`, h.name, h.bucketLabel(i))] = float64(cum)
	}
	out[h.name+"_sum"] = s.Sum
	out[h.name+"_count"] = float64(s.Count)
}

// ExpBuckets returns n strictly increasing bounds start, start·factor,
// start·factor², … — the standard shape for latency and size histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	bounds := make([]float64, n)
	v := start
	for i := range bounds {
		bounds[i] = v
		v *= factor
	}
	return bounds
}

// LinearBuckets returns n bounds start, start+width, start+2·width, ….
func LinearBuckets(start, width float64, n int) []float64 {
	if width <= 0 || n < 1 {
		panic("obs: LinearBuckets needs width > 0, n >= 1")
	}
	bounds := make([]float64, n)
	for i := range bounds {
		bounds[i] = start + float64(i)*width
	}
	return bounds
}
