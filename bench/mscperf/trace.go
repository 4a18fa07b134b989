package main

import (
	"context"
	"encoding/json"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"msc"
	"msc/internal/core"
	"msc/internal/maxcover"
	"msc/internal/telemetry"
)

// span is one timed call into a layer. Spans nest: a call made while
// another is open becomes its child, and Counters is the delta of the
// process-wide work counters over the call, so counts land in the layer
// that did the work.
type span struct {
	ID       int                       `json:"id"`
	Parent   int                       `json:"parent"` // -1 for a root span
	Name     string                    `json:"name"`
	Workload string                    `json:"workload"`
	Instance int                       `json:"instance"`
	Pass     int                       `json:"pass"`
	StartNS  int64                     `json:"start_ns"`
	EndNS    int64                     `json:"end_ns"`
	SelfNS   int64                     `json:"self_ns"` // duration minus the child spans
	Counters telemetry.CounterSnapshot `json:"counters"`
	// AllocBytes is the heap allocated during the call; recorded for the
	// graphio and bounds spans only, since reading it stops the world.
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	// ShardImbalance is (max−min)/max of the per-shard times of the timed
	// candidate scan the call ran, when it ran one across two or more
	// shards.
	ShardImbalance *float64 `json:"shard_imbalance,omitempty"`
}

func (s *span) durNS() int64 { return s.EndNS - s.StartNS }

// layer is the module a span's name starts with.
func (s *span) layer() string { l, _, _ := strings.Cut(s.Name, "."); return l }

// tracer records spans in memory. The solvers call the wrapped layers
// from one goroutine, so spans nest as a stack; the mutex only keeps a
// stray concurrent call from corrupting the record.
type tracer struct {
	mu       sync.Mutex
	base     time.Time
	spans    []span
	open     []int
	workload string
	instance int
	pass     int
}

func newTracer(workload string) *tracer { return &tracer{base: time.Now(), workload: workload} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload,
		Instance: t.instance, Pass: t.pass, Counters: telemetry.Global().Snapshot()})
	t.open = append(t.open, id)
	t.spans[id].StartNS = time.Since(t.base).Nanoseconds()
	return id
}

// end closes span id, which must be the innermost open one, and lets
// annotate (when non-nil) add to it.
func (t *tracer) end(id int, annotate func(*span)) {
	now := time.Since(t.base).Nanoseconds()
	c := telemetry.Global().Snapshot()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id]
	sp.EndNS = now
	sp.Counters = c.Sub(sp.Counters)
	if annotate != nil {
		annotate(sp)
	}
	if n := len(t.open); n > 0 && t.open[n-1] == id {
		t.open = t.open[:n-1]
	}
}

// span opens a span and returns the function that closes it, for
// "defer t.span(name)()".
func (t *tracer) span(name string) func() {
	id := t.begin(name)
	return func() { t.end(id, nil) }
}

// allocSpan is span with the heap allocated during the call recorded.
func (t *tracer) allocSpan(name string) func() {
	before := totalAlloc()
	id := t.begin(name)
	return func() {
		after := totalAlloc()
		t.end(id, func(s *span) { s.AllocBytes = after - before })
	}
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// fillSelf sets every span's self time: its duration minus its children's.
func (t *tracer) fillSelf() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		t.spans[i].SelfNS = t.spans[i].durNS()
	}
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			t.spans[p].SelfNS -= t.spans[i].durNS()
		}
	}
}

// writeJSONL writes the spans, one JSON object per line.
func (t *tracer) writeJSONL(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return nil
}

// tracedProblem is the instance as the unchanged solvers see it in the
// traced leg. It embeds the instance, so BudgetProblem, WorstCaseProblem
// and every other method resolve as on the bare instance, and times the
// calls into the search, σ-oracle and bounds layers.
type tracedProblem struct {
	*msc.Instance
	tr *tracer
}

var (
	_ core.Problem          = (*tracedProblem)(nil)
	_ core.BudgetProblem    = (*tracedProblem)(nil)
	_ core.WorstCaseProblem = (*tracedProblem)(nil)
	_ core.ParallelSigma    = (*tracedProblem)(nil)
)

func (p *tracedProblem) NewSearch(sel []int) core.Search {
	defer p.tr.span("search.NewSearch")()
	return p.tr.wrapSearch(p.Instance.NewSearch(sel))
}

func (p *tracedProblem) Sigma(sel []int) int {
	defer p.tr.span("sigma.Sigma")()
	return p.Instance.Sigma(sel)
}

func (p *tracedProblem) SigmaPar(sel []int, workers int) int {
	defer p.tr.span("sigma.SigmaPar")()
	return p.Instance.SigmaPar(sel, workers)
}

func (p *tracedProblem) SigmaWorst(sel []int) int {
	defer p.tr.span("sigma.SigmaWorst")()
	return p.Instance.SigmaWorst(sel)
}

func (p *tracedProblem) Mu(sel []int) float64 {
	defer p.tr.allocSpan("bounds.Mu")()
	return p.Instance.Mu(sel)
}

func (p *tracedProblem) Nu(sel []int) float64 {
	defer p.tr.allocSpan("bounds.Nu")()
	return p.Instance.Nu(sel)
}

func (p *tracedProblem) MuProblem() maxcover.Problem {
	defer p.tr.allocSpan("bounds.MuProblem")()
	return p.Instance.MuProblem()
}

func (p *tracedProblem) NuProblem() maxcover.Problem {
	defer p.tr.allocSpan("bounds.NuProblem")()
	return p.Instance.NuProblem()
}

// searchInner is the method set of the instance's searches: Search plus
// the optional interfaces the solvers type-assert for.
type searchInner interface {
	core.ParallelSearch
	core.ScanTimer
	core.ContextAware
	core.EvalStats
}

// tracedSearch times the calls into a search: scans, commits, removals
// and drops. It forwards every optional interface the instance's searches
// implement; TestTracedSearchMethodSets keeps the two method sets equal.
type tracedSearch struct {
	inner searchInner
	tr    *tracer
	// lastShards is the last scan-shard reading, so a reading left over
	// from an earlier scan is not counted again.
	lastShards [3]int64
}

var (
	_ core.ParallelSearch = (*tracedSearch)(nil)
	_ core.ScanTimer      = (*tracedSearch)(nil)
	_ core.ContextAware   = (*tracedSearch)(nil)
	_ core.EvalStats      = (*tracedSearch)(nil)
)

// sigmaPartser is the survivable search's (σ, σ⁻) decomposition, which
// the solvers look for by method.
type sigmaPartser interface {
	SigmaParts() (sigma, sigmaWorst int)
}

// tracedSurviveSearch is tracedSearch over a survivable search.
type tracedSurviveSearch struct {
	*tracedSearch
	parts sigmaPartser
}

var _ sigmaPartser = (*tracedSurviveSearch)(nil)

func (s *tracedSurviveSearch) SigmaParts() (sigma, sigmaWorst int) { return s.parts.SigmaParts() }

// wrapSearch wraps a search of the instance. Scan timing is switched on
// so each scan's shard balance can be read; it adds two clock reads per
// shard and changes no result.
func (t *tracer) wrapSearch(s core.Search) core.Search {
	inner := s.(searchInner)
	inner.EnableScanTiming(true)
	ts := &tracedSearch{inner: inner, tr: t}
	if sp, ok := s.(sigmaPartser); ok {
		return &tracedSurviveSearch{tracedSearch: ts, parts: sp}
	}
	return ts
}

// scanned opens a span that, when closed, records the shard balance of
// the timed scan the call ran, if any.
func (s *tracedSearch) scanned(name string) func() {
	id := s.tr.begin(name)
	return func() {
		minNS, maxNS, shards := s.inner.LastScanShards()
		reading := [3]int64{minNS, maxNS, int64(shards)}
		fresh := reading != s.lastShards && shards >= 2 && maxNS > 0
		s.lastShards = reading
		s.tr.end(id, func(sp *span) {
			if fresh {
				v := float64(maxNS-minNS) / float64(maxNS)
				sp.ShardImbalance = &v
			}
		})
	}
}

func (s *tracedSearch) Sigma() int             { return s.inner.Sigma() }
func (s *tracedSearch) Selection() []int       { return s.inner.Selection() }
func (s *tracedSearch) Len() int               { return s.inner.Len() }
func (s *tracedSearch) Contains(cand int) bool { return s.inner.Contains(cand) }

func (s *tracedSearch) GainAdd(cand int) int {
	defer s.scanned("scan.GainAdd")()
	return s.inner.GainAdd(cand)
}

func (s *tracedSearch) BestAdd() (cand, gain int) {
	defer s.scanned("scan.BestAdd")()
	return s.inner.BestAdd()
}

func (s *tracedSearch) GainsAdd() []int {
	defer s.scanned("scan.GainsAdd")()
	return s.inner.GainsAdd()
}

func (s *tracedSearch) Add(cand int) {
	defer s.scanned("commit.Add")()
	s.inner.Add(cand)
}

func (s *tracedSearch) RemoveAt(pos int) {
	defer s.tr.span("remove.RemoveAt")()
	s.inner.RemoveAt(pos)
}

func (s *tracedSearch) SigmaDrop(pos int) int {
	defer s.tr.span("drop.SigmaDrop")()
	return s.inner.SigmaDrop(pos)
}

func (s *tracedSearch) SigmaDrops() []int {
	defer s.tr.span("drop.SigmaDrops")()
	return s.inner.SigmaDrops()
}

func (s *tracedSearch) BestDrop() (pos, sigma int) {
	defer s.tr.span("drop.BestDrop")()
	return s.inner.BestDrop()
}

func (s *tracedSearch) SetWorkers(n int)               { s.inner.SetWorkers(n) }
func (s *tracedSearch) SetContext(ctx context.Context) { s.inner.SetContext(ctx) }
func (s *tracedSearch) EnableScanTiming(on bool)       { s.inner.EnableScanTiming(on) }

func (s *tracedSearch) LastScanShards() (minNS, maxNS int64, shards int) {
	return s.inner.LastScanShards()
}

func (s *tracedSearch) LastEvalStats() (rowsMerged, rowsUnchanged, pairsRescanned, pairsSkipped int64) {
	return s.inner.LastEvalStats()
}
