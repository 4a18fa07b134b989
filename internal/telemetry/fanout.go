package telemetry

import (
	"io"
	"sync"
	"sync/atomic"
)

// FanoutSink multiplexes one telemetry stream to many consumers: attached
// Sinks (a JSONL file, a flight-recorder ring) receive every event
// synchronously, and channel Subscriptions (the ops server's /events
// stream) receive events best-effort — a subscriber that cannot keep up
// loses events rather than stalling the solver.
//
// Emit is safe for concurrent use and holds only a read lock, so
// subscribers may attach and detach while a solve is running. The zero
// value is ready to use; a *FanoutSink with no consumers is a valid (if
// pointless) Sink.
type FanoutSink struct {
	mu    sync.RWMutex
	sinks []Sink
	subs  map[*Subscription]struct{}
	// droppedTotal accumulates drops folded in from closed subscriptions;
	// Dropped adds the live subscriptions on top, so the total never goes
	// backwards when a slow client disconnects.
	droppedTotal atomic.Int64
}

// NewFanout returns an empty fanout sink.
func NewFanout() *FanoutSink { return &FanoutSink{} }

// Attach adds a synchronous consumer: every subsequent Emit calls s.Emit
// inline, in attachment order. Attached sinks must tolerate concurrent
// Emit calls, exactly like any other Sink.
func (f *FanoutSink) Attach(s Sink) {
	if s == nil {
		return
	}
	f.mu.Lock()
	f.sinks = append(f.sinks, s)
	f.mu.Unlock()
}

// Emit implements Sink: forward to every attached sink, then offer the
// event to every subscription without blocking. A subscription whose
// buffer is full counts the event as dropped instead of delaying the
// emitter — solver progress never depends on how fast an HTTP client
// reads.
func (f *FanoutSink) Emit(e Event) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, s := range f.sinks {
		s.Emit(e)
	}
	for sub := range f.subs {
		select {
		case sub.ch <- e:
		default:
			sub.dropped.Add(1)
		}
	}
}

// Subscribe registers a buffered live-event consumer and returns its
// Subscription. buf <= 0 selects a default buffer of 64 events. The caller
// must eventually call Close, or the subscription leaks.
func (f *FanoutSink) Subscribe(buf int) *Subscription {
	if buf <= 0 {
		buf = 64
	}
	sub := &Subscription{f: f, ch: make(chan Event, buf)}
	f.mu.Lock()
	if f.subs == nil {
		f.subs = make(map[*Subscription]struct{})
	}
	f.subs[sub] = struct{}{}
	f.mu.Unlock()
	return sub
}

// Subscribers reports the number of live subscriptions.
func (f *FanoutSink) Subscribers() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.subs)
}

// Dropped reports the total number of events dropped across all
// subscriptions, past and present.
func (f *FanoutSink) Dropped() int64 {
	total := f.droppedTotal.Load()
	f.mu.RLock()
	for sub := range f.subs {
		total += sub.dropped.Load()
	}
	f.mu.RUnlock()
	return total
}

// Subscription is one live consumer of a FanoutSink. Events arrive on
// Events() in emission order; events offered while the buffer was full are
// counted by Dropped rather than delivered late.
type Subscription struct {
	f       *FanoutSink
	ch      chan Event
	dropped atomic.Int64
	once    sync.Once
}

// Events returns the receive channel. It is closed by Close.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Dropped reports how many events this subscription lost to a full buffer.
func (s *Subscription) Dropped() int64 { return s.dropped.Load() }

// Close detaches the subscription and closes its channel. Safe to call
// more than once. After Close returns, no further sends can occur (removal
// happens under the fanout's write lock, which excludes in-flight Emits).
func (s *Subscription) Close() {
	s.once.Do(func() {
		s.f.mu.Lock()
		delete(s.f.subs, s)
		s.f.droppedTotal.Add(s.dropped.Load())
		s.f.mu.Unlock()
		close(s.ch)
	})
}

// RingSink is the flight recorder's buffer: a fixed-capacity ring holding
// the most recent events, safe for concurrent Emit. Recording one event is
// a mutex-guarded pointer store — no encoding, no allocation beyond the
// interface value — so the ring can stay attached to a hot solve.
//
// The recorded events are dumped as schema-valid JSONL (the same encoding
// JSONLSink writes, accepted by ValidateJSONL) by WriteJSONL: on SIGQUIT,
// on shard panic, or on demand via the ops server's /debug/flightrecorder.
type RingSink struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	full  bool
	total int64
}

// NewRing returns a ring buffer holding the last n events (n < 1 is
// clamped to 1).
func NewRing(n int) *RingSink {
	if n < 1 {
		n = 1
	}
	return &RingSink{buf: make([]Event, n)}
}

// Emit implements Sink.
func (r *RingSink) Emit(e Event) {
	r.mu.Lock()
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.total++
	r.mu.Unlock()
}

// Total returns how many events were ever recorded (including those the
// ring has since overwritten).
func (r *RingSink) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Events returns the buffered events, oldest first.
func (r *RingSink) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked()
}

func (r *RingSink) snapshotLocked() []Event {
	if !r.full {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// WriteJSONL dumps the buffered events, oldest first, in the canonical
// JSONL encoding. It snapshots the ring under the lock and encodes outside
// it, so a dump never stalls concurrent recording. It returns the number
// of events written and the first encoding or write error.
func (r *RingSink) WriteJSONL(w io.Writer) (n int, err error) {
	r.mu.Lock()
	events := r.snapshotLocked()
	r.mu.Unlock()
	for _, e := range events {
		line, err := EncodeEvent(e)
		if err != nil {
			return n, err
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}
