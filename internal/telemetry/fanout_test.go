package telemetry

import (
	"bytes"
	"sync"
	"testing"
)

// collectSink gathers events under a mutex — the simplest conforming Sink.
type collectSink struct {
	mu     sync.Mutex
	events []Event
}

func (c *collectSink) Emit(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *collectSink) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

func TestFanoutForwardsToAttachedSinks(t *testing.T) {
	f := NewFanout()
	a, b := &collectSink{}, &collectSink{}
	f.Attach(a)
	f.Attach(b)
	f.Attach(nil) // nil attachments are ignored, not stored
	for i := 0; i < 5; i++ {
		f.Emit(RoundEvent{Round: i})
	}
	if a.len() != 5 || b.len() != 5 {
		t.Fatalf("attached sinks saw %d/%d events, want 5/5", a.len(), b.len())
	}
	if got := a.events[3].(RoundEvent).Round; got != 3 {
		t.Fatalf("events out of order: round %d at index 3", got)
	}
}

func TestFanoutSubscriptionReceivesInOrder(t *testing.T) {
	f := NewFanout()
	sub := f.Subscribe(16)
	for i := 0; i < 10; i++ {
		f.Emit(RoundEvent{Round: i})
	}
	sub.Close()
	i := 0
	for e := range sub.Events() {
		if got := e.(RoundEvent).Round; got != i {
			t.Fatalf("event %d has round %d", i, got)
		}
		i++
	}
	if i != 10 {
		t.Fatalf("received %d events, want 10", i)
	}
	if d := f.Dropped(); d != 0 {
		t.Fatalf("Dropped() = %d with a keeping-up subscriber", d)
	}
}

func TestFanoutSlowSubscriberDropsInsteadOfBlocking(t *testing.T) {
	f := NewFanout()
	sub := f.Subscribe(2)
	// Nothing reads sub: after the buffer fills, Emit must complete anyway.
	for i := 0; i < 10; i++ {
		f.Emit(RoundEvent{Round: i})
	}
	if got := sub.Dropped(); got != 8 {
		t.Fatalf("subscription dropped %d events, want 8", got)
	}
	if got := f.Dropped(); got != 8 {
		t.Fatalf("fanout Dropped() = %d, want 8", got)
	}
	sub.Close()
	// Drops survive the subscription: they fold into the fanout's total.
	if got := f.Dropped(); got != 8 {
		t.Fatalf("fanout Dropped() = %d after Close, want 8", got)
	}
	if got := f.Subscribers(); got != 0 {
		t.Fatalf("Subscribers() = %d after Close, want 0", got)
	}
}

func TestFanoutSubscriptionCloseIdempotent(t *testing.T) {
	f := NewFanout()
	sub := f.Subscribe(0)
	sub.Close()
	sub.Close() // must not panic (double channel close) or deadlock
	if _, ok := <-sub.Events(); ok {
		t.Fatal("Events() channel still open after Close")
	}
}

// TestFanoutConcurrentStress is the -race exercise for the fanout: many
// emitters racing many subscribers that attach, read, and detach while
// events are in flight, plus an attached ring recorder. The assertions are
// weak (no panic, no deadlock, attached sink saw everything); the value is
// the race detector's.
func TestFanoutConcurrentStress(t *testing.T) {
	f := NewFanout()
	ring := NewRing(64)
	f.Attach(ring)
	const (
		emitters  = 4
		perEmit   = 200
		consumers = 6
	)
	var emitWG, consWG sync.WaitGroup
	for e := 0; e < emitters; e++ {
		emitWG.Add(1)
		go func(id int) {
			defer emitWG.Done()
			for i := 0; i < perEmit; i++ {
				f.Emit(RoundEvent{Round: id*perEmit + i})
			}
		}(e)
	}
	subs := make([]*Subscription, consumers)
	for c := 0; c < consumers; c++ {
		sub := f.Subscribe(8)
		subs[c] = sub
		consWG.Add(1)
		go func(sub *Subscription) {
			defer consWG.Done()
			for i := 0; i < 50; i++ {
				if _, ok := <-sub.Events(); !ok {
					return
				}
			}
			sub.Close() // fast consumer: detach while emitters still run
		}(sub)
	}
	emitWG.Wait()
	// A consumer that lost events to drops will never see its 50th event;
	// closing from here exercises cross-goroutine Close waking a blocked
	// receive. Close is idempotent, so racing the fast path is fine.
	for _, sub := range subs {
		sub.Close()
	}
	consWG.Wait()
	// Late subscribers may have closed before all events flowed; but the
	// attached ring saw every emission synchronously.
	if got := ring.Total(); got != emitters*perEmit {
		t.Fatalf("ring recorded %d events, want %d", got, emitters*perEmit)
	}
	// Consumers that exited early leave buffered events behind; Dropped must
	// still be readable and non-negative.
	if f.Dropped() < 0 {
		t.Fatal("negative drop count")
	}
}

func TestRingSinkWraparoundKeepsNewest(t *testing.T) {
	r := NewRing(4)
	if len(r.buf) != 4 {
		t.Fatalf("capacity = %d, want 4", len(r.buf))
	}
	for i := 0; i < 10; i++ {
		r.Emit(RoundEvent{Round: i})
	}
	if got := r.Total(); got != 10 {
		t.Fatalf("Total() = %d, want 10", got)
	}
	events := r.Events()
	if len(events) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(events))
	}
	for i, e := range events {
		if got := e.(RoundEvent).Round; got != 6+i {
			t.Fatalf("ring[%d].Round = %d, want %d (oldest-first newest-4)", i, got, 6+i)
		}
	}
}

func TestRingSinkPartialFill(t *testing.T) {
	r := NewRing(8)
	r.Emit(RoundEvent{Round: 0})
	r.Emit(CheckpointEvent{Round: 1})
	events := r.Events()
	if len(events) != 2 {
		t.Fatalf("ring holds %d events, want 2", len(events))
	}
	if _, ok := events[1].(CheckpointEvent); !ok {
		t.Fatalf("ring[1] = %T, want CheckpointEvent", events[1])
	}
}

func TestRingSinkClampsCapacity(t *testing.T) {
	r := NewRing(0)
	if len(r.buf) != 1 {
		t.Fatalf("NewRing(0) capacity = %d, want 1", len(r.buf))
	}
	r.Emit(RoundEvent{Round: 7})
	r.Emit(RoundEvent{Round: 8})
	if got := r.Events()[0].(RoundEvent).Round; got != 8 {
		t.Fatalf("single-slot ring holds round %d, want 8", got)
	}
}

// TestRingSinkWriteJSONLValidates pins the flight-recorder contract: a dump
// is a schema-valid JSONL document — the same validator CI runs over
// mscbench output accepts it.
func TestRingSinkWriteJSONLValidates(t *testing.T) {
	r := NewRing(16)
	r.Emit(RoundEvent{Algorithm: "greedy_sigma", Round: 0, Gain: 2})
	r.Emit(SandwichEvent{Best: "sigma"})
	r.Emit(DynamicStepEvent{Sigma: 2})
	r.Emit(CheckpointEvent{Round: 1})
	r.Emit(RunRecord{Name: "t", Algorithm: "greedy_sigma"})
	var buf bytes.Buffer
	n, err := r.WriteJSONL(&buf)
	if err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if n != 5 {
		t.Fatalf("WriteJSONL wrote %d events, want 5", n)
	}
	counts, err := ValidateJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("flight dump fails schema validation: %v", err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 5 {
		t.Fatalf("validator counted %d events, want 5", total)
	}
}

// TestRingSinkConcurrentEmitAndDump races recorders against dumpers — the
// snapshot-under-lock, encode-outside-lock path must hold up under -race.
func TestRingSinkConcurrentEmitAndDump(t *testing.T) {
	r := NewRing(32)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Emit(RoundEvent{Round: id*100 + i})
			}
		}(w)
	}
	for d := 0; d < 2; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var buf bytes.Buffer
				if _, err := r.WriteJSONL(&buf); err != nil {
					t.Errorf("concurrent WriteJSONL: %v", err)
					return
				}
				if _, err := ValidateJSONL(bytes.NewReader(buf.Bytes())); err != nil {
					t.Errorf("concurrent dump invalid: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Total(); got != 400 {
		t.Fatalf("Total() = %d, want 400", got)
	}
}
