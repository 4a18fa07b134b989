package shortestpath

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"msc/internal/graph"
	"msc/internal/xrand"
)

// TestShardPanicIsolation: a panic in one evaluator worker must drain the
// others, leak no goroutines, and surface as a typed *PanicError on the
// caller's goroutine with the failing shard's query range and stack.
func TestShardPanicIsolation(t *testing.T) {
	e := &Evaluator{workers: 4}
	before := runtime.NumGoroutine()
	var got *PanicError
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("panic did not propagate")
			}
			var ok bool
			got, ok = r.(*PanicError)
			if !ok {
				t.Fatalf("recovered %T, want *PanicError", r)
			}
		}()
		e.shard(100, func(shard, lo, hi int) {
			if shard == 3 {
				panic("bad query")
			}
		})
	}()
	if got.Shard != 3 || got.Value != "bad query" {
		t.Fatalf("wrong panic surfaced: %+v", got)
	}
	if got.Lo >= got.Hi || got.Hi > 100 {
		t.Fatalf("range [%d, %d) not a sub-range of [0, 100)", got.Lo, got.Hi)
	}
	if len(got.Stack) == 0 {
		t.Fatal("no stack captured")
	}
	if !strings.Contains(got.Error(), "shard 3") {
		t.Fatalf("Error() = %q", got.Error())
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// evalQueries builds a deterministic query list over the graph's nodes.
func evalQueries(n, q int, rng *xrand.Rand) (us, ws []graph.NodeID) {
	for i := 0; i < q; i++ {
		us = append(us, graph.NodeID(rng.Intn(n)))
		ws = append(ws, graph.NodeID(rng.Intn(n)))
	}
	return us, ws
}

// TestEvaluatorCountWithinMatchesSerial checks the determinism contract on
// both distance backends: weighted and unweighted counts are identical for
// every worker count.
func TestEvaluatorCountWithinMatchesSerial(t *testing.T) {
	rng := xrand.New(61)
	g := randomGraph(t, 40, 70, rng)
	for _, backend := range []struct {
		name string
		src  DistanceSource
	}{
		{"dense", NewTable(g, 0)},
		{"lazy", NewLazyTable(g, LazyOptions{})},
	} {
		t.Run(backend.name, func(t *testing.T) {
			ov := NewOverlay(backend.src, []graph.Edge{{U: 0, V: 20}, {U: 5, V: 35}})
			us, ws := evalQueries(g.N(), 200, xrand.New(62))
			weights := make([]int32, len(us))
			for i := range weights {
				weights[i] = int32(1 + i%3)
			}
			bound := 2.5
			serial := NewEvaluator(ov, 1).CountWithin(us, ws, nil, bound)
			serialW := NewEvaluator(ov, 0).CountWithin(us, ws, weights, bound)
			for _, workers := range []int{2, 4, 8} {
				e := NewEvaluator(ov, workers)
				if got := e.CountWithin(us, ws, nil, bound); got != serial {
					t.Errorf("workers=%d: CountWithin = %d, want %d", workers, got, serial)
				}
				if got := e.CountWithin(us, ws, weights, bound); got != serialW {
					t.Errorf("workers=%d weighted: CountWithin = %d, want %d", workers, got, serialW)
				}
			}
		})
	}
}

func TestEvaluatorCountWithinLengthMismatch(t *testing.T) {
	g := lineGraph(t, 4)
	e := NewEvaluator(NewOverlay(NewTable(g, 0), nil), 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on query length mismatch")
		}
	}()
	e.CountWithin([]graph.NodeID{0, 1}, []graph.NodeID{2}, nil, 1)
}

// TestEvaluatorDistBallsMatchesSerial checks DistBalls against the naive
// augmented-Dijkstra reference (serially) and against itself for every
// worker count, over a lazy backend.
func TestEvaluatorDistBallsMatchesSerial(t *testing.T) {
	const bound = 1.2
	rng := xrand.New(67)
	g := randomGraph(t, 35, 60, rng)
	shortcuts := []graph.Edge{{U: 2, V: 30}, {U: 10, V: 25}}
	lt := NewLazyTable(g, LazyOptions{})
	ov := NewOverlay(lt, shortcuts)
	base := readBalls{lt, bound}
	mergers := NewMergers(g.N())
	var srcs []graph.NodeID
	for u := 0; u < g.N(); u += 2 {
		srcs = append(srcs, graph.NodeID(u))
	}
	want := make([]Ball, len(srcs))
	NewEvaluator(ov, 1).DistBalls(base, mergers, bound, srcs, want)
	for i, src := range srcs {
		ref := AugmentedDistances(g, shortcuts, src)
		for v, d := range ref {
			// Sums within rounding of the bound may fall either side.
			if got := want[i].At(graph.NodeID(v)); math.Abs(d-bound) > 1e-9 && (d <= bound) != (got <= bound) {
				t.Fatalf("serial DistBalls src %d node %d = %v, reference %v", src, v, got, d)
			} else if got <= bound && math.Abs(got-d) > 1e-9 {
				t.Fatalf("serial DistBalls src %d node %d = %v, reference %v", src, v, got, d)
			}
		}
	}
	for _, workers := range []int{2, 4, 8} {
		got := make([]Ball, len(srcs))
		NewEvaluator(ov, workers).DistBalls(base, mergers, bound, srcs, got)
		for i := range srcs {
			checkBallBits(t, int64(workers), i, got[i], want[i])
		}
	}
}

func TestEvaluatorDistBallsLengthMismatch(t *testing.T) {
	g := lineGraph(t, 4)
	tab := NewTable(g, 0)
	e := NewEvaluator(NewOverlay(tab, nil), 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on balls length mismatch")
		}
	}()
	e.DistBalls(readBalls{tab, 1}, NewMergers(tab.N()), 1, []graph.NodeID{0, 1}, make([]Ball, 1))
}

// Endpoints returns the distinct shortcut endpoints the oracle covers.
// Callers must not modify the returned slice.
func (o *Overlay) Endpoints() []graph.NodeID { return o.endpoints }

func TestOverlayEndpointsDistinct(t *testing.T) {
	g := lineGraph(t, 6)
	ov := NewOverlay(NewTable(g, 0), []graph.Edge{{U: 0, V: 3}, {U: 3, V: 5}, {U: 0, V: 5}})
	eps := ov.Endpoints()
	if len(eps) != 3 {
		t.Fatalf("Endpoints() = %v, want the 3 distinct endpoints", eps)
	}
	seen := map[graph.NodeID]bool{}
	for _, v := range eps {
		if seen[v] {
			t.Fatalf("duplicate endpoint %d in %v", v, eps)
		}
		seen[v] = true
	}
	if !seen[0] || !seen[3] || !seen[5] {
		t.Fatalf("Endpoints() = %v, want {0,3,5}", eps)
	}
}
