package shortestpath

import (
	"sync"
	"sync/atomic"
	"testing"

	"msc/internal/graph"
)

// TestMemoFillsOncePerNode hammers one memo from many goroutines: every
// node is filled exactly once, only the first Get of a node reports a miss,
// and every caller sees the value of the single fill.
func TestMemoFillsOncePerNode(t *testing.T) {
	const nodes, workers = 40, 8
	var fills [nodes]atomic.Int64
	m := NewMemo(func(u graph.NodeID) []int {
		fills[u].Add(1)
		return []int{int(u) * 3}
	})
	var misses atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for i := 0; i < nodes; i++ {
					u := graph.NodeID((i + w*7) % nodes)
					v, hit := m.Get(u)
					if !hit {
						misses.Add(1)
					}
					if len(v) != 1 || v[0] != int(u)*3 {
						panic("memo returned a wrong or torn value")
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for u := range fills {
		if got := fills[u].Load(); got != 1 {
			t.Errorf("node %d filled %d times, want 1", u, got)
		}
	}
	if got := misses.Load(); got != nodes {
		t.Errorf("%d misses, want one per node (%d)", got, nodes)
	}
	if got := m.Len(); got != nodes {
		t.Errorf("Len = %d, want %d", got, nodes)
	}
	a, _ := m.Get(5)
	b, hit := m.Get(5)
	if !hit || &a[0] != &b[0] {
		t.Error("repeat Get(5) did not return the memoized value")
	}
}
