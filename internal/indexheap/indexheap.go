// Package indexheap implements an indexed binary min-heap keyed by float64
// priorities, supporting decrease-key in O(log n).
//
// It is the priority queue behind the Dijkstra implementations in
// internal/shortestpath. Items are dense integer ids in [0, n), which lets
// the heap track positions in a flat slice instead of a map.
package indexheap

// Heap is an indexed min-heap over items 0..n-1. The zero value is not
// usable; construct with New.
type Heap struct {
	// heap[i] is the item id stored at heap position i.
	heap []int32
	// pos[item] is the heap position of item, or -1 if absent.
	pos []int32
	// key[item] is the priority of item (valid only while the item is in
	// the heap or after it was pushed at least once).
	key []float64
}

// New returns an empty heap over the item universe [0, n).
func New(n int) *Heap {
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	return &Heap{
		heap: make([]int32, 0, n),
		pos:  pos,
		key:  make([]float64, n),
	}
}

// Len returns the number of items currently in the heap.
func (h *Heap) Len() int { return len(h.heap) }

// Contains reports whether item is currently in the heap.
func (h *Heap) Contains(item int) bool { return h.pos[item] >= 0 }

// Key returns the last priority assigned to item via Push.
// The value is meaningful only if the item was inserted at least once.
func (h *Heap) Key(item int) float64 { return h.key[item] }

// Push inserts item with the given priority. If the item is already in the
// heap, Push lowers its priority when the new priority is smaller and
// is a no-op otherwise.
func (h *Heap) Push(item int, priority float64) {
	if h.pos[item] >= 0 {
		if priority < h.key[item] {
			h.key[item] = priority
			h.siftUp(int(h.pos[item]))
		}
		return
	}
	h.key[item] = priority
	h.heap = append(h.heap, int32(item))
	h.pos[item] = int32(len(h.heap) - 1)
	h.siftUp(len(h.heap) - 1)
}

// Pop removes and returns the item with the minimum priority together with
// that priority. It panics on an empty heap.
func (h *Heap) Pop() (item int, priority float64) {
	if len(h.heap) == 0 {
		panic("indexheap: Pop from empty heap")
	}
	top := h.heap[0]
	last := len(h.heap) - 1
	h.swap(0, last)
	h.heap = h.heap[:last]
	h.pos[top] = -1
	if last > 0 {
		h.siftDown(0)
	}
	return int(top), h.key[top]
}

// Reset empties the heap in O(len) so it can be reused without reallocating.
func (h *Heap) Reset() {
	for _, item := range h.heap {
		h.pos[item] = -1
	}
	h.heap = h.heap[:0]
}

func (h *Heap) less(i, j int) bool {
	return h.key[h.heap[i]] < h.key[h.heap[j]]
}

func (h *Heap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = int32(i)
	h.pos[h.heap[j]] = int32(j)
}

func (h *Heap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *Heap) siftDown(i int) {
	n := len(h.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && h.less(right, left) {
			smallest = right
		}
		if !h.less(smallest, i) {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
