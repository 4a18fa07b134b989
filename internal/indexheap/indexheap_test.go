package indexheap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPushPopOrder(t *testing.T) {
	h := New(10)
	keys := []float64{5, 1, 4, 2, 3}
	for i, k := range keys {
		h.Push(i, k)
	}
	want := []int{1, 3, 4, 2, 0} // items sorted by key
	for _, wantItem := range want {
		item, _ := h.Pop()
		if item != wantItem {
			t.Fatalf("pop order wrong: got %d, want %d", item, wantItem)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("heap not empty: %d", h.Len())
	}
}

// DecreaseKey lowers the priority of an item already in the heap. It is a
// no-op if the new priority is not smaller. It panics if the item is absent.
func (h *Heap) DecreaseKey(item int, priority float64) {
	if h.pos[item] < 0 {
		panic("indexheap: DecreaseKey on absent item")
	}
	if priority >= h.key[item] {
		return
	}
	h.key[item] = priority
	h.siftUp(int(h.pos[item]))
}

func TestDecreaseKey(t *testing.T) {
	h := New(4)
	h.Push(0, 10)
	h.Push(1, 20)
	h.Push(2, 30)
	h.DecreaseKey(2, 5)
	if item, key := h.Pop(); item != 2 || key != 5 {
		t.Fatalf("pop = (%d, %v), want (2, 5)", item, key)
	}
	// Increase attempts are ignored.
	h.DecreaseKey(1, 50)
	if item, _ := h.Pop(); item != 0 {
		t.Fatalf("pop = %d, want 0", item)
	}
}

func TestPushActsAsDecreaseKey(t *testing.T) {
	h := New(3)
	h.Push(0, 10)
	h.Push(0, 3) // lower: decrease
	h.Push(0, 8) // higher: ignored
	if item, key := h.Pop(); item != 0 || key != 3 {
		t.Fatalf("pop = (%d, %v), want (0, 3)", item, key)
	}
}

func TestContainsAndKey(t *testing.T) {
	h := New(3)
	h.Push(1, 7)
	if !h.Contains(1) || h.Contains(0) {
		t.Fatal("Contains wrong")
	}
	if h.Key(1) != 7 {
		t.Fatalf("Key = %v", h.Key(1))
	}
	h.Pop()
	if h.Contains(1) {
		t.Fatal("popped item still contained")
	}
}

func TestReset(t *testing.T) {
	h := New(5)
	for i := 0; i < 5; i++ {
		h.Push(i, float64(i))
	}
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("len after reset = %d", h.Len())
	}
	for i := 0; i < 5; i++ {
		if h.Contains(i) {
			t.Fatalf("item %d contained after reset", i)
		}
	}
	// Reusable after reset.
	h.Push(3, 1)
	if item, _ := h.Pop(); item != 3 {
		t.Fatal("heap unusable after reset")
	}
}

func TestPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Pop()
}

func TestDecreaseKeyAbsentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2).DecreaseKey(0, 1)
}

// Property: popping everything yields keys in nondecreasing order and
// matches sorting the final key of each item.
func TestQuickHeapSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		h := New(n)
		final := make(map[int]float64)
		// Random pushes and decrease-keys.
		for op := 0; op < 3*n; op++ {
			item := rng.Intn(n)
			key := rng.Float64() * 100
			if cur, ok := final[item]; !ok || key < cur {
				final[item] = key
			}
			h.Push(item, key)
		}
		var want []float64
		for _, k := range final {
			want = append(want, k)
		}
		sort.Float64s(want)
		prev := -1.0
		count := 0
		for h.Len() > 0 {
			item, key := h.Pop()
			if key < prev {
				return false
			}
			if final[item] != key {
				return false
			}
			prev = key
			count++
		}
		return count == len(final)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
