package shortestpath

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"msc/internal/xrand"
)

// refAppendMinMerge is the cursor merge the scatter kernel replaced, kept
// as its reference: per output id it scans every cursor once for the
// smallest next id and once more to fold the shifted entries at that id in
// ball order with a strict <. O(len(balls) · Σ len).
func refAppendMinMerge(dst Ball, bound float64, shift []float64, balls []Ball) (out Ball, improved bool) {
	var curBuf [8]int
	var cur []int
	if len(balls) <= len(curBuf) {
		cur = curBuf[:len(balls)]
	} else {
		cur = make([]int, len(balls))
	}
	for {
		next, found := int32(0), false
		for i, b := range balls {
			if c := cur[i]; c < len(b.IDs) && (!found || b.IDs[c] < next) {
				next, found = b.IDs[c], true
			}
		}
		if !found {
			return dst, improved
		}
		best, base := Inf, Inf
		for i, b := range balls {
			if c := cur[i]; c < len(b.IDs) && b.IDs[c] == next {
				d := shift[i] + b.Dist[c]
				if i == 0 {
					base = d
				}
				if d < best {
					best = d
				}
				cur[i] = c + 1
			}
		}
		if best <= bound {
			dst.IDs = append(dst.IDs, next)
			dst.Dist = append(dst.Dist, best)
			if best < base {
				improved = true
			}
		}
	}
}

// The fuzz input encoding. Byte 0 picks the node count, byte 1 the bound,
// byte 2 the ball count K = 1 + b%17. Each ball then reads a shift byte, a
// length byte (L = b%24) and L (gap, dist) byte pairs. An entry's id is
// the previous id + 1 + step(gap), where gaps ≥ 200 step by 512s (across
// summary words) and gap 255 jumps to n−1; ids past n end the ball.
// Missing bytes read as 0.
var (
	mergeSizes  = []int{1, 2, 64, 65, 200, 4096, 4097, 9000, 70000}
	mergeBounds = []float64{0, 1, 2.5, 3, math.Inf(1), 0.3, math.Copysign(0, -1)}
	mergeVals   = []float64{0, math.Copysign(0, -1), 0.5, 1, 1.5, 2, 2.5, 3, math.Inf(1), 0.1, 0.2, 0.3}
)

// decodeMerge turns fuzz bytes into a merge's node count, bound, shifts
// and balls. The values are non-negative (±0 and +Inf included), so no sum
// is NaN.
func decodeMerge(data []byte) (n int, bound float64, shift []float64, balls []Ball) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n = mergeSizes[next()%len(mergeSizes)]
	bound = mergeBounds[next()%len(mergeBounds)]
	k := 1 + next()%17
	for i := 0; i < k; i++ {
		shift = append(shift, mergeVals[next()%len(mergeVals)])
		var b Ball
		id := -1
		for l := next() % 24; l > 0; l-- {
			gap, dist := next(), next()
			switch {
			case gap == 255:
				id = max(id+1, n-1)
			case gap >= 200:
				id += 1 + (gap-200)*512
			default:
				id += 1 + gap
			}
			if id >= n {
				break
			}
			b.IDs = append(b.IDs, int32(id))
			b.Dist = append(b.Dist, mergeVals[dist%len(mergeVals)])
		}
		balls = append(balls, b)
	}
	return n, bound, shift, balls
}

// mergeSeeds are the fuzz corpus seeds: ±0 distances and shifts, equal
// sums across balls, sums exactly at the bound, empty balls, K = 1…17,
// ids 0 and n−1, and ids that cross summary words.
func mergeSeeds() [][]byte {
	seeds := [][]byte{
		// ±0: n=64, bound 0; three balls of +0/−0 entries with ±0 shifts.
		{2, 0, 2, 1, 2, 0, 0, 0, 1, 0, 3, 0, 1, 0, 0, 0, 1, 1, 2, 1, 1, 0, 1},
		// −0 bound against +0 and −0 sums.
		{2, 6, 1, 0, 2, 0, 1, 0, 0, 1, 2, 0, 0, 0, 1},
		// Equal sums at the same ids in four identical balls, n=200.
		{4, 3, 3, 3, 3, 5, 0, 3, 2, 0, 3, 3, 3, 5, 0, 3, 2, 0, 3, 3, 3, 5, 0, 3, 2, 0, 3, 3, 3, 5, 0, 3, 2, 0, 3},
		// Sums exactly at the bound 2.5 in every ball (0.5 + 2, 1 + 1.5,
		// 0 + 2.5), one sum above it.
		{4, 2, 2, 2, 2, 0, 5, 1, 5, 3, 2, 0, 4, 0, 4, 0, 3, 0, 6, 0, 6, 0, 7},
		// 0.3 at bound 0.3 against 0.1 + 0.2, which rounds above it, in
		// both ball orders.
		{4, 5, 1, 11, 1, 0, 0, 9, 1, 0, 10},
		{4, 5, 1, 9, 1, 0, 10, 11, 1, 0, 0},
		// Empty balls: ball 0 empty, and an empty ball between two others.
		{3, 3, 3, 0, 0, 2, 2, 0, 1, 3, 0, 3, 0, 0, 3, 5, 2, 1, 0, 2, 3},
		// ids 0 and n−1, n = 4097 and 70000, bound +Inf, +Inf shift and
		// distances.
		{6, 4, 1, 0, 2, 0, 0, 255, 3, 3, 2, 0, 4, 255, 8},
		{8, 4, 2, 0, 2, 0, 0, 255, 3, 8, 2, 0, 8, 255, 8, 3, 1, 255, 0},
		// ids crossing summary words (4096 ids each) on n = 9000 and 70000.
		{7, 3, 1, 0, 5, 0, 1, 207, 2, 201, 3, 201, 4, 202, 5, 4, 4, 207, 1, 0, 0, 201, 2, 208, 0},
		{8, 4, 1, 0, 4, 254, 1, 254, 2, 210, 3, 255, 4, 3, 3, 253, 0, 1, 0, 255, 0},
	}
	// K = 1…17 on n = 9000 at bound 3: ball i shifted by vals[i%12], three
	// entries each, overlapping at low ids; the third lands past 3584 or
	// past 4096.
	for k := 1; k <= 17; k++ {
		s := []byte{7, 3, byte(k - 1)}
		for i := 0; i < k; i++ {
			s = append(s, byte(i%len(mergeVals)), 3, byte(i%3), 1, byte(i%4), 3, byte(207+i%2), byte(i%12))
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// checkMerge merges one decoded case in m (appending to a non-empty dst
// when withPrefix is set) and compares the output bits and improved with
// the reference, then checks the merger is left clear.
func checkMerge(t *testing.T, m *Merger, bound float64, shift []float64, balls []Ball, withPrefix bool) {
	t.Helper()
	var dst, refDst Ball
	if withPrefix {
		dst = Ball{IDs: []int32{5}, Dist: []float64{0.25}}
		refDst = Ball{IDs: []int32{5}, Dist: []float64{0.25}}
	}
	got, improved := m.AppendMinMerge(dst, bound, shift, balls)
	want, wantImproved := refAppendMinMerge(refDst, bound, shift, balls)
	if !ballsBitEqual(got, want) || improved != wantImproved {
		t.Fatalf("merge = %v (improved %v), reference %v (improved %v); bound %v, shift %v, balls %v", got, improved, want, wantImproved, bound, shift, balls)
	}
	for _, w := range m.bits {
		if w != 0 {
			t.Fatal("merge left a bitmap bit set")
		}
	}
	for _, w := range m.summary {
		if w != 0 {
			t.Fatal("merge left a summary bit set")
		}
	}
}

// FuzzAppendMinMerge compares the scatter-bitmap merge with the cursor
// reference on decoded merges: same ids, same distance bits, same
// improved, and a clear merger afterwards. Mergers are reused across
// inputs, as the free list reuses them.
func FuzzAppendMinMerge(f *testing.F) {
	for _, s := range mergeSeeds() {
		f.Add(s)
	}
	mergers := map[int]*Merger{}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, bound, shift, balls := decodeMerge(data)
		m := mergers[n]
		if m == nil {
			m = newMerger(n)
			mergers[n] = m
		}
		checkMerge(t, m, bound, shift, balls, len(data)%2 == 1)
	})
}

// TestAppendMinMergeRandom runs the reference comparison on random
// workload-shaped merges at every size the fuzz encoding offers.
func TestAppendMinMergeRandom(t *testing.T) {
	rng := xrand.New(4242)
	for iter := 0; iter < 3000; iter++ {
		data := make([]byte, 8+rng.Intn(400))
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		n, bound, shift, balls := decodeMerge(data)
		checkMerge(t, newMerger(n), bound, shift, balls, iter%2 == 0)
	}
}

// TestMergersConcurrent has several goroutines draw mergers from one free
// list at once and merge with them: every merge must match the reference,
// so no two goroutines ever share a merger.
func TestMergersConcurrent(t *testing.T) {
	const n, workers, rounds = 9000, 4, 200
	mergers := NewMergers(n)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(int64(100 + w))
			for r := 0; r < rounds; r++ {
				data := make([]byte, 8+rng.Intn(200))
				for i := range data {
					data[i] = byte(rng.Intn(256))
				}
				data[0] = 7 // n = 9000
				_, bound, shift, balls := decodeMerge(data)
				m := mergers.Get()
				got, improved := m.AppendMinMerge(Ball{}, bound, shift, balls)
				mergers.Put(m)
				want, wantImproved := refAppendMinMerge(Ball{}, bound, shift, balls)
				if !ballsBitEqual(got, want) || improved != wantImproved {
					errs[w] = fmt.Errorf("worker %d round %d: merge differs from the reference", w, r)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// ballsBitEqual reports whether a and b hold the same ids and the same
// distance bits.
func ballsBitEqual(a, b Ball) bool {
	if a.Len() != b.Len() || len(a.Dist) != len(b.Dist) {
		return false
	}
	for i := range a.IDs {
		if a.IDs[i] != b.IDs[i] || math.Float64bits(a.Dist[i]) != math.Float64bits(b.Dist[i]) {
			return false
		}
	}
	return true
}

// TestAppendMinMergeWarmZeroAllocs pins that a warm merge allocates
// nothing: a merger from the free list and a dst with room for the output.
func TestAppendMinMergeWarmZeroAllocs(t *testing.T) {
	shift, balls := benchMergeBalls(6)
	mergers := NewMergers(benchMergeN)
	dst := Ball{IDs: make([]int32, 0, benchMergeN), Dist: make([]float64, 0, benchMergeN)}
	merge := func() {
		m := mergers.Get()
		dst, _ = m.AppendMinMerge(Ball{IDs: dst.IDs[:0], Dist: dst.Dist[:0]}, 1, shift, balls)
		mergers.Put(m)
	}
	merge()
	if allocs := testing.AllocsPerRun(100, merge); allocs != 0 {
		t.Fatalf("warm merge allocates %v times per run, want 0", allocs)
	}
	if dst.Len() == 0 {
		t.Fatal("benchmark merge kept no entries")
	}
}

// benchMergeN is the node count of the benchmark merges, the paper-aea
// instances' n.
const benchMergeN = 400

// benchMergeBalls returns k balls shaped like the search's merges on the
// paper-aea instances (n = 400, ≈ 32 entries a ball, heavy overlap): ball
// i holds about half the ids in a 64-wide window that slides by 6 per
// ball, with distances in [0, 1); shifts after the first are in [0, 0.5),
// and the benchmark bound 1 drops the far sums.
func benchMergeBalls(k int) ([]float64, []Ball) {
	rng := xrand.New(int64(90 + k))
	shift := make([]float64, k)
	balls := make([]Ball, k)
	for i := range balls {
		if i > 0 {
			shift[i] = rng.Float64() / 2
		}
		lo := 150 + 6*i
		for id := lo; id < lo+64; id++ {
			if rng.Intn(2) == 0 {
				balls[i].IDs = append(balls[i].IDs, int32(id))
				balls[i].Dist = append(balls[i].Dist, rng.Float64())
			}
		}
	}
	return shift, balls
}

// BenchmarkAppendMinMerge times one merge of K workload-shaped balls: K ≤ 3
// is a commit's merge, K ≈ 5.3 the average of an AEA rebuild's DistBall.
// "scatter" is the kernel, "cursor" the reference merge it replaced.
func BenchmarkAppendMinMerge(b *testing.B) {
	for _, k := range []int{2, 3, 6, 12} {
		shift, balls := benchMergeBalls(k)
		dst := Ball{IDs: make([]int32, 0, benchMergeN), Dist: make([]float64, 0, benchMergeN)}
		m := newMerger(benchMergeN)
		b.Run(fmt.Sprintf("K=%d/scatter", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst, _ = m.AppendMinMerge(Ball{IDs: dst.IDs[:0], Dist: dst.Dist[:0]}, 1, shift, balls)
			}
		})
		b.Run(fmt.Sprintf("K=%d/cursor", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dst, _ = refAppendMinMerge(Ball{IDs: dst.IDs[:0], Dist: dst.Dist[:0]}, 1, shift, balls)
			}
		})
	}
}
