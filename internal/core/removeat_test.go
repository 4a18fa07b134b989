package core

import (
	"testing"

	"msc/internal/xrand"
)

// TestRemoveAtRebuildBitIdentical is the regression the survivable failure
// evaluator leans on: RemoveAt always leaves the balls stale for a rebuild
// (a deletion can lengthen distances, and min-merges cannot undo a min),
// and the state the rebuild produces — endpoint balls, pair distances, σ,
// and the next gains scan — must be bit-identical to a search built cold
// on the reduced selection, after merge-path adds and on the rebuild
// reference alike.
func TestRemoveAtRebuildBitIdentical(t *testing.T) {
	for _, path := range searchPaths {
		rng := xrand.New(5150)
		for trial := 0; trial < 8; trial++ {
			inst := testInstance(t, 16, 7, 6, 0.9, rng)
			srch := path.newSearch(inst, nil)
			// Grow through the path's Add, with a gains array read before
			// every commit so removal must drop a live array, not a cold one.
			adds := rng.SampleDistinct(inst.NumCandidates(), 4)
			for _, c := range adds {
				srch.GainsAdd()
				srch.Add(c)
			}
			pos := rng.Intn(len(adds))
			srch.RemoveAt(pos)
			warm := plainSearch(srch)
			if !warm.stale || warm.gainsValid {
				t.Fatalf("%s trial=%d: RemoveAt left balls or gains live", path.name, trial)
			}

			cold := inst.newInstSearch(warm.sel)
			warm.sync()
			cold.sync()
			if warm.sigma != cold.sigma {
				t.Fatalf("%s trial=%d: σ after RemoveAt %d != cold %d", path.name, trial, warm.sigma, cold.sigma)
			}
			if err := ballsBitEqual(warm.balls, cold.balls); err != nil {
				t.Fatalf("%s trial=%d: %v", path.name, trial, err)
			}
			for i := range warm.pairDist {
				if warm.pairDist[i] != cold.pairDist[i] {
					t.Fatalf("%s trial=%d: pairDist[%d] %v != cold %v",
						path.name, trial, i, warm.pairDist[i], cold.pairDist[i])
				}
			}
			wg := append([]int(nil), warm.GainsAdd()...)
			cg := cold.GainsAdd()
			for c := range wg {
				if wg[c] != cg[c] {
					t.Fatalf("%s trial=%d: post-remove gains[%d] = %d, cold %d",
						path.name, trial, c, wg[c], cg[c])
				}
			}
		}
	}
}
