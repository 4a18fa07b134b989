package core

import (
	"testing"

	"msc/internal/xrand"
)

// TestRemoveAtRebuildBitIdentical is the regression the survivable failure
// evaluator leans on: RemoveAt always leaves the rows stale for a rebuild
// (a deletion can lengthen distances, and min-merges cannot undo a min),
// and the state the rebuild produces — endpoint balls, pair distances, σ,
// and the next gains scan — must be bit-identical to a search built cold
// on the reduced selection, under both eval modes and after incremental
// (merge-path) adds.
func TestRemoveAtRebuildBitIdentical(t *testing.T) {
	for _, mode := range []EvalMode{EvalIncremental, EvalRebuild} {
		rng := xrand.New(5150)
		for trial := 0; trial < 8; trial++ {
			inst := testInstance(t, 16, 7, 6, 0.9, rng)
			warm, ok := inst.NewSearch(nil).(*instSearch)
			if !ok {
				t.Fatalf("mode=%s: NewSearch returned %T", mode, warm)
			}
			warm.incremental = mode == EvalIncremental
			// Grow through the mode's Add path, with a gains array read before
			// every commit so removal must drop a live array, not a cold one.
			adds := rng.SampleDistinct(inst.NumCandidates(), 4)
			for _, c := range adds {
				warm.GainsAdd()
				warm.Add(c)
			}
			pos := rng.Intn(len(adds))
			warm.RemoveAt(pos)
			if !warm.stale || warm.gainsValid {
				t.Fatalf("mode=%s trial=%d: RemoveAt left rows or gains live", mode, trial)
			}

			cold, _ := inst.NewSearch(warm.sel).(*instSearch)
			warm.sync()
			cold.sync()
			if warm.sigma != cold.sigma {
				t.Fatalf("mode=%s trial=%d: σ after RemoveAt %d != cold %d", mode, trial, warm.sigma, cold.sigma)
			}
			if err := ballsBitEqual(warm.balls, cold.balls); err != nil {
				t.Fatalf("mode=%s trial=%d: %v", mode, trial, err)
			}
			for i := range warm.pairDist {
				if warm.pairDist[i] != cold.pairDist[i] {
					t.Fatalf("mode=%s trial=%d: pairDist[%d] %v != cold %v",
						mode, trial, i, warm.pairDist[i], cold.pairDist[i])
				}
			}
			wg := append([]int(nil), warm.GainsAdd()...)
			cg := cold.GainsAdd()
			for c := range wg {
				if wg[c] != cg[c] {
					t.Fatalf("mode=%s trial=%d: post-remove gains[%d] = %d, cold %d",
						mode, trial, c, wg[c], cg[c])
				}
			}
		}
	}
}
