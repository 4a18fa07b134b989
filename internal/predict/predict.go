// Package predict forecasts future network topologies from an observed
// mobility-trace prefix.
//
// The paper's dynamic treatment (§VI) assumes the topology series
// G_1..G_T is *given* by prediction techniques — node-mobility prediction
// [21], [22] and social-evolution prediction [23] — and explicitly leaves
// prediction accuracy out of scope. This package supplies the missing
// substrate so that assumption can be exercised end to end: a group-aware
// dead-reckoning predictor extrapolates each squad's motion from the last
// observed snapshots, producing the predicted series placements are
// computed on. The ext3 experiment then measures how much placement
// quality degrades when the plan is made on predictions but graded
// against what actually happened.
package predict

import (
	"errors"
	"fmt"

	"msc/internal/geom"
	"msc/internal/mobility"
)

// Errors returned by DeadReckon.
var (
	ErrObserved = errors.New("predict: need at least two observed snapshots")
	ErrHorizon  = errors.New("predict: horizon must be at least one step")
)

// DeadReckon predicts `horizon` future snapshots from the first
// `observed` snapshots of a trace using group-aware dead reckoning:
//
//   - each group's reference point advances with the group centroid's
//     velocity estimated over the observed window (least-squares over the
//     last min(observed, 4) snapshots degrades gracefully to two-point
//     differencing);
//   - each member holds its most recent offset from its group centroid
//     (squad formations persist far better than individual jitter).
//
// The returned trace contains only the predicted snapshots, so
// Positions[h] forecasts observed+h. Predictions are clamped to the
// bounding box of the observed positions, expanded by one step of motion,
// mirroring how an operator bounds an area of operations.
func DeadReckon(tr *mobility.Trace, observed, horizon int) (*mobility.Trace, error) {
	if observed < 2 || observed > tr.T() {
		return nil, fmt.Errorf("%w: observed=%d of %d", ErrObserved, observed, tr.T())
	}
	if horizon < 1 {
		return nil, fmt.Errorf("%w: %d", ErrHorizon, horizon)
	}
	n := tr.N()
	groups := maxGroup(tr.GroupOf) + 1

	// Group centroids over the observed window.
	window := observed
	if window > 4 {
		window = 4
	}
	centroids := make([][]geom.Point, window) // [wi][group]
	for wi := 0; wi < window; wi++ {
		t := observed - window + wi
		centroids[wi] = groupCentroids(tr.Positions[t], tr.GroupOf, groups)
	}
	// Per-group velocity: average one-step centroid displacement.
	vel := make([]geom.Point, groups)
	for g := 0; g < groups; g++ {
		var total geom.Point
		for wi := 1; wi < window; wi++ {
			total = total.Add(centroids[wi][g].Sub(centroids[wi-1][g]))
		}
		vel[g] = total.Scale(1 / float64(window-1))
	}
	lastCentroid := centroids[window-1]
	last := tr.Positions[observed-1]

	// Clamp region: observed bounding box plus one step of slack.
	var all []geom.Point
	for t := 0; t < observed; t++ {
		all = append(all, tr.Positions[t]...)
	}
	bb := geom.BoundingBox(all)
	slack := 0.0
	for _, v := range vel {
		if s := v.Norm(); s > slack {
			slack = s
		}
	}
	region := geom.Rect{
		MinX: bb.MinX - slack, MinY: bb.MinY - slack,
		MaxX: bb.MaxX + slack, MaxY: bb.MaxY + slack,
	}

	out := &mobility.Trace{
		Positions:   make([][]geom.Point, horizon),
		GroupOf:     append([]int(nil), tr.GroupOf...),
		StepSeconds: tr.StepSeconds,
	}
	for h := 0; h < horizon; h++ {
		snapshot := make([]geom.Point, n)
		for v := 0; v < n; v++ {
			g := tr.GroupOf[v]
			offset := last[v].Sub(lastCentroid[g])
			center := lastCentroid[g].Add(vel[g].Scale(float64(h + 1)))
			snapshot[v] = region.Clamp(center.Add(offset))
		}
		out.Positions[h] = snapshot
	}
	return out, nil
}

func groupCentroids(pts []geom.Point, groupOf []int, groups int) []geom.Point {
	sums := make([]geom.Point, groups)
	counts := make([]int, groups)
	for v, p := range pts {
		g := groupOf[v]
		sums[g] = sums[g].Add(p)
		counts[g]++
	}
	for g := range sums {
		if counts[g] > 0 {
			sums[g] = sums[g].Scale(1 / float64(counts[g]))
		}
	}
	return sums
}

func maxGroup(groupOf []int) int {
	best := 0
	for _, g := range groupOf {
		if g > best {
			best = g
		}
	}
	return best
}
