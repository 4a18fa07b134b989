// Package geom provides the 2-D geometry primitives used by the dataset
// generators: points, Euclidean distances, bounding boxes, and a uniform
// grid index for radius queries.
//
// The paper's synthetic workload places nodes uniformly in a unit square and
// connects nodes within a radius (a Random Geometric Graph); the Gowalla
// workload connects check-ins within 200 m. Both reduce to "find all pairs
// within distance r", which the grid index answers in near-linear time.
package geom

import (
	"fmt"
	"math"
)

// Point is a position in the plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Hypot(dx, dy)
}

// Dist2 returns the squared Euclidean distance between p and q. Prefer it
// for comparisons to avoid the square root.
func (p Point) Dist2(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Norm returns the Euclidean norm of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// String renders the point with three decimals, e.g. "(0.250, 0.750)".
func (p Point) String() string {
	return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y)
}

// Rect is an axis-aligned rectangle [MinX, MaxX] × [MinY, MaxY].
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Width returns MaxX - MinX.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns MaxY - MinY.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Contains reports whether p lies inside r (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Clamp returns p constrained to lie inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.MinX), r.MaxX),
		Y: math.Min(math.Max(p.Y, r.MinY), r.MaxY),
	}
}

// BoundingBox returns the smallest Rect containing all points. It panics on
// an empty slice.
func BoundingBox(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geom: BoundingBox of empty point set")
	}
	r := Rect{pts[0].X, pts[0].Y, pts[0].X, pts[0].Y}
	for _, p := range pts[1:] {
		r.MinX = math.Min(r.MinX, p.X)
		r.MinY = math.Min(r.MinY, p.Y)
		r.MaxX = math.Max(r.MaxX, p.X)
		r.MaxY = math.Max(r.MaxY, p.Y)
	}
	return r
}
