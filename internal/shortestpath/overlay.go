package shortestpath

import (
	"math"
	"slices"

	"msc/internal/graph"
	"msc/internal/telemetry"
)

// Overlay answers shortest-path queries in the augmented graph G ∪ F, where
// F is a set of zero-length shortcut edges, using only the distance rows
// of G exposed by a DistanceSource. It reads exactly the rows of the query
// endpoints and of the shortcut endpoints — with a BoundedTable backend
// those rows are d_t-balls, which keeps σ evaluation independent of n.
//
// Correctness argument: a shortest u→w path in G ∪ F decomposes into maximal
// segments that stay inside G, separated by shortcut traversals. Each G
// segment between two "terminal" nodes a, b (shortcut endpoints, or u/w) has
// length exactly D[a][b]. So the augmented distance equals the shortest path
// in a small terminal graph whose nodes are the ≤2k shortcut endpoints, with
// base weights D[a][b] and weight 0 on shortcut pairs, entered from u and
// exited to w via D. Overlay runs Floyd–Warshall on that terminal graph once
// (O(k³)) and then answers each pair query in O(k²).
//
// This is what makes greedy σ-maximization tractable: evaluating σ(F ∪ {f})
// for all O(n²) candidate edges f touches only the small terminal graph, not
// the full network.
type Overlay struct {
	table DistanceSource
	// endpoints are the distinct shortcut endpoints, in first-seen order.
	endpoints []graph.NodeID
	// h[i][j] is the terminal-graph distance between endpoints[i] and
	// endpoints[j], allowing any number of shortcut traversals.
	h [][]float64
}

// NewOverlay builds the oracle for the given shortcut set. Shortcut edges
// are treated as length 0 regardless of their Length field (they are
// reliable links, §III-C). An empty shortcut set yields an oracle that
// simply forwards to the table.
func NewOverlay(table DistanceSource, shortcuts []graph.Edge) *Overlay {
	telemetry.Global().OverlayBuilds.Add(1)
	o := &Overlay{table: table}
	if len(shortcuts) == 0 {
		return o
	}
	index := make(map[graph.NodeID]int, 2*len(shortcuts))
	addEndpoint := func(v graph.NodeID) int {
		if i, ok := index[v]; ok {
			return i
		}
		i := len(o.endpoints)
		index[v] = i
		o.endpoints = append(o.endpoints, v)
		return i
	}
	type pair struct{ a, b int }
	zero := make([]pair, 0, len(shortcuts))
	for _, f := range shortcuts {
		zero = append(zero, pair{addEndpoint(f.U), addEndpoint(f.V)})
	}
	// h[i][j] = Dist(endpoints[i], endpoints[j]), read from one row (or
	// ball) per terminal.
	t := len(o.endpoints)
	o.h = make([][]float64, t)
	for i, a := range o.endpoints {
		hi := make([]float64, t)
		DistsFrom(table, a, o.endpoints, hi)
		hi[i] = 0
		o.h[i] = hi
	}
	for _, p := range zero {
		o.h[p.a][p.b] = 0
		o.h[p.b][p.a] = 0
	}
	CloseTerminals(o.h)
	return o
}

// CloseTerminals runs Floyd–Warshall in place over the terminal graph h,
// where h[i][j] is the base weight from terminal i to terminal j: after
// it, h[i][j] is the shortest terminal-graph distance, allowing any
// number of shortcut traversals. NewOverlay builds its oracle with it, so
// a caller that builds a terminal graph the same way gets the same bits.
func CloseTerminals(h [][]float64) {
	for k := range h {
		hk := h[k]
		for i := range h {
			hik := h[i][k]
			if math.IsInf(hik, 1) {
				continue
			}
			hi := h[i]
			for j := range hi {
				if nd := hik + hk[j]; nd < hi[j] {
					hi[j] = nd
				}
			}
		}
	}
}

// DistsFrom fills out[j] with the distance from u to xs[j], read from u's
// side as every source's Dist(u, v) reads it: from u's ball on a
// SparseSource, from u's row otherwise.
func DistsFrom(src DistanceSource, u graph.NodeID, xs []graph.NodeID, out []float64) {
	if ss, ok := src.(SparseSource); ok {
		b := ss.SparseRow(u)
		for j, x := range xs {
			out[j] = b.At(x)
		}
		return
	}
	row := src.Row(u)
	for j, x := range xs {
		out[j] = row[x]
	}
}

// Dist returns the shortest-path distance between u and w in G ∪ F.
func (o *Overlay) Dist(u, w graph.NodeID) float64 {
	telemetry.Global().OverlayQueries.Add(1)
	if ss, ok := o.table.(SparseSource); ok {
		return o.distSparse(ss, u, w)
	}
	// One Row call per endpoint: the base distance comes from u's row
	// directly, so a row-caching source does one lookup per endpoint.
	du := o.table.Row(u)
	best := du[w]
	t := len(o.endpoints)
	if t == 0 {
		return best
	}
	dw := o.table.Row(w)
	for i := 0; i < t; i++ {
		dui := du[o.endpoints[i]]
		if dui >= best {
			continue
		}
		hi := o.h[i]
		for j := 0; j < t; j++ {
			if d := dui + hi[j] + dw[o.endpoints[j]]; d < best {
				best = d
			}
		}
	}
	return best
}

// distSparse is Dist against a sparse backend: the same minimization over
// the same stored metric, but reading balls so no dense row is ever
// materialized (a BoundedTable keeps dense rows forever). Bit-identical
// to the dense path — Row is defined as the scatter of SparseRow.
func (o *Overlay) distSparse(ss SparseSource, u, w graph.NodeID) float64 {
	du := ss.SparseRow(u)
	best := du.At(w)
	t := len(o.endpoints)
	if t == 0 {
		return best
	}
	// w's terminal distances are read once, on the first terminal that
	// can improve, into stack scratch for up to 16 terminals.
	var dwBuf [16]float64
	var dw []float64
	for i := 0; i < t; i++ {
		dui := du.At(o.endpoints[i])
		if dui >= best {
			continue
		}
		if dw == nil {
			bw := ss.SparseRow(w)
			dw = dwBuf[:0]
			for _, e := range o.endpoints {
				dw = append(dw, bw.At(e))
			}
		}
		hi := o.h[i]
		for j := 0; j < t; j++ {
			if d := dui + hi[j] + dw[j]; d < best {
				best = d
			}
		}
	}
	return best
}

// Endpoints returns the distinct shortcut endpoints the oracle covers.
// Callers must not modify the returned slice.
func (o *Overlay) Endpoints() []graph.NodeID { return o.endpoints }

// DistRow fills out[x] with the augmented distance from u to every node x,
// in O(k² + n·k) — one pass over the terminal graph plus one pass over each
// terminal's base distance row. len(out) must equal the node count. On a
// bounded table the rows read are its dense scatters of the balls
// (BoundedTable.Row), which the table keeps.
func (o *Overlay) DistRow(u graph.NodeID, out []float64) {
	telemetry.Global().OverlayRows.Add(1)
	du := o.table.Row(u)
	if len(out) != len(du) {
		panic("shortestpath: DistRow output length mismatch")
	}
	copy(out, du)
	t := len(o.endpoints)
	if t == 0 {
		return
	}
	// c[i] = best distance from u to terminal i using any shortcuts:
	// min_j du[t_j] + h[j][i].
	c := make([]float64, t)
	for i := 0; i < t; i++ {
		best := du[o.endpoints[i]]
		for j := 0; j < t; j++ {
			if d := du[o.endpoints[j]] + o.h[j][i]; d < best {
				best = d
			}
		}
		c[i] = best
	}
	for i := 0; i < t; i++ {
		ci := c[i]
		if math.IsInf(ci, 1) {
			continue
		}
		ti := o.table.Row(o.endpoints[i])
		for x := range out {
			if d := ci + ti[x]; d < out[x] {
				out[x] = d
			}
		}
	}
}

// DistBall appends to dst u's ball at bound in G ∪ F: every node within
// bound of u, ascending by id, with exactly the distance DistRow(u)
// computes for it. It composes DistRow's arithmetic from base
// balls instead of rows — u's own ball, plus c[i] + ball(terminal i) for
// every terminal with c[i] ≤ bound — merged in m, so it costs
// O(k² log b + Σ b + n/4096) for balls of b entries, and dst grows at most
// once, to the ball's exact length.
// Truncation loses nothing: distances are non-negative and float addition
// is monotone, so a base entry beyond bound only feeds sums beyond bound.
// balls must hold every entry of Row(v) ≤ bound for each node v it is
// asked for.
func (o *Overlay) DistBall(balls BallSource, m *Merger, u graph.NodeID, bound float64, dst Ball) Ball {
	telemetry.Global().OverlayRows.Add(1)
	bu := balls.Ball(u)
	t := len(o.endpoints)
	// c[i] as in DistRow, with u's entries beyond bound read as +Inf: any
	// term they feed exceeds bound, so every c[i] ≤ bound keeps its bits.
	// The scratch lives on the stack for up to 16 terminals (k ≤ 8).
	var duBuf, shiftBuf [16]float64
	var mergeBuf [16]Ball
	du, shift, merge := duBuf[:0], append(shiftBuf[:0], 0), append(mergeBuf[:0], bu)
	for _, e := range o.endpoints {
		du = append(du, bu.At(e))
	}
	for i := 0; i < t; i++ {
		best := du[i]
		for j := 0; j < t; j++ {
			if d := du[j] + o.h[j][i]; d < best {
				best = d
			}
		}
		if best <= bound {
			shift = append(shift, best)
			merge = append(merge, balls.Ball(o.endpoints[i]))
		}
	}
	if len(merge) == 1 {
		return appendBall(dst, bu)
	}
	dst, _ = m.AppendMinMerge(dst, bound, shift, merge)
	return dst
}

// appendBall appends b's entries to dst, growing dst at most once.
func appendBall(dst, b Ball) Ball {
	dst.IDs = append(slices.Grow(dst.IDs, b.Len()), b.IDs...)
	dst.Dist = append(slices.Grow(dst.Dist, b.Len()), b.Dist...)
	return dst
}

// AugmentedDistances is the naive reference implementation: it materializes
// G ∪ F and runs Dijkstra from src. Shortcut edges get length 0. Used by
// tests and the ablation benchmark to validate Overlay.
func AugmentedDistances(g *graph.Graph, shortcuts []graph.Edge, src graph.NodeID) []float64 {
	b := graph.NewBuilder(g.N())
	for _, e := range g.Edges() {
		b.AddEdge(e.U, e.V, e.Length)
	}
	for _, f := range shortcuts {
		b.AddEdge(f.U, f.V, 0)
	}
	aug, err := b.Build()
	if err != nil {
		// The inputs come from valid graphs, so this cannot happen.
		panic(err)
	}
	return Dijkstra(aug, src)
}
