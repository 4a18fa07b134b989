package shortestpath

import "msc/internal/graph"

// DistanceSource abstracts read access to the all-pairs shortest-path
// metric of a fixed graph. Two implementations serve it:
//
//   - BoundedTable computes each row as a ball: a Dijkstra bounded at a
//     reach, stored sparsely as sorted (int32 node, float64 distance)
//     pairs; everything outside the reach-ball reads as +Inf. The solver
//     builds one at reach d_t for every instance without a supplied
//     table, at every n. Its metric is the dense one truncated at the
//     reach, bit for bit: distances within the reach are exact, distances
//     beyond it read +Inf. Consumers that only compare distances against
//     a threshold ≤ reach — the entire MSC objective — cannot observe the
//     truncation.
//
//   - Table materializes every row eagerly (n Dijkstras, n² float64s) and
//     answers queries by plain indexing. Callers supply it where most
//     rows are read in full (experiments that sweep thresholds over one
//     network, desim routing) and as the tests' dense reference.
//
// LazyTable, a memoized on-demand full-row cache, also implements the
// interface; no solver backend builds it any more, and the benchmark
// harness's traced runs are its only product user.
//
// Implementations must be safe for concurrent readers, and every method
// must be deterministic: for the same graph, Dist and Row return
// bit-identical values no matter the call order or the number of
// goroutines calling, and the full-row sources (Table, LazyTable) return
// bit-identical values to each other (BoundedTable returns the same values
// within its reach and +Inf beyond it). The solver's determinism contract (serial == parallel
// placements) rests on that guarantee.
type DistanceSource interface {
	// N returns the number of nodes the source covers.
	N() int
	// Dist returns the shortest-path distance between u and v (+Inf if
	// disconnected).
	Dist(u, v graph.NodeID) float64
	// Row returns the full distance row of u. The returned slice is owned
	// by the source and must not be modified; it remains valid (and
	// immutable) for the caller's lifetime.
	Row(u graph.NodeID) []float64
}

// SparseSource is the optional extension a DistanceSource implements when
// its rows are naturally sparse. Reach declares the truncation radius:
// SparseRow holds every entry of Row within Reach, exactly; everything
// absent is > Reach or unreachable. Consumers use it to iterate only the
// ball instead of scanning n entries per row, and to decide whether
// threshold comparisons against d_t ≤ Reach are safe.
type SparseSource interface {
	DistanceSource
	// Reach returns the truncation radius rows were computed at.
	Reach() float64
	// SparseRow returns u's row as a ball at Reach. Like Row, the result
	// is immutable and stays valid for the caller's lifetime.
	SparseRow(u graph.NodeID) Ball
}

var (
	_ DistanceSource = (*Table)(nil)
	_ DistanceSource = (*LazyTable)(nil)
	_ DistanceSource = (*BoundedTable)(nil)
	_ SparseSource   = (*BoundedTable)(nil)
)
