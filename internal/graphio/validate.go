package graphio

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrInvalid is the sentinel wrapped by every input-validation failure in
// this package; callers branch on errors.Is(err, ErrInvalid) to separate
// hostile or malformed files from I/O failures.
var ErrInvalid = errors.New("graphio: invalid input")

// MaxNodes caps the node count a decoded document may declare. Node ids
// size allocations (adjacency lists, distance tables), so a hostile file
// claiming 2^31 nodes must be rejected at parse time, not at the first
// out-of-memory allocation. Large-scale callers may raise it.
var MaxNodes = 4 << 20

// ValidationError pinpoints one malformed field of an input document. It
// unwraps to ErrInvalid.
type ValidationError struct {
	// Format is the input codec, "json" for instance documents.
	Format string
	// Field names the offending field, e.g. "edges[3].p_fail".
	Field string
	// Line is the 1-based source line for line-oriented formats; 0 for
	// JSON, which has no useful line structure.
	Line int
	// Msg says what is wrong with the value.
	Msg string
}

func (e *ValidationError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("graphio: %s line %d: %s: %s", e.Format, e.Line, e.Field, e.Msg)
	}
	return fmt.Sprintf("graphio: %s: %s: %s", e.Format, e.Field, e.Msg)
}

func (e *ValidationError) Unwrap() error { return ErrInvalid }

func jsonErr(field, format string, args ...any) error {
	return &ValidationError{Format: "json", Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Validate checks the document's structural invariants — everything the
// solvers assume and the graph builder cannot express as a typed error:
// node count in (0, MaxNodes], coordinate/label arity, finite
// coordinates, edge endpoints in range with p_fail ∈ [0, 1) and no NaN/∞,
// no self-loops or duplicate edges, pairs in range and distinct, the
// threshold in [0, 1), and a non-negative budget. The error names the
// first offending element in document order. ReadJSON calls it on every
// decoded document; callers constructing documents in code may call it
// directly.
func (doc Document) Validate() error {
	if doc.Nodes <= 0 {
		return jsonErr("nodes", "must be positive, got %d", doc.Nodes)
	}
	if doc.Nodes > MaxNodes {
		return jsonErr("nodes", "%d exceeds the %d-node cap", doc.Nodes, MaxNodes)
	}
	if doc.Coords != nil && len(doc.Coords) != doc.Nodes {
		return jsonErr("coords", "%d entries for %d nodes", len(doc.Coords), doc.Nodes)
	}
	for i, c := range doc.Coords {
		if !isFinite(c[0]) || !isFinite(c[1]) {
			return jsonErr(fmt.Sprintf("coords[%d]", i), "non-finite position (%v, %v)", c[0], c[1])
		}
	}
	if doc.Labels != nil && len(doc.Labels) != doc.Nodes {
		return jsonErr("labels", "%d entries for %d nodes", len(doc.Labels), doc.Nodes)
	}
	// The first bad element of a list is reported unless a duplicate comes
	// before it.
	bad, err := len(doc.Edges), error(nil)
	for i, e := range doc.Edges {
		if e.U < 0 || e.V < 0 || int(e.U) >= doc.Nodes || int(e.V) >= doc.Nodes {
			bad, err = i, jsonErr(fmt.Sprintf("edges[%d]", i), "endpoint (%d,%d) outside 0..%d", e.U, e.V, doc.Nodes-1)
			break
		}
		if e.U == e.V {
			bad, err = i, jsonErr(fmt.Sprintf("edges[%d]", i), "self-loop at node %d", e.U)
			break
		}
		if math.IsNaN(e.Fail) || e.Fail < 0 || e.Fail >= 1 {
			bad, err = i, jsonErr(fmt.Sprintf("edges[%d].p_fail", i), "%v outside [0, 1)", e.Fail)
			break
		}
	}
	edges := doc.Edges[:bad]
	if i := firstRepeat(len(edges), func(i int) uint64 { return pairKey(edges[i].U, edges[i].V) }); i >= 0 {
		return jsonErr(fmt.Sprintf("edges[%d]", i), "duplicate edge (%d,%d)", edges[i].U, edges[i].V)
	}
	if err != nil {
		return err
	}
	bad = len(doc.Pairs)
	for i, p := range doc.Pairs {
		if p[0] < 0 || p[1] < 0 || int(p[0]) >= doc.Nodes || int(p[1]) >= doc.Nodes {
			bad, err = i, jsonErr(fmt.Sprintf("pairs[%d]", i), "pair (%d,%d) outside 0..%d", p[0], p[1], doc.Nodes-1)
			break
		}
		if p[0] == p[1] {
			bad, err = i, jsonErr(fmt.Sprintf("pairs[%d]", i), "pair of node %d with itself", p[0])
			break
		}
	}
	ps := doc.Pairs[:bad]
	if i := firstRepeat(len(ps), func(i int) uint64 { return pairKey(ps[i][0], ps[i][1]) }); i >= 0 {
		return jsonErr(fmt.Sprintf("pairs[%d]", i), "duplicate pair (%d,%d)", ps[i][0], ps[i][1])
	}
	if err != nil {
		return err
	}
	if math.IsNaN(doc.FailureThreshold) || doc.FailureThreshold < 0 || doc.FailureThreshold >= 1 {
		return jsonErr("failure_threshold", "%v outside [0, 1)", doc.FailureThreshold)
	}
	if doc.Budget < 0 {
		return jsonErr("budget", "must be non-negative, got %d", doc.Budget)
	}
	return nil
}

// pairKey packs the unordered pair {u, v} of non-negative ids into one
// sortable key.
func pairKey(u, v int32) uint64 {
	return uint64(uint32(min(u, v)))<<32 | uint64(uint32(max(u, v)))
}

// firstRepeat returns the least i whose key(i) equals key(j) for some
// j < i, or -1. It sorts the keys instead of hashing them; only when the
// sort finds a repeat does a second pass look for the first one in
// document order.
func firstRepeat(n int, key func(int) uint64) int {
	sorted := make([]uint64, n)
	for i := range sorted {
		sorted[i] = key(i)
	}
	slices.Sort(sorted)
	var repeated []uint64 // ascending, each key once
	for i := 1; i < n; i++ {
		if sorted[i] == sorted[i-1] && (len(repeated) == 0 || repeated[len(repeated)-1] != sorted[i]) {
			repeated = append(repeated, sorted[i])
		}
	}
	if len(repeated) == 0 {
		return -1
	}
	seen := make([]bool, len(repeated))
	for i := 0; i < n; i++ {
		if j, ok := slices.BinarySearch(repeated, key(i)); ok {
			if seen[j] {
				return i
			}
			seen[j] = true
		}
	}
	return -1 // unreachable: the sort found a repeat
}

func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
