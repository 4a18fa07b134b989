package core

import (
	"fmt"

	"msc/internal/failprob"
	"msc/internal/graph"
	"msc/internal/shortestpath"
)

// DistBackend selects the distance-source implementation backing an
// Instance (see shortestpath.DistanceSource).
type DistBackend string

const (
	// BackendAuto picks dense below DefaultBoundedThreshold nodes and
	// bounded at or above it.
	BackendAuto DistBackend = ""
	// BackendDense materializes the full n×n table eagerly (n Dijkstras
	// at construction). Right when most rows get read in full: threshold
	// sweeps over one network, and small instances, where O(1) row
	// indexing beats the bounded backend's per-query ball lookups.
	BackendDense DistBackend = "dense"
	// BackendBounded computes each row as the exact d_t-ball of a
	// Dijkstra bounded at the threshold d_t; anything beyond d_t reads
	// +Inf. The objective only ever compares distances against d_t, so
	// the truncation is unobservable to the solvers (DESIGN.md §13);
	// per-row memory and per-row compute scale with the d_t-ball instead
	// of with n. The "length" cost model prices from plain Dijkstra rows
	// of the raw graph, so it works here too (cost.go).
	BackendBounded DistBackend = "bounded"
)

// DefaultBoundedThreshold is the node count at and above which
// BackendAuto selects the bounded backend. Below it the dense table's
// O(1) row indexing still wins on the row-heavy solvers (AEA); from it the
// n Dijkstras and n² float64s of the eager build dominate, while a
// d_t-ball holds a few dozen nodes on the paper's instance families (see
// EXPERIMENTS.md, "Two distance backends").
const DefaultBoundedThreshold = 512

// DefaultLandmarks was the ALT landmark count the bounded backend built.
//
// Deprecated: the bounded backend builds no landmarks; a d_t-ball answers every far query.
const DefaultLandmarks = 16

// ParseDistBackend validates a -dist-backend flag value; "auto", "dense"
// and "bounded" are accepted.
func ParseDistBackend(s string) (DistBackend, error) {
	switch s {
	case "", "auto":
		return BackendAuto, nil
	case string(BackendDense):
		return BackendDense, nil
	case string(BackendBounded):
		return BackendBounded, nil
	}
	return BackendAuto, fmt.Errorf("core: unknown distance backend %q (want auto, dense, or bounded)", s)
}

// resolveDistBackend applies the explicit-option → node-threshold
// resolution chain.
func resolveDistBackend(b DistBackend, n int) DistBackend {
	switch {
	case b != BackendAuto:
		return b
	case n >= DefaultBoundedThreshold:
		return BackendBounded
	default:
		return BackendDense
	}
}

// newDistanceSource builds the distance backend for an instance: the
// caller-supplied source if any, else a dense table (built with the
// option's worker budget) or a bounded sparse table at reach thr.D, per
// the resolved backend. NewInstance has already refused a NaN thr.D.
func newDistanceSource(g *graph.Graph, thr failprob.Threshold, opts *Options) (shortestpath.DistanceSource, error) {
	if opts != nil && opts.Table != nil {
		if opts.Table.N() != g.N() {
			return nil, fmt.Errorf("core: supplied table covers %d nodes, graph has %d", opts.Table.N(), g.N())
		}
		return opts.Table, nil
	}
	var backend DistBackend
	parallelism := 0
	if opts != nil {
		backend = opts.DistBackend
		parallelism = opts.Parallelism
	}
	switch b := resolveDistBackend(backend, g.N()); b {
	case BackendDense:
		return shortestpath.NewTable(g, ResolveParallelism(parallelism)), nil
	case BackendBounded:
		return shortestpath.NewBoundedTable(g, shortestpath.BoundedOptions{Reach: thr.D})
	default:
		return nil, fmt.Errorf("core: unknown distance backend %q (want auto, dense, or bounded)", b)
	}
}
