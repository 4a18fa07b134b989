package core

import (
	"fmt"

	"msc/internal/failprob"
	"msc/internal/graph"
	"msc/internal/shortestpath"
)

// DistBackend names the distance backend of an Instance built without a
// supplied Options.Table. There is one: the bounded d_t-ball table
// (shortestpath.BoundedTable at reach d_t). Each row is the exact ball of
// a Dijkstra bounded at the threshold, and anything beyond d_t reads
// +Inf. The objective only ever compares distances against d_t, so the
// truncation is unobservable to the solvers (DESIGN.md §13), and per-row
// memory and compute scale with the d_t-ball instead of with n. A full
// dense table still reaches an instance through Options.Table.
//
// The type and its two values are compatibility names, kept so that
// callers which spell a backend (the -dist-backend flag, the benchmark
// harness) keep working; BackendAuto and BackendBounded both select the
// bounded table.
type DistBackend string

const (
	// BackendAuto is the zero value: the bounded table.
	BackendAuto DistBackend = ""
	// BackendBounded selects the bounded table, as BackendAuto does.
	BackendBounded DistBackend = "bounded"
)

// DefaultLandmarks was the ALT landmark count the bounded backend built.
//
// Deprecated: the bounded backend builds no landmarks; a d_t-ball answers every far query.
const DefaultLandmarks = 16

// ParseDistBackend validates a -dist-backend flag value: "auto" (or "")
// and "bounded" are accepted, and both select the bounded table. "dense"
// is refused with a message that says the dense backend was removed.
func ParseDistBackend(s string) (DistBackend, error) {
	switch s {
	case "", "auto":
		return BackendAuto, nil
	case string(BackendBounded):
		return BackendBounded, nil
	case "dense":
		return BackendAuto, fmt.Errorf("core: the dense distance backend was removed; every instance runs on the bounded d_t-ball table (want auto or bounded)")
	}
	return BackendAuto, fmt.Errorf("core: unknown distance backend %q (want auto or bounded)", s)
}

// newDistanceSource returns the distance source of an instance: the
// caller-supplied table if any, else a bounded table at reach thr.D.
// NewInstance has already refused a NaN thr.D.
func newDistanceSource(g *graph.Graph, thr failprob.Threshold, opts *Options) (shortestpath.DistanceSource, error) {
	if opts != nil && opts.Table != nil {
		if opts.Table.N() != g.N() {
			return nil, fmt.Errorf("core: supplied table covers %d nodes, graph has %d", opts.Table.N(), g.N())
		}
		return opts.Table, nil
	}
	if opts != nil {
		if _, err := ParseDistBackend(string(opts.DistBackend)); err != nil {
			return nil, err
		}
	}
	return shortestpath.NewBoundedTable(g, shortestpath.BoundedOptions{Reach: thr.D})
}
