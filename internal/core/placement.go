package core

import (
	"fmt"
	"strings"

	"msc/internal/graph"
)

// Placement is the outcome of a placement algorithm: the chosen shortcut
// edges and the number of social pairs they maintain.
type Placement struct {
	// Selection holds candidate indices in selection order.
	Selection []int
	// Edges holds the corresponding shortcut edges.
	Edges []graph.Edge
	// Sigma is σ(Selection): maintained social pairs (summed over time
	// instances for dynamic problems).
	Sigma int
	// Stop records how the producing run ended (reason, rounds completed,
	// final σ). Its zero value means the solver predates supervision or
	// does not report one (GreedyMu/GreedyNu, SolveCommonNode).
	Stop StopInfo
}

func newPlacement(p Problem, sel []int) Placement {
	return Placement{
		Selection: append([]int(nil), sel...),
		Edges:     SelectionEdges(p, sel),
		Sigma:     p.Sigma(sel),
	}
}

// stoppedPlacement is the placement of sel carrying stop, with stop's σ
// filled in.
func stoppedPlacement(p Problem, sel []int, stop StopInfo) Placement {
	pl := newPlacement(p, sel)
	stop.Sigma = pl.Sigma
	pl.Stop = stop
	return pl
}

// String renders the placement compactly, e.g.
// "σ=12 F={(3,17), (5,40)}".
func (pl Placement) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "σ=%d F={", pl.Sigma)
	for i, e := range pl.Edges {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d,%d)", e.U, e.V)
	}
	sb.WriteString("}")
	return sb.String()
}
