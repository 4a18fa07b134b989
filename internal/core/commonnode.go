package core

import (
	"errors"
	"slices"

	"msc/internal/graph"
	"msc/internal/maxcover"
)

// Errors returned by SolveCommonNode.
var (
	// ErrNoCommonNode reports that the instance's pairs do not all share
	// a node.
	ErrNoCommonNode = errors.New("core: pairs do not share a common node")
	// ErrRestrictedUniverse reports that the instance excludes pair nodes
	// from the candidate universe, which contradicts MSC-CN's shortcuts
	// incident to the common (pair) node.
	ErrRestrictedUniverse = errors.New("core: MSC-CN requires the unrestricted candidate universe")
)

// CommonNodeResult reports the MSC-CN greedy (§IV-B).
type CommonNodeResult struct {
	Placement Placement
	// Common is the node shared by every pair.
	Common graph.NodeID
	// Coverage is the max-coverage value achieved (== Placement.Sigma; the
	// equality is the reduction of Theorem 1 and is asserted in tests).
	Coverage int
}

// SolveCommonNode solves the MSC-CN special case (§IV): when every
// important pair shares a common node u, there is an optimal placement
// whose shortcuts are all incident to u, and the problem reduces exactly to
// maximum coverage — candidate endpoint v covers pair {u,w} iff
// D(v,w) ≤ d_t. The greedy selection therefore achieves the (1−1/e)
// approximation of Theorem 5.
func SolveCommonNode(inst *Instance) (CommonNodeResult, error) {
	if inst.candPos != nil {
		return CommonNodeResult{}, ErrRestrictedUniverse
	}
	u, ok := inst.Pairs().CommonNode()
	if !ok {
		return CommonNodeResult{}, ErrNoCommonNode
	}
	m := inst.Pairs().Len()
	// pairsAt[j] lists the pairs whose non-common endpoint is pair node j.
	pairsAt := make([][]int32, len(inst.endpoints))
	for i := range m {
		j := inst.pairW[i]
		if inst.endpoints[j] == u {
			j = inst.pairU[i]
		}
		pairsAt[j] = append(pairsAt[j], int32(i))
	}
	// Candidate v ∈ V\{u} covers pair i iff D(w_i, v) ≤ d_t, which the
	// pair nodes whose d_t-balls hold v answer (read from w_i's side, as
	// σ reads it); set id j is the j-th such v. Under the unrestricted
	// universe candidate position a is node a.
	near := inst.endpointsNear()
	sets := &maxcover.Sparse{N: inst.N() - 1}
	cands := make([]graph.NodeID, 0, inst.N()-1)
	var set []int32
	for a := range near.Len() {
		v := graph.NodeID(a)
		if v == u {
			continue
		}
		set = set[:0]
		for _, j := range near.At(a) {
			set = append(set, pairsAt[j]...)
		}
		if len(set) > 0 {
			slices.Sort(set)
			sets.IDs = append(sets.IDs, len(cands))
			sets.Sets.Append(set)
		}
		cands = append(cands, v)
	}
	prob := maxcover.Problem{
		Universe: m,
		Sparse:   sets,
		Initial:  inst.satisfied0,
		K:        inst.K(),
	}
	if inst.totalWeight != m {
		weights := make([]float64, m)
		for i, w := range inst.weights {
			weights[i] = float64(w)
		}
		prob.Weights = weights
	}
	res := maxcover.Greedy(prob)
	sel := make([]int, len(res.Chosen))
	for i, c := range res.Chosen {
		sel[i] = inst.CandidateIndex(graph.Edge{U: u, V: cands[c]})
	}
	pl := newPlacement(inst, sel)
	coverage := 0
	res.Covered.ForEach(func(i int) { coverage += int(inst.weights[i]) })
	return CommonNodeResult{
		Placement: pl,
		Common:    u,
		Coverage:  coverage,
	}, nil
}
