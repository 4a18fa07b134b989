package core

import "msc/internal/graph"

// Objective and SplitObjective expose objective and splitObjective to the
// external tests, which can build dynamic problems.
var (
	Objective      = objective
	SplitObjective = splitObjective
)

// PairWeight returns pair i's importance level (1 when unweighted).
func (inst *Instance) PairWeight(i int) int { return int(inst.weights[i]) }

// CandidateNodes returns the nodes allowed to host shortcut endpoints.
func (inst *Instance) CandidateNodes() []graph.NodeID { return inst.candNodes }
