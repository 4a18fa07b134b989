package core

import (
	"fmt"

	"msc/internal/graph"
	"msc/internal/telemetry"
)

// Survivability selects the failure model a placement must survive: the
// objective becomes the worst-case σ⁻(S) = min_{f ∈ scenarios(S)} σ(S \ f)
// over all single-failure scenarios, instead of the fault-free σ(S).
//
// On a survivable Instance every solver — GreedySigma, LocalSearch,
// Sandwich, EA, AEA, RandomPlacement, Exhaustive and ExhaustiveBudget —
// optimizes the pair (σ⁻, σ) lexicographically: among placements with
// equal worst-case coverage the fault-free coverage breaks the tie. See
// DESIGN.md §11 for the objective, the scenario-memoization invariants,
// and the monotonicity caveats of σ⁻.
type Survivability string

const (
	// SurviveAuto resolves to SurviveNone.
	SurviveAuto Survivability = ""
	// SurviveNone is the paper's fault-free objective: no failure
	// scenarios, σ⁻ degenerates to σ.
	SurviveNone Survivability = "none"
	// SurviveShortcut guards against the loss of any single placed
	// shortcut: scenarios(S) = S, one per selection position, so
	// σ⁻(S) = min_j σ(S \ {S[j]}) (σ⁻(∅) = σ(∅) by convention). σ⁻ is
	// monotone in this mode but not submodular.
	SurviveShortcut Survivability = "shortcut"
	// SurviveNode additionally guards against the loss of any single
	// network node v: scenarios(S) = S ∪ V. In the node scenario for v the
	// graph loses every edge incident to v, shortcuts incident to v are
	// dead, and pairs incident to v are vacuously satisfied: their demand
	// left with the node, so they weigh 0 on G−v and the scenario adds
	// their weight as a constant.
	// Node-mode σ⁻ is NOT monotone — and can even exceed σ when a failed
	// node takes hard pairs with it — see DESIGN.md §11.
	SurviveNode Survivability = "node"
)

// ParseSurvivability validates a -survive flag value; "auto", "none",
// "shortcut", and "node" are accepted.
func ParseSurvivability(s string) (Survivability, error) {
	switch s {
	case "", "auto":
		return SurviveAuto, nil
	case string(SurviveNone):
		return SurviveNone, nil
	case string(SurviveShortcut):
		return SurviveShortcut, nil
	case string(SurviveNode):
		return SurviveNode, nil
	}
	return SurviveAuto, fmt.Errorf("core: unknown survivability mode %q (want auto, none, shortcut, or node)", s)
}

// resolveSurvivability applies the explicit-option → built-in resolution
// chain. Unknown non-auto values pass through for NewInstance to reject.
func resolveSurvivability(m Survivability) Survivability {
	if m == SurviveAuto {
		return SurviveNone
	}
	return m
}

// WorstCaseProblem is implemented by problems that carry a survivability
// mode and can evaluate the worst-case objective σ⁻ for a selection.
// objective ranks selections by (σ⁻, σ) through it, and the cmds use it
// to report sigma_worst in run records.
type WorstCaseProblem interface {
	Problem
	// Survive returns the resolved failure model.
	Survive() Survivability
	// SigmaWorst evaluates σ⁻(sel) from scratch: the minimum σ over every
	// single-failure scenario of the selection. Under SurviveNone it
	// degenerates to Sigma(sel).
	SigmaWorst(sel []int) int
}

// lexValue scalarizes (σ⁻, σ) into L = σ⁻·(maxSigma+1) + σ: with
// 0 ≤ σ, σ⁻ ≤ maxSigma, integer order of L is the lexicographic order of
// (σ⁻, σ), and splitObjective inverts it exactly.
func lexValue(worst, sigma, maxSigma int) int { return worst*(maxSigma+1) + sigma }

// survivable returns p's worst-case view when p carries a failure model
// other than SurviveNone.
func survivable(p Problem) (WorstCaseProblem, bool) {
	wp, ok := p.(WorstCaseProblem)
	return wp, ok && wp.Survive() != SurviveNone
}

// objective is the value every solver ranks a whole selection by: σ on a
// fault-free problem, lexValue(σ⁻, σ) on a survivable one. It always
// equals p.NewSearch(sel).Sigma(); σ is evaluated with SigmaPar over
// workers, σ⁻ serially.
func objective(p Problem, sel []int, workers int) int {
	return objectiveAt(p, sel, p.SigmaPar(sel, workers))
}

// objectiveAt is objective for a selection whose σ is already known.
func objectiveAt(p Problem, sel []int, sigma int) int {
	if wp, ok := survivable(p); ok {
		return lexValue(wp.SigmaWorst(sel), sigma, p.MaxSigma())
	}
	return sigma
}

// splitObjective turns an objective value back into σ and — on a
// survivable problem — σ⁻, which is nil on a fault-free one.
func splitObjective(p Problem, v int) (sigma int, sigmaWorst *int) {
	if _, ok := survivable(p); !ok {
		return v, nil
	}
	w := p.MaxSigma() + 1
	worst := v / w
	return v % w, &worst
}

// Survive returns the instance's resolved failure model.
func (inst *Instance) Survive() Survivability { return inst.survive }

// SigmaWorst evaluates σ⁻(sel) from scratch per the instance's failure
// model: the minimum σ over every single-failure scenario. Under
// SurviveNone it returns Sigma(sel). Unlike the incremental survivable
// search this rebuilds every scenario overlay, so it is meant for final
// reporting and differential testing, not for solver inner loops.
func (inst *Instance) SigmaWorst(sel []int) int {
	switch inst.survive {
	case SurviveShortcut:
		return inst.sigmaWorstShortcut(sel)
	case SurviveNode:
		nw := inst.sigmaWorstNode(sel)
		if len(sel) == 0 {
			return nw
		}
		if sw := inst.sigmaWorstShortcut(sel); sw < nw {
			return sw
		}
		return nw
	default:
		return inst.Sigma(sel)
	}
}

// sigmaWorstShortcut is min_j σ(sel \ {sel[j]}); σ(∅) for an empty
// selection (no scenarios — the empty placement has nothing to lose).
func (inst *Instance) sigmaWorstShortcut(sel []int) int {
	if len(sel) == 0 {
		telemetry.Global().FailureScenariosEvaled.Add(1)
		return inst.Sigma(nil)
	}
	telemetry.Global().FailureScenariosEvaled.Add(int64(len(sel)))
	worst := 0
	rest := make([]int, 0, len(sel)-1)
	for j := range sel {
		rest = append(rest[:0], sel[:j]...)
		rest = append(rest, sel[j+1:]...)
		s := inst.Sigma(rest)
		if j == 0 || s < worst {
			worst = s
		}
	}
	return worst
}

// sigmaWorstNode is min_v (vac_v + σ_v(surviving(sel, v))) over every node
// v, where σ_v evaluates on the cached G−v scenario instance, surviving
// drops the shortcuts incident to v, and vac_v is the constant weight of
// the pairs incident to v (vacuously satisfied — their demand left with
// the node).
func (inst *Instance) sigmaWorstNode(sel []int) int {
	insts, vac := inst.nodeScenarios()
	telemetry.Global().FailureScenariosEvaled.Add(int64(len(insts)))
	worst := 0
	surv := make([]int, 0, len(sel))
	for v, ni := range insts {
		surv = surv[:0]
		for _, c := range sel {
			if inst.survives(c, v) {
				surv = append(surv, c)
			}
		}
		s := vac[v] + ni.Sigma(surv)
		if v == 0 || s < worst {
			worst = s
		}
	}
	return worst
}

// survives reports whether shortcut cand is alive in the failure scenario
// of node v: a shortcut dies with either endpoint. A shortcut failure
// (v < 0) kills no node.
func (inst *Instance) survives(cand, v int) bool {
	if v < 0 {
		return true
	}
	e := inst.CandidateEdge(cand)
	return int(e.U) != v && int(e.V) != v
}

// nodeScenarios lazily builds (once) the per-node failure scenario
// instances: nodeInsts[v] is the instance on G−v (same node universe, every
// edge incident to v removed, identical candidate indexing and pair
// weights), and nodeVac[v] the constant vacuous weight of pairs incident
// to v. Those pairs weigh 0 in nodeInsts[v]: v is isolated in G−v and no
// surviving shortcut touches it, so they are never satisfied there, and
// the only gains a scan could credit them come through a shortcut incident
// to v — dead in v's scenario. The scenario instances use the bounded
// distance backend — only the pair-endpoint d_t-balls are ever read — and
// are shared by every search built from this instance.
func (inst *Instance) nodeScenarios() ([]*Instance, []int) {
	inst.nodeOnce.Do(func() {
		n := inst.g.N()
		inst.nodeVac = make([]int, n)
		for i, p := range inst.ps.Pairs() {
			w := int(inst.weights[i])
			inst.nodeVac[p.U] += w
			inst.nodeVac[p.W] += w
		}
		weights := make([]int, inst.ps.Len())
		for i := range weights {
			weights[i] = int(inst.weights[i])
		}
		opts := &Options{
			AllowTrivial:         true,
			Survive:              SurviveNone, // scenario instances must never recurse
			ExcludePairEndpoints: inst.candPos != nil,
			PairWeights:          weights,
		}
		inst.nodeInsts = make([]*Instance, n)
		for v := 0; v < n; v++ {
			b := graph.NewBuilder(n)
			for _, e := range inst.g.Edges() {
				if int(e.U) != v && int(e.V) != v {
					b.AddEdge(e.U, e.V, e.Length)
				}
			}
			ni := MustNewInstance(b.MustBuild(), inst.ps, inst.thr, inst.k, opts)
			ni.mergers = inst.mergers // same node count
			for i, p := range inst.ps.Pairs() {
				if int(p.U) == v || int(p.W) == v {
					ni.totalWeight -= int(ni.weights[i])
					ni.weights[i] = 0
				}
			}
			inst.nodeInsts[v] = ni
		}
	})
	return inst.nodeInsts, inst.nodeVac
}
