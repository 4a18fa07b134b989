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
// The survivable solvers (GreedySigma, LocalSearch, Sandwich on a
// survivable Instance) optimize the pair (σ⁻, σ) lexicographically: among
// placements with equal worst-case coverage the fault-free coverage breaks
// the tie. See DESIGN.md §11 for the objective, the scenario-memoization
// invariants, and the monotonicity caveats of σ⁻.
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
// Sandwich uses it to pick its best arm lexicographically by (σ⁻, σ), and
// the cmds use it to report sigma_worst in run records.
type WorstCaseProblem interface {
	Problem
	// Survive returns the resolved failure model.
	Survive() Survivability
	// SigmaWorst evaluates σ⁻(sel) from scratch: the minimum σ over every
	// single-failure scenario of the selection. Under SurviveNone it
	// degenerates to Sigma(sel).
	SigmaWorst(sel []int) int
}

// worstCaseSearch is implemented by searches whose Sigma() speaks the
// scalarized lexicographic value L = σ⁻·(MaxSigma+1) + σ rather than plain
// σ. SigmaParts decomposes it so trace emission can report the two
// components separately.
type worstCaseSearch interface {
	// SigmaParts returns the fault-free σ and the worst-case σ⁻ of the
	// current selection.
	SigmaParts() (sigma, sigmaWorst int)
}

// sigmaParts decomposes a search's reported value for trace emission: the
// fault-free σ, and — when the search speaks the survivable lexicographic
// objective — a non-nil σ⁻.
func sigmaParts(s Search) (sigma int, sigmaWorst *int) {
	if ws, ok := s.(worstCaseSearch); ok {
		sg, wc := ws.SigmaParts()
		return sg, &wc
	}
	return s.Sigma(), nil
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

// survivableValue is the scalarized lexicographic objective
// L(sel) = σ⁻(sel)·(MaxSigma+1) + σ(sel): integer ordering of L equals
// lexicographic ordering of (σ⁻, σ), which is what the survivable search
// reports as its Sigma() so the greedy/swap machinery works unchanged.
func (inst *Instance) survivableValue(sel []int) int {
	return inst.SigmaWorst(sel)*(inst.totalWeight+1) + inst.Sigma(sel)
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
