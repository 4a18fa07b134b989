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
	// dead, and pairs incident to v are vacuously satisfied (their demand
	// left with the node; the scenario adds their weight as a constant).
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
			e := inst.CandidateEdge(c)
			if int(e.U) != v && int(e.V) != v {
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
// to v. The scenario instances use the bounded distance backend — only
// the pair-endpoint d_t-balls are ever read — and are shared by every
// search built from this instance.
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
			inst.nodeInsts[v] = MustNewInstance(b.MustBuild(), inst.ps, inst.thr, inst.k, opts)
			inst.nodeInsts[v].mergers = inst.mergers // same node count
		}
	})
	return inst.nodeInsts, inst.nodeVac
}

// foldIncident calls fn for every candidate index incident to node v (none
// when v is outside the candidate universe). Used to overwrite a node
// scenario's gains for candidates that die with the node.
func (inst *Instance) foldIncident(v int, fn func(c int)) {
	pv := v
	if inst.candPos != nil {
		p := inst.candPos[v]
		if p < 0 {
			return
		}
		pv = int(p)
	}
	t := len(inst.candNodes)
	if pv >= t {
		return
	}
	// Grid row pv: candidates (pv, bi) for bi > pv.
	idx := rowStart(t, pv)
	for bi := pv + 1; bi < t; bi++ {
		fn(idx)
		idx++
	}
	// Grid column pv: candidates (ai, pv) for ai < pv.
	for ai := 0; ai < pv; ai++ {
		fn(rowStart(t, ai) + pv - ai - 1)
	}
}
