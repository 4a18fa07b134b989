package core

import (
	"fmt"
	"math"

	"msc/internal/graph"
	"msc/internal/xrand"
)

// CostModel selects how candidate shortcuts are priced when an instance
// carries a knapsack budget B instead of the paper's cardinality budget k
// (Options.Budget). The paper prices every shortcut equally — CostUnit with
// B = k reproduces it exactly — but real direct links (satellite, UAV relay)
// have heterogeneous prices, which CostLength and CostTable model.
type CostModel string

const (
	// CostModelAuto resolves to CostUnit.
	CostModelAuto CostModel = ""
	// CostUnit prices every candidate at 1, so a budget B admits ⌊B⌋
	// shortcuts: the cardinality problem in knapsack form. Unit-cost runs
	// with B = k are bit-for-bit identical to cardinality-k runs (the
	// property suite locks that in).
	CostUnit CostModel = "unit"
	// CostLength prices a candidate by how much connectivity it buys:
	// 1 + D0(a,b)/d_t, where D0 is the raw shortest-path distance between
	// the endpoints. A shortcut bridging a distant pair is proportionally
	// more expensive (longer physical link); endpoints the raw network
	// cannot connect price at +Inf, i.e. unaffordable.
	CostLength CostModel = "length"
	// CostTable prices candidates from an explicit per-candidate table
	// (Options.Costs, typically loaded via graphio.ReadCostTable).
	CostTable CostModel = "table"
)

// ParseCostModel validates a -cost-model flag value; "auto", "unit",
// "length", and "table" are accepted.
func ParseCostModel(s string) (CostModel, error) {
	switch s {
	case "", "auto":
		return CostModelAuto, nil
	case string(CostUnit):
		return CostUnit, nil
	case string(CostLength):
		return CostLength, nil
	case string(CostTable):
		return CostTable, nil
	}
	return CostModelAuto, fmt.Errorf("core: unknown cost model %q (want auto, unit, length, or table)", s)
}

// resolveCostModel applies the explicit-option → built-in resolution chain.
// Unknown non-auto values pass through for NewInstance to reject.
func resolveCostModel(m CostModel) CostModel {
	if m == CostModelAuto {
		return CostUnit
	}
	return m
}

// BudgetProblem extends Problem with a knapsack budget over priced
// candidates. The solvers type-assert for it: on a budgeted problem greedy
// runs in cost-benefit ratio form, local-search swaps check budget
// feasibility, and EA/AEA treat cost as the second Pareto axis. A problem
// may implement the interface and still report Budgeted() == false, in
// which case the cardinality paths run.
type BudgetProblem interface {
	Problem
	// Budgeted reports whether the knapsack budget replaces cardinality k.
	Budgeted() bool
	// Budget returns the knapsack budget B.
	Budget() float64
	// Cost returns the price of one candidate shortcut (positive; +Inf
	// marks an unaffordable candidate).
	Cost(cand int) float64
	// CostOf returns the total price of a selection.
	CostOf(sel []int) float64
}

// asBudgeted returns the problem's budgeted view when it has one.
func asBudgeted(p Problem) (BudgetProblem, bool) {
	bp, ok := p.(BudgetProblem)
	if !ok || !bp.Budgeted() {
		return nil, false
	}
	return bp, true
}

// initBudget resolves the budget options into the instance's cost state.
// An instance is budgeted when any of Budget/CostModel/Costs is set; B = 0
// is legal (only the empty placement is feasible).
func (inst *Instance) initBudget(opts *Options) error {
	if opts == nil || (opts.Budget == 0 && opts.CostModel == CostModelAuto && opts.Costs == nil) {
		return nil // cardinality instance
	}
	budget, model, costs := opts.Budget, opts.CostModel, opts.Costs
	if math.IsNaN(budget) || math.IsInf(budget, 0) || budget < 0 {
		return &InputError{Param: "budget", Reason: fmt.Sprintf("budget B = %v must be finite and non-negative", budget)}
	}
	if costs != nil && model == CostModelAuto {
		model = CostTable
	}
	model = resolveCostModel(model)
	switch model {
	case CostUnit:
		if costs != nil {
			return &InputError{Param: "costs", Reason: `explicit per-candidate costs conflict with cost model "unit"`}
		}
	case CostLength:
		if costs != nil {
			return &InputError{Param: "costs", Reason: `explicit per-candidate costs conflict with cost model "length"`}
		}
		// The price table is materialized lazily on the first Cost call
		// (it reads one full-range row per candidate node): instances
		// that are only ever σ-evaluated never pay for it.
	case CostTable:
		if costs == nil {
			return &InputError{Param: "costs", Reason: `cost model "table" requires per-candidate costs`}
		}
		if len(costs) != inst.numCand {
			return &InputError{Param: "costs", Value: len(costs),
				Reason: fmt.Sprintf("cost table length does not match the %d candidate edges", inst.numCand)}
		}
		copied := make([]float64, len(costs))
		for i, c := range costs {
			if math.IsNaN(c) || c <= 0 {
				return &InputError{Param: "costs", Value: i,
					Reason: fmt.Sprintf("cost %v must be positive (NaN and non-positive prices rejected; +Inf marks unaffordable)", c)}
			}
			copied[i] = c
		}
		costs = copied
	default:
		return fmt.Errorf("core: unknown cost model %q (want auto, unit, length, or table)", model)
	}
	inst.budgeted = true
	inst.budget = budget
	inst.costModel = model
	inst.costs = costs // nil under CostUnit: Cost returns 1 without a table
	return nil
}

// Budgeted reports whether the instance carries a knapsack budget in place
// of the cardinality budget k.
func (inst *Instance) Budgeted() bool { return inst.budgeted }

// Budget returns the knapsack budget B (0 when the instance is not
// budgeted).
func (inst *Instance) Budget() float64 { return inst.budget }

// CostModel returns the resolved cost model of a budgeted instance, or
// CostModelAuto when the instance is a cardinality one.
func (inst *Instance) CostModel() CostModel { return inst.costModel }

// Cost returns the price of one candidate shortcut (1 on cardinality
// instances, so CostOf degenerates to the selection size).
func (inst *Instance) Cost(cand int) float64 {
	if !inst.budgeted || inst.costModel == CostUnit {
		return 1
	}
	inst.costOnce.Do(inst.buildCosts)
	return inst.costs[cand]
}

// buildCosts materializes the CostLength price table; CostTable prices were
// validated and copied by initBudget already. Length prices are uncapped,
// so they read full-range rows (fullRow), one per candidate node, held
// only while its candidates are priced. Each row is read from the lower-id
// endpoint e.U, the direction Table.Dist reads.
func (inst *Instance) buildCosts() {
	if inst.costs != nil {
		return
	}
	costs := make([]float64, inst.numCand)
	var (
		from graph.NodeID = -1
		dist []float64
	)
	for i := range costs {
		e := inst.CandidateEdge(i)
		if e.U != from { // candidates are ordered by e.U
			from, dist = e.U, inst.fullRow(e.U)
		}
		costs[i] = 1
		if d := dist[e.V]; d > 0 {
			costs[i] = 1 + d/inst.thr.D
		}
	}
	inst.costs = costs
}

// CostOf returns the total price of a selection.
func (inst *Instance) CostOf(sel []int) float64 {
	total := 0.0
	for _, c := range sel {
		total += inst.Cost(c)
	}
	return total
}

// affordableFill draws a random budget-feasible selection: while some
// absent candidate is still affordable, it rejects uniform draws until one
// fits. Under unit costs with B = k the draw sequence is identical to
// xrand.SampleDistinct's rejection branch, which is what makes budgeted
// RandomPlacement/AEA reproduce their cardinality counterparts bit for bit
// on sparse selections.
func affordableFill(bp BudgetProblem, rng *xrand.Rand) []int {
	n := bp.NumCandidates()
	rem := bp.Budget()
	in := make([]bool, n)
	var sel []int
	for {
		affordable := false
		for c := 0; c < n; c++ {
			if !in[c] && bp.Cost(c) <= rem {
				affordable = true
				break
			}
		}
		if !affordable {
			return sel
		}
		for {
			c := rng.Intn(n)
			if in[c] || bp.Cost(c) > rem {
				continue
			}
			in[c] = true
			rem -= bp.Cost(c)
			sel = append(sel, c)
			break
		}
	}
}
