// Package dynamic extends the MSC problem to dynamic networks (paper §VI).
//
// A dynamic network is a series of topologies G_1..G_T over a fixed node
// universe, each with its own edge set, important-pair set, and threshold
// (link conditions, topology, and pair importance all may change between
// time instances). One shortcut placement F is chosen for the whole series;
// the objective becomes σ(F) = Σ_i σ_i(F), the total number of maintained
// social connections across all time instances. The bounds extend as sums,
// μ = Σ μ_i and ν = Σ ν_i, which stay submodular and keep sandwiching σ —
// so every algorithm in internal/core applies unchanged through the shared
// Problem interface.
package dynamic

import (
	"errors"
	"fmt"

	"msc/internal/bitset"
	"msc/internal/core"
	"msc/internal/graph"
	"msc/internal/maxcover"
	"msc/internal/telemetry"
)

// Errors returned by NewProblem.
var (
	ErrNoInstances = errors.New("dynamic: need at least one time instance")
	ErrNodeUniv    = errors.New("dynamic: instances must share a node universe")
	ErrBudgets     = errors.New("dynamic: instances must share the budget k")
	// ErrSurvivable and ErrBudgeted refuse instances whose objective or
	// budget the dynamic sum does not carry: σ sums the fault-free σ_i and
	// every solver reads the shared cardinality k (DESIGN.md §8 lists the
	// compositions the search supports and why these are refused).
	ErrSurvivable = errors.New("dynamic: survivable time instances are not supported")
	ErrBudgeted   = errors.New("dynamic: budgeted time instances are not supported")
)

// Problem is a dynamic MSC problem: one placement evaluated against T time
// instances. It implements core.Problem.
type Problem struct {
	insts []*core.Instance
	n     int
	k     int
	sink  telemetry.Sink
}

var _ core.Problem = (*Problem)(nil)

// NewProblem bundles per-time-instance MSC instances into a dynamic
// problem. All instances must share the node count and budget k, and none
// may be survivable or budgeted.
func NewProblem(insts []*core.Instance) (*Problem, error) {
	if len(insts) == 0 {
		return nil, ErrNoInstances
	}
	n := insts[0].N()
	k := insts[0].K()
	for i, inst := range insts {
		if inst.N() != n {
			return nil, fmt.Errorf("%w: instance %d has %d nodes, want %d", ErrNodeUniv, i, inst.N(), n)
		}
		if inst.K() != k {
			return nil, fmt.Errorf("%w: instance %d has k=%d, want %d", ErrBudgets, i, inst.K(), k)
		}
		if m := inst.Survive(); m != core.SurviveNone {
			return nil, fmt.Errorf("%w: instance %d has survivability mode %q", ErrSurvivable, i, m)
		}
		if inst.Budgeted() {
			return nil, fmt.Errorf("%w: instance %d has knapsack budget B = %v", ErrBudgeted, i, inst.Budget())
		}
	}
	return &Problem{insts: insts, n: n, k: k}, nil
}

// SetSink attaches a telemetry sink: every search derived from the problem
// afterwards emits one DynamicStepEvent per committed shortcut, carrying the
// per-time-instance σ split. A nil sink (the default) emits nothing; the
// solver path is identical either way.
func (p *Problem) SetSink(s telemetry.Sink) { p.sink = s }

// T returns the number of time instances.
func (p *Problem) T() int { return len(p.insts) }

// Instances returns the per-time-instance problems. Callers must not
// modify the slice.
func (p *Problem) Instances() []*core.Instance { return p.insts }

// N returns the (shared) node count.
func (p *Problem) N() int { return p.n }

// K returns the (shared) shortcut budget.
func (p *Problem) K() int { return p.k }

// NumCandidates returns n(n−1)/2: shortcut endpoints persist across time.
func (p *Problem) NumCandidates() int { return p.insts[0].NumCandidates() }

// CandidateEdge maps a candidate index to its edge.
func (p *Problem) CandidateEdge(i int) graph.Edge { return p.insts[0].CandidateEdge(i) }

// CandidateIndex maps an edge to its candidate index.
func (p *Problem) CandidateIndex(e graph.Edge) int { return p.insts[0].CandidateIndex(e) }

// MaxSigma returns Σ_i m_i.
func (p *Problem) MaxSigma() int {
	total := 0
	for _, inst := range p.insts {
		total += inst.MaxSigma()
	}
	return total
}

// Sigma returns Σ_i σ_i(sel). The dynamic-level evaluation counts as one
// SigmaEval on top of the T per-instance evaluations it triggers.
func (p *Problem) Sigma(sel []int) int {
	telemetry.Global().SigmaEvals.Add(1)
	total := 0
	for _, inst := range p.insts {
		total += inst.Sigma(sel)
	}
	return total
}

// SigmaPar is Sigma with the per-instance evaluations sharded across
// workers (instances are immutable, so the evaluations are independent);
// the per-shard totals reduce serially in instance order, so
// SigmaPar(sel, w) == Sigma(sel) for every worker count.
func (p *Problem) SigmaPar(sel []int, workers int) int {
	if workers <= 1 || len(p.insts) == 1 {
		return p.Sigma(sel)
	}
	// Counted symmetrically with the delegating branch above: one
	// dynamic-level eval plus T per-instance evals, so totals match at
	// every worker count.
	telemetry.Global().SigmaEvals.Add(1)
	totals := make([]int, len(p.insts))
	core.ParallelFor(workers, len(p.insts), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			totals[i] = p.insts[i].Sigma(sel)
		}
	})
	total := 0
	for _, t := range totals {
		total += t
	}
	return total
}

// SigmaPerInstance returns the per-time-instance σ values (Fig. 5 reports
// both the total and its growth with T).
func (p *Problem) SigmaPerInstance(sel []int) []int {
	out := make([]int, len(p.insts))
	for i, inst := range p.insts {
		out[i] = inst.Sigma(sel)
	}
	return out
}

// Mu returns Σ_i μ_i(sel); a sum of submodular functions is submodular.
func (p *Problem) Mu(sel []int) float64 {
	total := 0.0
	for _, inst := range p.insts {
		total += inst.Mu(sel)
	}
	return total
}

// Nu returns Σ_i ν_i(sel).
func (p *Problem) Nu(sel []int) float64 {
	total := 0.0
	for _, inst := range p.insts {
		total += inst.Nu(sel)
	}
	return total
}

// MuProblem concatenates the per-instance μ coverage universes: element
// (i, pair j) lives at offset_i + j, and candidate c's set is the union of
// its per-instance sets.
func (p *Problem) MuProblem() maxcover.Problem {
	subs := make([]maxcover.Problem, len(p.insts))
	for i, inst := range p.insts {
		subs[i] = inst.MuProblem()
	}
	return concatCoverage(subs, p.k)
}

// NuProblem concatenates the per-instance ν weighted coverage universes:
// candidate node v's ball is the union of its per-instance balls.
func (p *Problem) NuProblem() maxcover.Problem {
	subs := make([]maxcover.Problem, len(p.insts))
	for i, inst := range p.insts {
		subs[i] = inst.NuProblem()
	}
	return concatCoverage(subs, p.k)
}

// concatCoverage merges per-instance coverage problems of one family shape
// over the same candidate ids into one problem whose universe is the
// disjoint union. Offsets grow with the instance index, so concatenating
// sorted per-instance lists in instance order keeps every list sorted.
func concatCoverage(subs []maxcover.Problem, k int) maxcover.Problem {
	out := maxcover.Problem{K: k}
	offsets := make([]int32, len(subs))
	weighted := false
	for i, sub := range subs {
		offsets[i] = int32(out.Universe)
		out.Universe += sub.Universe
		weighted = weighted || sub.Weights != nil
	}
	if weighted {
		out.Weights = make([]float64, 0, out.Universe)
		for _, sub := range subs {
			if sub.Weights != nil {
				out.Weights = append(out.Weights, sub.Weights...)
				continue
			}
			for j := 0; j < sub.Universe; j++ {
				out.Weights = append(out.Weights, 1)
			}
		}
	}
	for i, sub := range subs {
		if sub.Initial == nil {
			continue
		}
		if out.Initial == nil {
			out.Initial = bitset.New(out.Universe)
		}
		sub.Initial.ForEach(func(j int) { out.Initial.Add(int(offsets[i]) + j) })
	}
	var list []int32
	// appendShifted appends sub i's list xs, shifted into the joint universe.
	appendShifted := func(i int, xs []int32) {
		for _, x := range xs {
			list = append(list, offsets[i]+x)
		}
	}
	if subs[0].Pairs != nil {
		out.Pairs = &maxcover.Lists{}
		for v := 0; v < subs[0].Pairs.Len(); v++ {
			list = list[:0]
			for i, sub := range subs {
				appendShifted(i, sub.Pairs.At(v))
			}
			out.Pairs.Append(list)
		}
		return out
	}
	// Sparse families: a merge over the ascending id lists, with one
	// cursor per instance.
	out.Sparse = &maxcover.Sparse{N: subs[0].Sparse.N}
	cursor := make([]int, len(subs))
	for {
		id := -1
		for i, sub := range subs {
			if c := cursor[i]; c < len(sub.Sparse.IDs) && (id < 0 || sub.Sparse.IDs[c] < id) {
				id = sub.Sparse.IDs[c]
			}
		}
		if id < 0 {
			return out
		}
		list = list[:0]
		for i, sub := range subs {
			if c := cursor[i]; c < len(sub.Sparse.IDs) && sub.Sparse.IDs[c] == id {
				appendShifted(i, sub.Sparse.Sets.At(c))
				cursor[i]++
			}
		}
		out.Sparse.IDs = append(out.Sparse.IDs, id)
		out.Sparse.Sets.Append(list)
	}
}

// NewSearch returns the sum composite over the time instances' searches:
// σ, gains and drops are summed across time instances (core.SumSearch).
func (p *Problem) NewSearch(sel []int) core.Search {
	return core.SumSearch(p.insts, sel, p.sink)
}
