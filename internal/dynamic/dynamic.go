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
	"context"
	"errors"
	"fmt"
	"time"

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
	// every solver reads the shared cardinality k.
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

// NewSearch returns an incremental evaluator whose gains are summed across
// time instances.
func (p *Problem) NewSearch(sel []int) core.Search {
	subs := make([]core.Search, len(p.insts))
	for i, inst := range p.insts {
		subs[i] = inst.NewSearch(sel)
	}
	return &multiSearch{prob: p, subs: subs, sel: append([]int(nil), sel...), workers: 1, sink: p.sink}
}

// multiSearch fans Search operations out to per-instance searches. With
// SetWorkers > 1 the fan-out runs the per-instance scans concurrently —
// each sub-search owns its scratch, so they never share mutable state —
// and reduces the per-instance results serially in instance order, keeping
// every scan identical to the serial fan-out.
type multiSearch struct {
	prob    *Problem
	subs    []core.Search
	sel     []int
	workers int            // shard count for scans; 1 = serial
	gains   []int          // scratch for GainsAdd
	drops   []int          // scratch for SigmaDrops
	sink    telemetry.Sink // emits DynamicStepEvents on Add when non-nil

	// Scan timing (EnableScanTiming): per-time-instance wall time of the
	// GainsAdd fan-out, enabled only when a sink is attached upstream.
	timeScan   bool
	instNS     []int64
	scanMinNS  int64
	scanMaxNS  int64
	scanShards int
}

var _ core.Search = (*multiSearch)(nil)

// LastEvalStats drains and sums the per-time-instance
// incremental-evaluation accumulators.
func (s *multiSearch) LastEvalStats() (rowsMerged, rowsUnchanged, pairsRescanned, pairsSkipped int64) {
	for _, sub := range s.subs {
		rm, ru, pr, ps := sub.LastEvalStats()
		rowsMerged += rm
		rowsUnchanged += ru
		pairsRescanned += pr
		pairsSkipped += ps
	}
	return rowsMerged, rowsUnchanged, pairsRescanned, pairsSkipped
}

// SetContext forwards the supervision context to every per-instance
// search, so cancellation interrupts the fanned-out candidate scans too.
func (s *multiSearch) SetContext(ctx context.Context) {
	for _, sub := range s.subs {
		sub.SetContext(ctx)
	}
}

// EnableScanTiming turns on per-instance wall-time capture for subsequent
// GainsAdd scans.
func (s *multiSearch) EnableScanTiming(on bool) { s.timeScan = on }

// LastScanShards reports the per-instance wall-time extrema of the most
// recent GainsAdd fan-out; here a "shard" is one time instance, so the
// spread exposes imbalance across topologies rather than across candidate
// blocks.
func (s *multiSearch) LastScanShards() (minNS, maxNS int64, shards int) {
	return s.scanMinNS, s.scanMaxNS, s.scanShards
}

// SetWorkers fixes the shard count for subsequent scans. Workers are spent
// across time instances first; any surplus is pushed down into the
// per-instance candidate scans.
func (s *multiSearch) SetWorkers(n int) {
	s.workers = core.ResolveParallelism(n)
	sub := s.workers / len(s.subs)
	if sub < 1 {
		sub = 1
	}
	for _, ss := range s.subs {
		ss.SetWorkers(sub)
	}
}

func (s *multiSearch) Sigma() int {
	total := 0
	for _, sub := range s.subs {
		total += sub.Sigma()
	}
	return total
}

func (s *multiSearch) Selection() []int { return append([]int(nil), s.sel...) }

func (s *multiSearch) Len() int { return len(s.sel) }

func (s *multiSearch) Contains(cand int) bool {
	for _, c := range s.sel {
		if c == cand {
			return true
		}
	}
	return false
}

func (s *multiSearch) GainAdd(cand int) int {
	total := 0
	for _, sub := range s.subs {
		total += sub.GainAdd(cand)
	}
	return total
}

// GainsAdd sums the per-instance gain arrays: each sub-search runs its own
// fused candidate scan (concurrently when workers allow — every sub-search
// writes only its private scratch), and the argmax is taken over the
// totals, summed serially in instance order. The returned slice is scratch
// reused across calls.
func (s *multiSearch) GainsAdd() []int {
	numCand := s.prob.NumCandidates()
	if s.gains == nil {
		s.gains = make([]int, numCand)
	} else {
		for i := range s.gains {
			s.gains[i] = 0
		}
	}
	subGains := make([][]int, len(s.subs))
	if s.timeScan && cap(s.instNS) < len(s.subs) {
		s.instNS = make([]int64, len(s.subs))
	}
	core.ParallelFor(s.workers, len(s.subs), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if s.timeScan {
				start := time.Now()
				subGains[i] = s.subs[i].GainsAdd()
				s.instNS[i] = time.Since(start).Nanoseconds()
				continue
			}
			subGains[i] = s.subs[i].GainsAdd()
		}
	})
	if s.timeScan {
		s.scanShards = len(s.subs)
		s.scanMinNS, s.scanMaxNS = s.instNS[0], s.instNS[0]
		for _, ns := range s.instNS[1:len(s.subs)] {
			if ns < s.scanMinNS {
				s.scanMinNS = ns
			}
			if ns > s.scanMaxNS {
				s.scanMaxNS = ns
			}
		}
	}
	for _, gains := range subGains {
		for c, g := range gains {
			s.gains[c] += g
		}
	}
	return s.gains
}

// BestAdd scans all candidates, summing per-instance gains (ties toward
// the lowest candidate index). On a degenerate problem with an empty
// candidate universe it returns (-1, 0).
func (s *multiSearch) BestAdd() (cand, gain int) {
	gains := s.GainsAdd()
	if len(gains) == 0 {
		return -1, 0
	}
	best, bestGain := 0, gains[0]
	for c := 1; c < len(gains); c++ {
		if gains[c] > bestGain {
			best, bestGain = c, gains[c]
		}
	}
	return best, bestGain
}

func (s *multiSearch) SigmaDrop(pos int) int {
	total := 0
	for _, sub := range s.subs {
		total += sub.SigmaDrop(pos)
	}
	return total
}

// SigmaDrops returns Σ_i σ_i(S \ {S[pos]}) for every position in one
// sharded pass over the per-instance drop vectors. The slice is scratch
// reused across calls.
func (s *multiSearch) SigmaDrops() []int {
	if cap(s.drops) < len(s.sel) {
		s.drops = make([]int, len(s.sel))
	}
	s.drops = s.drops[:len(s.sel)]
	for i := range s.drops {
		s.drops[i] = 0
	}
	subDrops := make([][]int, len(s.subs))
	core.ParallelFor(s.workers, len(s.subs), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			subDrops[i] = s.subs[i].SigmaDrops()
		}
	})
	for _, drops := range subDrops {
		for pos, sig := range drops {
			s.drops[pos] += sig
		}
	}
	return s.drops
}

func (s *multiSearch) BestDrop() (pos, sigma int) {
	if len(s.sel) == 0 {
		panic("dynamic: BestDrop on empty selection")
	}
	drops := s.SigmaDrops()
	pos, sigma = 0, drops[0]
	for i := 1; i < len(drops); i++ {
		if drops[i] > sigma {
			pos, sigma = i, drops[i]
		}
	}
	return pos, sigma
}

func (s *multiSearch) Add(cand int) {
	s.sel = append(s.sel, cand)
	for _, sub := range s.subs {
		sub.Add(cand)
	}
	if s.sink != nil {
		e := s.prob.CandidateEdge(cand)
		per := make([]int, len(s.subs))
		total := 0
		for i, sub := range s.subs {
			per[i] = sub.Sigma()
			total += per[i]
		}
		s.sink.Emit(telemetry.DynamicStepEvent{
			Shortcut:         [2]int32{int32(e.U), int32(e.V)},
			Selected:         len(s.sel),
			PerInstanceSigma: per,
			Sigma:            total,
		})
	}
}

func (s *multiSearch) RemoveAt(pos int) {
	s.sel = append(s.sel[:pos], s.sel[pos+1:]...)
	for _, sub := range s.subs {
		sub.RemoveAt(pos)
	}
}
