package core

import (
	"context"
	"math"
	"slices"
	"time"

	"msc/internal/obs"
	"msc/internal/telemetry"
)

// surviveSearch is the worst-case survivable evaluator. It maintains one
// incremental instSearch per single-failure scenario alongside the
// fault-free ("free") search, and reports the problem's objective
// L(S) = lexValue(σ⁻(S), σ(S)) (survive.go) as its Sigma(), so
// GreedySigma, ParBestSwap, and LocalSearch optimize (σ⁻, σ) without
// knowing failures exist.
//
// Scenario bookkeeping (DESIGN.md §11): scen lists every failure scenario
// in one order — the shortcut scenarios by selection position, then
// (SurviveNode) the node scenarios by node. A scenario's value is its
// vacuous weight plus its σ over the shortcuts that survive its failure.
//
//   - Shortcut scenario j evaluates S \ {S[j]} (vac 0, node -1). Add(c)
//     grows each existing scenario by the committed shortcut via its own
//     incremental ball merge, and the new scenario S∪{c} \ {c} = S is a
//     clone of the free search taken BEFORE the commit: its balls are
//     copied and its live gains handed over, so it needs no shortest-path
//     work and no rescan.
//   - Node scenario v evaluates the cached G−v scenario instance over the
//     shortcuts not incident to v (Instance.survives): merging a dead
//     endpoint's zero-length edge would fabricate paths through the dead
//     node. Pairs incident to v weigh 0 there and add their weight as the
//     constant vac instead, so a scan credits nothing to a shortcut
//     incident to v.
//
// Positioning is lazy, as in instSearch: construction and RemoveAt only
// reposition the searches and mark the evaluator stale; the first read
// rebuilds every search dealt across the workers and refolds σ⁻.
//
// A round (GainsAdd or BestAdd) refreshes the free search and the
// scenarios that can bind, then runs one fold kernel over the candidates:
//
//   - Concurrent refresh. The searches to scan are dealt across the run's
//     workers, each scanning with max(workers/tasks, 1) inner workers (the
//     split ParBestSwap uses); Add merges a commit the same way.
//   - Bound skip. With F the free σ (the value of the scenario dropping
//     the new shortcut itself), every candidate folds to
//     wa[c] = min(F, min_j base_j + g_j[c]) ≤ ub = min(F, base_* + max g_*)
//     for the first scenario * at σ⁻. A scenario with base_j ≥ ub can
//     only fold values ≥ ub ≥ wa[c], so it is neither scanned nor folded;
//     when F = σ⁻ every scenario drops out.
//   - Fused fold. Contiguous candidate shards fold foldChunk-sized blocks:
//     wa starts at F, takes the min with each live scenario's base + gain,
//     and turns into L-gains that GainsAdd writes and BestAdd argmaxes
//     without materializing them.
//
// Every step is an integer min or sum over a scenario set that depends on
// the selection only, so gains, placements and work counters are the same
// at every worker count.
type surviveSearch struct {
	inst *Instance

	free *instSearch // fault-free σ evaluator on the full selection
	scen []scenario  // the shortcut scenarios by position, then the node scenarios

	stale   bool // repositioned: the searches rebuild and σ⁻ refolds on the next read
	worst   int  // σ⁻ of the current selection
	worstAt int  // first scenario (scenario order) at σ⁻; -1 with none

	workers int
	ctx     context.Context

	// Round state the fold kernel reads: the free σ and gains, and the
	// scenarios that can bind.
	freeSigma int
	freeGains []int
	live      []scenario

	gains     []int         // GainsAdd output, len numCand
	spare     [][]int       // gains arrays reclaimed from stale scenarios
	tasks     []*instSearch // scratch: the searches one refresh stage scans
	shardBest [][2]int      // scratch: per-shard (candidate, L-gain) argmax
	drops     []int         // scratch for SigmaDrops
	dropRest  [][]int
}

// scenario is one single-failure scenario: its search over the shortcuts
// that survive the failure, the constant weight of the pairs that left
// with a failed node (vac), and that node — -1, with vac 0, when the
// failure is a shortcut's.
type scenario struct {
	*instSearch
	vac  int
	node int
}

// value is the scenario's current σ: vac + σ of its search.
func (sc scenario) value() int { return sc.vac + sc.Sigma() }

// foldChunk is the candidate block the fold kernel finishes before moving
// on: its wa buffer stays in cache while every live scenario's gains
// stream over it.
const foldChunk = 1024

var _ Search = (*surviveSearch)(nil)

// newSurviveSearch builds the survivable evaluator positioned at sel
// (copied): the free search, one shortcut scenario per selection position,
// and — under SurviveNode — one node scenario per node over the cached G−v
// instances. Nothing is computed until the first read.
func newSurviveSearch(inst *Instance, sel []int) *surviveSearch {
	s := &surviveSearch{inst: inst, free: inst.newInstSearch(nil), workers: 1}
	for range sel {
		s.scen = append(s.scen, scenario{instSearch: inst.newInstSearch(nil), node: -1})
	}
	if inst.survive == SurviveNode {
		insts, vac := inst.nodeScenarios()
		for v, ni := range insts {
			s.scen = append(s.scen, scenario{ni.newInstSearch(nil), vac[v], v})
		}
	}
	s.position(sel)
	return s
}

// position moves every search to sel (copied), one shortcut scenario per
// position of sel, and marks the evaluator stale. Scenario j keeps the
// shortcuts of sel that survive its failure: every one but position j for
// a shortcut scenario, every one not incident to the failed node for a
// node scenario (whose index lies past every position).
func (s *surviveSearch) position(sel []int) {
	s.free.reposition(sel)
	rest := make([]int, 0, len(sel))
	for j, sc := range s.scen {
		rest = rest[:0]
		for i, c := range s.free.sel {
			if i != j && s.inst.survives(c, sc.node) {
				rest = append(rest, c)
			}
		}
		sc.reposition(rest)
	}
	s.stale = true
}

// sync rebuilds the searches a position left stale, dealt across the
// workers the way a round deals its scans, and refolds σ⁻.
func (s *surviveSearch) sync() {
	if !s.stale {
		return
	}
	s.tasks = append(s.tasks[:0], s.free)
	for _, sc := range s.scen {
		s.tasks = append(s.tasks, sc.instSearch)
	}
	s.each(s.tasks, (*instSearch).sync)
	s.stale = false
	s.recomputeWorst()
}

// recomputeWorst folds σ⁻ from the live scenario searches and records the
// first scenario attaining it. With no scenarios at all (empty selection,
// shortcut mode) σ⁻ degenerates to σ(∅), matching Instance.SigmaWorst.
func (s *surviveSearch) recomputeWorst() {
	s.worstAt = -1
	for j, sc := range s.scen {
		if v := sc.value(); s.worstAt < 0 || v < s.worst {
			s.worst, s.worstAt = v, j
		}
	}
	count := int64(len(s.scen))
	if s.worstAt < 0 {
		s.worst = s.free.Sigma()
		count = 1
	}
	telemetry.Global().FailureScenariosEvaled.Add(count)
}

// Sigma returns the lexicographic value L = lexValue(σ⁻, σ) of the
// current selection — NOT plain σ; splitObjective recovers the two.
func (s *surviveSearch) Sigma() int {
	s.sync()
	return lexValue(s.worst, s.free.Sigma(), s.inst.totalWeight)
}

func (s *surviveSearch) Selection() []int { return s.free.Selection() }

func (s *surviveSearch) Len() int { return s.free.Len() }

func (s *surviveSearch) Contains(cand int) bool { return s.free.Contains(cand) }

// each runs fn on every search in ss, dealing the searches across the
// run's workers; each search shards its own work over
// max(workers/len(ss), 1) workers, the split ParBestSwap uses. With the
// ops plane up every call feeds the per-scenario eval-cost histogram.
func (s *surviveSearch) each(ss []*instSearch, fn func(*instSearch)) {
	if len(ss) == 0 {
		return
	}
	inner := max(s.workers/len(ss), 1)
	timed := obs.Enabled()
	ParallelFor(s.workers, len(ss), func(_, lo, hi int) {
		for _, sc := range ss[lo:hi] {
			sc.SetWorkers(inner)
			if !timed {
				fn(sc)
				continue
			}
			start := time.Now()
			fn(sc)
			obs.ObserveScenarioEval(time.Since(start))
		}
	})
}

// scan brings the gains of every search in ss up to date (a cold
// near-list scan after each commit, a cached return otherwise) with
// each's split. A search about to scan without a gains array takes a
// spare one first.
func (s *surviveSearch) scan(ss []*instSearch) {
	for _, sc := range ss {
		if sc.gains == nil && len(s.spare) > 0 {
			sc.gains, s.spare = s.spare[len(s.spare)-1], s.spare[:len(s.spare)-1]
		}
	}
	s.each(ss, func(sc *instSearch) { sc.GainsAdd() })
}

// refreshGains brings the free search and every scenario that can bind up
// to date and records the fold's round state: the free σ and gains, and
// the live scenarios. It first scans the free search and the first
// scenario at σ⁻ (none when F = σ⁻), which fixes the bound ub, then every
// other scenario whose value is below ub.
func (s *surviveSearch) refreshGains() {
	s.sync()
	// Stale gains arrays are never read again: keep them for the searches
	// this round scans.
	for _, sc := range s.scen {
		if !sc.gainsValid && sc.gains != nil {
			s.spare = append(s.spare, sc.gains)
			sc.gains = nil
		}
	}
	s.free.SetWorkers(s.workers)
	s.freeSigma = s.free.Sigma()
	s.live = s.live[:0]
	ub := s.freeSigma
	s.tasks = append(s.tasks[:0], s.free)
	if s.worst < ub {
		s.live = append(s.live, s.scen[s.worstAt])
		s.tasks = append(s.tasks, s.live[0].instSearch)
	}
	s.scan(s.tasks)
	s.freeGains = s.free.gains
	if len(s.live) > 0 && len(s.live[0].gains) > 0 {
		ub = min(ub, s.worst+slices.Max(s.live[0].gains))
	}
	s.tasks = s.tasks[:0]
	for j, sc := range s.scen {
		if j != s.worstAt && sc.value() < ub {
			s.tasks = append(s.tasks, sc.instSearch)
			s.live = append(s.live, sc)
		}
	}
	s.scan(s.tasks)
}

// GainsAdd returns the L-gain of every candidate addition: gain[c] =
// L(S∪{c}) − L(S), exact. σ⁻(S∪{c}) folds, per candidate, the drop-c
// scenario (σ(S), the free search's current value) and every live
// scenario's value + its own gain for c. The slice is scratch reused
// across calls.
func (s *surviveSearch) GainsAdd() []int {
	if s.gains == nil {
		s.gains = make([]int, s.inst.numCand)
	}
	s.refreshGains()
	s.fold(s.gains)
	return s.gains
}

// BestAdd returns the candidate with the largest L-gain (ties toward the
// lowest index) and that gain, from the same fold as GainsAdd without
// materializing the gains. Note that unlike the fault-free search a
// candidate already selected can score a positive gain: duplicating a
// critical shortcut is how a placement buys single-failure redundancy.
func (s *surviveSearch) BestAdd() (cand, gain int) {
	s.refreshGains()
	return s.fold(nil)
}

// fold runs the fold kernel over contiguous candidate shards (one per
// worker, at least a chunk each), writing the L-gains to out when it is
// non-nil, and combines the shard argmaxes by gain desc, then index asc:
// the first candidate of largest L-gain, or (-1, 0) with no candidates.
func (s *surviveSearch) fold(out []int) (cand, gain int) {
	n := s.inst.numCand
	shards := min(s.workers, (n+foldChunk-1)/foldChunk)
	if shards <= 1 {
		return s.foldRange(0, n, out)
	}
	if len(s.shardBest) < shards {
		s.shardBest = make([][2]int, shards)
	}
	ParallelFor(shards, n, func(shard, lo, hi int) {
		c, g := s.foldRange(lo, hi, out)
		s.shardBest[shard] = [2]int{c, g}
	})
	cand, gain = -1, 0
	for _, b := range s.shardBest[:shards] {
		if cand < 0 || b[1] > gain {
			cand, gain = b[0], b[1]
		}
	}
	return cand, gain
}

// foldRange is the fold kernel over candidates [lo, hi), one foldChunk
// block at a time: wa = min(F, base_j + g_j[c] over the live scenarios),
// then the L-gain lex(wa, F + freeGains[c]) − L(S), written to out when
// non-nil. It returns the first candidate of largest L-gain in the range,
// or (-1, 0) when the range is empty.
func (s *surviveSearch) foldRange(lo, hi int, out []int) (best, bestGain int) {
	var buf [foldChunk]int
	f := s.freeSigma
	// L-gain = lex(wa, F + freeGains[c]) − lex(σ⁻, F)
	//        = lex(wa, freeGains[c]) + off.
	maxW := s.inst.totalWeight
	off := f - lexValue(s.worst, f, maxW)
	best, bestGain = -1, math.MinInt
	for c0 := lo; c0 < hi; c0 += foldChunk {
		c1 := min(c0+foldChunk, hi)
		wa := buf[:c1-c0]
		for i := range wa {
			wa[i] = f
		}
		for _, sc := range s.live {
			base := sc.value()
			for i, gc := range sc.gains[c0:c1] {
				if v := base + gc; v < wa[i] {
					wa[i] = v
				}
			}
		}
		fg := s.freeGains[c0:c1]
		if out != nil {
			o := out[c0:c1]
			for i, w := range wa {
				o[i] = lexValue(w, fg[i], maxW) + off
			}
		}
		for i, w := range wa {
			if l := lexValue(w, fg[i], maxW) + off; l > bestGain {
				best, bestGain = c0+i, l
			}
		}
	}
	if best < 0 {
		return -1, 0
	}
	return best, bestGain
}

// GainAdd returns L(S ∪ {cand}) − L(S) without mutating the state: the
// min over the drop-cand scenario (σ(S)) and every scenario's value + its
// gain for cand.
func (s *surviveSearch) GainAdd(cand int) int {
	s.sync()
	freeGain := s.free.GainAdd(cand)
	freeSigma := s.free.Sigma()
	wa := freeSigma
	for _, sc := range s.scen {
		wa = min(wa, sc.value()+sc.GainAdd(cand))
	}
	w := s.inst.totalWeight
	return lexValue(wa, freeSigma+freeGain, w) - lexValue(s.worst, freeSigma, w)
}

// Add commits candidate cand. The pre-commit free search becomes the new
// shortcut's own failure scenario: its balls are copied and its gains
// array handed over, so the scenario needs no shortest-path work, no copy
// of the numCand-long array and — when those gains were live — no rescan.
// The commit is then merged into the free search and every scenario it
// survives in, dealt across the workers the way refreshGains deals its
// scans, and σ⁻ is refolded.
func (s *surviveSearch) Add(cand int) {
	s.sync()
	gains, valid := s.free.gains, s.free.gainsValid
	s.free.gains, s.free.gainsValid = nil, false
	newScen := s.free.clone()
	newScen.gains, newScen.gainsValid = gains, valid
	s.tasks = append(s.tasks[:0], s.free)
	for _, sc := range s.scen {
		if s.inst.survives(cand, sc.node) {
			s.tasks = append(s.tasks, sc.instSearch)
		}
	}
	s.each(s.tasks, func(sc *instSearch) { sc.Add(cand) })
	s.scen = slices.Insert(s.scen, s.free.Len()-1, scenario{instSearch: newScen, node: -1})
	s.recomputeWorst()
}

// RemoveAt removes the selection element at position pos: the dropped
// shortcut's scenario goes, its gains array kept for a later scan, and
// every other search is repositioned. A removal can lengthen distances,
// so the balls rebuild on the next read — the plain search's
// rebuild-on-remove rule.
func (s *surviveSearch) RemoveAt(pos int) {
	if g := s.scen[pos].gains; g != nil {
		s.spare = append(s.spare, g)
	}
	s.scen = slices.Delete(s.scen, pos, pos+1)
	s.position(slices.Delete(s.free.Selection(), pos, pos+1))
}

// SigmaDrop returns L(S \ {S[pos]}), evaluated from scratch (a drop
// changes every scenario's selection, so nothing memoized applies).
func (s *surviveSearch) SigmaDrop(pos int) int {
	sel := s.free.sel
	rest := make([]int, 0, len(sel)-1)
	rest = append(rest, sel[:pos]...)
	rest = append(rest, sel[pos+1:]...)
	return objective(s.inst, rest, 1)
}

// SigmaDrops returns L(S \ {S[pos]}) for every position, sharded across
// workers; each shard owns a private scratch selection. The slice is
// scratch reused across calls.
func (s *surviveSearch) SigmaDrops() []int {
	sel := s.free.sel
	if cap(s.drops) < len(sel) {
		s.drops = make([]int, len(sel))
	}
	s.drops = s.drops[:len(sel)]
	for cap(s.dropRest) < s.workers {
		s.dropRest = append(s.dropRest[:cap(s.dropRest)], nil)
	}
	s.dropRest = s.dropRest[:s.workers]
	ParallelFor(s.workers, len(sel), func(shard, lo, hi int) {
		rest := s.dropRest[shard]
		for pos := lo; pos < hi; pos++ {
			if s.interrupted() {
				return
			}
			rest = append(rest[:0], sel[:pos]...)
			rest = append(rest, sel[pos+1:]...)
			s.drops[pos] = objective(s.inst, rest, 1)
		}
		s.dropRest[shard] = rest
	})
	return s.drops
}

// BestDrop returns the position whose removal leaves the largest L (ties
// toward the lowest position) and that L. It panics on an empty selection.
func (s *surviveSearch) BestDrop() (pos, sigma int) {
	if s.free.Len() == 0 {
		panic("core: BestDrop on empty selection")
	}
	return argmax(s.SigmaDrops())
}

func (s *surviveSearch) interrupted() bool {
	return s.ctx != nil && s.ctx.Err() != nil
}

// SetWorkers fixes the worker count a round deals its scans, merges and
// fold shards across; results are byte-identical at every worker count.
func (s *surviveSearch) SetWorkers(n int) { s.workers = ResolveParallelism(n) }

// SetContext installs ctx on the free and scenario scans.
func (s *surviveSearch) SetContext(ctx context.Context) {
	s.ctx = ctx
	s.free.SetContext(ctx)
	for _, sc := range s.scen {
		sc.SetContext(ctx)
	}
}

// EnableScanTiming times the free search's scans (scenario scans are
// reported through the per-scenario eval histogram instead).
func (s *surviveSearch) EnableScanTiming(on bool) { s.free.EnableScanTiming(on) }

// LastScanShards reports the free search's last timed scan.
func (s *surviveSearch) LastScanShards() (minNS, maxNS int64, shards int) {
	return s.free.LastScanShards()
}

// LastEvalStats drains the free search and every scenario search — the
// totals reflect the whole survivable round.
func (s *surviveSearch) LastEvalStats() (rowsMerged, rowsUnchanged, pairsRescanned, pairsSkipped int64) {
	drain := func(sc *instSearch) {
		rm, ru, pr, pk := sc.LastEvalStats()
		rowsMerged += rm
		rowsUnchanged += ru
		pairsRescanned += pr
		pairsSkipped += pk
	}
	drain(s.free)
	for _, sc := range s.scen {
		drain(sc.instSearch)
	}
	return rowsMerged, rowsUnchanged, pairsRescanned, pairsSkipped
}
