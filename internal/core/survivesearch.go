package core

import (
	"context"
	"math"
	"slices"
	"sort"
	"time"

	"msc/internal/obs"
	"msc/internal/telemetry"
)

// surviveSearch is the worst-case survivable evaluator. It maintains one
// incremental instSearch per single-failure scenario alongside the
// fault-free ("free") search, and reports the scalarized lexicographic
// objective L(S) = σ⁻(S)·(MaxSigma+1) + σ(S) as its Sigma(), so
// GreedySigma, ParBestSwap, and LocalSearch optimize (σ⁻, σ) without
// knowing failures exist.
//
// Scenario bookkeeping (DESIGN.md §11):
//
//   - scen[j] evaluates the shortcut-failure scenario S \ {S[j]}, in
//     selection-position order. Add(c) grows each existing scenario by the
//     committed shortcut via its own incremental ball merge, and the new
//     scenario S∪{c} \ {c} = S is a clone of the free search taken BEFORE
//     the commit: its balls are copied and its live gains handed over, so
//     it needs no shortest-path work and no rescan.
//   - nodeScen[v] (SurviveNode) evaluates σ on the cached G−v scenario
//     instance over the shortcuts that survive v; shortcuts incident to v
//     are excluded from the scenario's selection outright (merging a dead
//     endpoint's zero-length edge would fabricate paths through the dead
//     node). Pairs incident to v contribute the constant nodeVac[v].
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
//     wa starts at F, takes the min with each live scenario's base + gain
//     and with the node pins, and turns into L-gains that GainsAdd writes
//     and BestAdd argmaxes without materializing them.
//
// Every step is an integer min or sum over a scenario set that depends on
// the selection only, so gains, placements and work counters are the same
// at every worker count.
type surviveSearch struct {
	inst *Instance

	free *instSearch // fault-free σ evaluator on the full selection

	scen     []*instSearch // shortcut-failure scenarios, one per position
	nodeScen []*instSearch // node-failure scenarios (SurviveNode), one per node
	nodeVac  []int         // constant vacuous weight per node scenario

	worst   int // σ⁻ of the current selection
	worstAt int // first scenario (scenario order) at σ⁻; -1 with none

	workers int
	ctx     context.Context

	// Round state the fold kernel reads: the free σ and gains, the
	// scenarios that can bind, and — when a live node scenario has a
	// candidate position — the per-position pin (its base; MaxInt
	// elsewhere).
	freeSigma int
	freeGains []int
	live      []liveScen
	pins      []int
	pinned    bool

	gains     []int         // GainsAdd output, len numCand
	spare     [][]int       // gains arrays reclaimed from stale scenarios
	tasks     []*instSearch // scratch: the searches one refresh stage scans
	shardBest [][2]int      // scratch: per-shard (candidate, L-gain) argmax
	drops     []int         // scratch for SigmaDrops
	dropRest  [][]int
}

// liveScen is one scenario the fold reads: its gains and its value.
type liveScen struct {
	gains []int
	base  int
}

// foldChunk is the candidate block the fold kernel finishes before moving
// on: its wa buffer stays in cache while every live scenario's gains
// stream over it.
const foldChunk = 1024

var (
	_ Search          = (*surviveSearch)(nil)
	_ worstCaseSearch = (*surviveSearch)(nil)
)

// newSurviveSearch builds the survivable evaluator positioned at sel
// (copied): the free search, one shortcut scenario per selection position,
// and — under SurviveNode — one node scenario per node over the cached G−v
// instances.
func newSurviveSearch(inst *Instance, sel []int) *surviveSearch {
	s := &surviveSearch{inst: inst, workers: 1}
	s.free = inst.newInstSearch(sel)
	sel = s.free.sel
	s.scen = make([]*instSearch, len(sel))
	rest := make([]int, 0, len(sel))
	for j := range sel {
		rest = append(rest[:0], sel[:j]...)
		rest = append(rest, sel[j+1:]...)
		s.scen[j] = inst.newInstSearch(rest)
	}
	if inst.survive == SurviveNode {
		insts, vac := inst.nodeScenarios()
		s.nodeVac = vac
		s.nodeScen = make([]*instSearch, len(insts))
		surv := make([]int, 0, len(sel))
		for v, ni := range insts {
			surv = surv[:0]
			for _, c := range sel {
				e := inst.CandidateEdge(c)
				if int(e.U) != v && int(e.V) != v {
					surv = append(surv, c)
				}
			}
			s.nodeScen[v] = ni.newInstSearch(surv)
		}
	}
	s.recomputeWorst()
	return s
}

// scenario returns scenario j in scenario order — the shortcut scenarios
// by selection position, then the node scenarios by node — with its
// current value (vac + σ for a node scenario) and its failed node (-1 for
// a shortcut scenario).
func (s *surviveSearch) scenario(j int) (sc *instSearch, base, node int) {
	if j < len(s.scen) {
		sc = s.scen[j]
		return sc, sc.Sigma(), -1
	}
	v := j - len(s.scen)
	sc = s.nodeScen[v]
	return sc, s.nodeVac[v] + sc.Sigma(), v
}

func (s *surviveSearch) numScenarios() int { return len(s.scen) + len(s.nodeScen) }

// recomputeWorst folds σ⁻ from the live scenario searches and records the
// first scenario attaining it. With no scenarios at all (empty selection,
// shortcut mode) σ⁻ degenerates to σ(∅), matching Instance.SigmaWorst.
func (s *surviveSearch) recomputeWorst() {
	s.worstAt = -1
	for j := range s.numScenarios() {
		if _, base, _ := s.scenario(j); s.worstAt < 0 || base < s.worst {
			s.worst, s.worstAt = base, j
		}
	}
	count := int64(s.numScenarios())
	if s.worstAt < 0 {
		s.worst = s.free.Sigma()
		count = 1
	}
	telemetry.Global().FailureScenariosEvaled.Add(count)
}

// lexValue scalarizes (σ⁻, σ) into the single integer the Search interface
// speaks: L = σ⁻·(MaxSigma+1) + σ.
func (s *surviveSearch) lexValue(worst, sigma int) int {
	return worst*(s.inst.totalWeight+1) + sigma
}

// Sigma returns the lexicographic value L of the current selection — NOT
// plain σ. Callers needing the components use SigmaParts.
func (s *surviveSearch) Sigma() int { return s.lexValue(s.worst, s.free.Sigma()) }

// SigmaParts implements worstCaseSearch: the fault-free σ and worst-case
// σ⁻ of the current selection.
func (s *surviveSearch) SigmaParts() (sigma, sigmaWorst int) {
	return s.free.Sigma(), s.worst
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
// to date and records the fold's round state: the free σ and gains, the
// live scenarios, and the node pins. It first scans the free search and
// the first scenario at σ⁻ (none when F = σ⁻), which fixes the bound ub,
// then every other scenario whose value is below ub.
func (s *surviveSearch) refreshGains() {
	// Stale gains arrays are never read again: keep them for the searches
	// this round scans.
	for j := range s.numScenarios() {
		if sc, _, _ := s.scenario(j); !sc.gainsValid && sc.gains != nil {
			s.spare = append(s.spare, sc.gains)
			sc.gains = nil
		}
	}
	s.free.SetWorkers(s.workers)
	s.freeSigma = s.free.Sigma()
	s.live = s.live[:0]
	s.pinned = false
	ub := s.freeSigma
	s.tasks = append(s.tasks[:0], s.free)
	if s.worst < ub {
		first, _, _ := s.scenario(s.worstAt)
		s.tasks = append(s.tasks, first)
	}
	s.scan(s.tasks)
	s.freeGains = s.free.gains
	if s.worst < ub {
		s.addLive(s.worstAt)
		if g := s.live[0].gains; len(g) > 0 {
			ub = min(ub, s.worst+slices.Max(g))
		}
	}
	s.tasks = s.tasks[:0]
	for j := range s.numScenarios() {
		if sc, base, _ := s.scenario(j); j != s.worstAt && base < ub {
			s.tasks = append(s.tasks, sc)
		}
	}
	s.scan(s.tasks)
	for j := range s.numScenarios() {
		if _, base, _ := s.scenario(j); j != s.worstAt && base < ub {
			s.addLive(j)
		}
	}
}

// addLive appends scenario j to the fold's live set; a node scenario also
// pins the candidates incident to its node at its base, since a shortcut
// dies with its endpoint (the scan may have credited it a spurious gain
// through the dead node's zero self-distance).
func (s *surviveSearch) addLive(j int) {
	sc, base, v := s.scenario(j)
	s.live = append(s.live, liveScen{gains: sc.gains, base: base})
	if v < 0 {
		return
	}
	pv := v
	if s.inst.candPos != nil {
		pv = int(s.inst.candPos[v])
	}
	if pv < 0 || pv >= len(s.inst.candNodes) {
		return // v hosts no candidate
	}
	if !s.pinned {
		if s.pins == nil {
			s.pins = make([]int, len(s.inst.candNodes))
		}
		for i := range s.pins {
			s.pins[i] = math.MaxInt
		}
		s.pinned = true
	}
	s.pins[pv] = base
}

// GainsAdd returns the L-gain of every candidate addition: gain[c] =
// L(S∪{c}) − L(S), exact. σ⁻(S∪{c}) folds, per candidate, the drop-c
// scenario (σ(S), the free search's current value), every live shortcut
// scenario's σ + its own gain for c, and every live node scenario's
// vac + σ + gain — with candidates incident to a failed node pinned to
// that scenario's value. The slice is scratch reused across calls.
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
// block at a time: wa = min(F, base_j + g_j[c] over the live scenarios,
// the pins of c's two endpoints), then the L-gain
// lex(wa, F + freeGains[c]) − L(S), written to out when non-nil. It
// returns the first candidate of largest L-gain in the range, or (-1, 0)
// when the range is empty.
func (s *surviveSearch) foldRange(lo, hi int, out []int) (best, bestGain int) {
	var buf [foldChunk]int
	t := len(s.inst.candNodes)
	f := s.freeSigma
	// L-gain = lex(wa, F + freeGains[c]) − lex(σ⁻, F)
	//        = wa·scale + freeGains[c] + off.
	scale, off := s.inst.totalWeight+1, f-s.lexValue(s.worst, f)
	best, bestGain = -1, math.MinInt
	// Grid row of candidate lo and the index one past its last cell, for
	// the pins.
	ai := 0
	if s.pinned {
		ai = sort.Search(t-1, func(r int) bool { return rowStart(t, r+1) > lo })
	}
	rowEnd := rowStart(t, ai+1)
	for c0 := lo; c0 < hi; c0 += foldChunk {
		c1 := min(c0+foldChunk, hi)
		wa := buf[:c1-c0]
		for i := range wa {
			wa[i] = f
		}
		for _, sc := range s.live {
			for i, gc := range sc.gains[c0:c1] {
				if v := sc.base + gc; v < wa[i] {
					wa[i] = v
				}
			}
		}
		if s.pinned {
			for c := c0; c < c1; {
				for c >= rowEnd {
					ai++
					rowEnd = rowStart(t, ai+1)
				}
				pa := s.pins[ai]
				bi := ai + 1 + c - rowStart(t, ai)
				for end := min(rowEnd, c1); c < end; c, bi = c+1, bi+1 {
					wa[c-c0] = min(wa[c-c0], pa, s.pins[bi])
				}
			}
		}
		fg := s.freeGains[c0:c1]
		if out != nil {
			o := out[c0:c1]
			for i, w := range wa {
				o[i] = w*scale + fg[i] + off
			}
		}
		for i, w := range wa {
			if l := w*scale + fg[i] + off; l > bestGain {
				best, bestGain = c0+i, l
			}
		}
	}
	if best < 0 {
		return -1, 0
	}
	return best, bestGain
}

// GainAdd returns L(S ∪ {cand}) − L(S) without mutating the state.
func (s *surviveSearch) GainAdd(cand int) int {
	freeGain := s.free.GainAdd(cand)
	freeSigma := s.free.Sigma()
	e := s.inst.CandidateEdge(cand)
	wa := freeSigma
	for _, sc := range s.scen {
		if v := sc.Sigma() + sc.GainAdd(cand); v < wa {
			wa = v
		}
	}
	for v, sc := range s.nodeScen {
		base := s.nodeVac[v] + sc.Sigma()
		if int(e.U) != v && int(e.V) != v {
			base += sc.GainAdd(cand)
		}
		if base < wa {
			wa = base
		}
	}
	return s.lexValue(wa, freeSigma+freeGain) - s.lexValue(s.worst, freeSigma)
}

// Add commits candidate cand. The pre-commit free search becomes the new
// shortcut's own failure scenario: its balls are copied and its gains
// array handed over, so the scenario needs no shortest-path work, no copy
// of the numCand-long array and — when those gains were live — no rescan.
// The commit is then merged into the free search and every scenario it
// can touch, dealt across the workers the way refreshGains deals its
// scans, and σ⁻ is refolded.
func (s *surviveSearch) Add(cand int) {
	gains, valid := s.free.gains, s.free.gainsValid
	s.free.gains, s.free.gainsValid = nil, false
	newScen := s.free.clone()
	newScen.gains, newScen.gainsValid = gains, valid
	s.tasks = append(append(s.tasks[:0], s.free), s.scen...)
	e := s.inst.CandidateEdge(cand)
	for v, sc := range s.nodeScen {
		if int(e.U) != v && int(e.V) != v { // else the shortcut dies with v
			s.tasks = append(s.tasks, sc)
		}
	}
	s.each(s.tasks, func(sc *instSearch) { sc.Add(cand) })
	s.scen = append(s.scen, newScen)
	s.recomputeWorst()
}

// RemoveAt removes the selection element at position pos. Scenario
// identity is positional, so a removal reconstructs the evaluator from the
// surviving selection — the survivable analogue of the plain search's
// rebuild-on-remove rule.
func (s *surviveSearch) RemoveAt(pos int) {
	sel := s.free.Selection()
	sel = append(sel[:pos], sel[pos+1:]...)
	ns := newSurviveSearch(s.inst, sel)
	ns.workers = s.workers
	ns.ctx = s.ctx
	ns.applyContext()
	*s = *ns
}

// SigmaDrop returns L(S \ {S[pos]}), evaluated from scratch (a drop
// changes every scenario's selection, so nothing memoized applies).
func (s *surviveSearch) SigmaDrop(pos int) int {
	sel := s.free.sel
	rest := make([]int, 0, len(sel)-1)
	rest = append(rest, sel[:pos]...)
	rest = append(rest, sel[pos+1:]...)
	return s.inst.survivableValue(rest)
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
			s.drops[pos] = s.inst.survivableValue(rest)
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
	s.applyContext()
}

func (s *surviveSearch) applyContext() {
	s.free.SetContext(s.ctx)
	for _, sc := range s.scen {
		sc.SetContext(s.ctx)
	}
	for _, sc := range s.nodeScen {
		sc.SetContext(s.ctx)
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
		drain(sc)
	}
	for _, sc := range s.nodeScen {
		drain(sc)
	}
	return rowsMerged, rowsUnchanged, pairsRescanned, pairsSkipped
}
