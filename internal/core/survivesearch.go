package core

import (
	"context"
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
//     committed shortcut via its own incremental row min-merge against the
//     surviving set — rows a commit does not touch are skipped once the
//     merge finds no improved node in them, which is exactly the "invalidated only
//     for scenarios whose rows a new shortcut touched" contract — and the
//     new scenario S∪{c} \ {c} = S is a clone of the free search taken
//     BEFORE the commit, inheriting its rows and live gains for free.
//   - nodeScen[v] (SurviveNode) evaluates σ on the cached G−v scenario
//     instance over the shortcuts that survive v; shortcuts incident to v
//     are excluded from the scenario's selection outright (merging a dead
//     endpoint's zero-length edge would fabricate paths through the dead
//     node). Pairs incident to v contribute the constant nodeVac[v].
//
// All scenario state is memoized across greedy rounds: a round costs one
// O(n)-row merge per live scenario plus one near-list gains scan per
// scenario, never |S|+1 rebuilds.
type surviveSearch struct {
	inst *Instance

	free *instSearch // fault-free σ evaluator on the full selection

	scen     []*instSearch // shortcut-failure scenarios, one per position
	nodeScen []*instSearch // node-failure scenarios (SurviveNode), one per node
	nodeVac  []int         // constant vacuous weight per node scenario

	worst int // σ⁻ of the current selection

	workers int
	ctx     context.Context

	gains      []int // composite L-gain scratch, len numCand
	worstAfter []int // per-candidate σ⁻(S ∪ {c}) scratch
	drops      []int // scratch for SigmaDrops
	dropRest   [][]int
}

var (
	_ ParallelSearch  = (*surviveSearch)(nil)
	_ ScanTimer       = (*surviveSearch)(nil)
	_ ContextAware    = (*surviveSearch)(nil)
	_ EvalStats       = (*surviveSearch)(nil)
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

// recomputeWorst folds σ⁻ from the live scenario searches. With no
// scenarios at all (empty selection, shortcut mode) σ⁻ degenerates to
// σ(∅), matching Instance.SigmaWorst.
func (s *surviveSearch) recomputeWorst() {
	worst := 0
	have := false
	for _, sc := range s.scen {
		if v := sc.Sigma(); !have || v < worst {
			worst, have = v, true
		}
	}
	for v, sc := range s.nodeScen {
		if val := s.nodeVac[v] + sc.Sigma(); !have || val < worst {
			worst, have = val, true
		}
	}
	count := int64(len(s.scen) + len(s.nodeScen))
	if !have {
		worst = s.free.Sigma()
		count = 1
	}
	telemetry.Global().FailureScenariosEvaled.Add(count)
	s.worst = worst
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

// timedGains runs a scenario's gains scan (a cold near-list scan after each
// commit, a cached return otherwise), feeding the per-scenario eval-cost
// histogram when the ops plane is up.
func (s *surviveSearch) timedGains(sc *instSearch, timed bool) []int {
	if !timed {
		return sc.GainsAdd()
	}
	start := time.Now()
	g := sc.GainsAdd()
	obs.ObserveScenarioEval(time.Since(start))
	return g
}

// timedAdd commits cand into a scenario search, timing the incremental
// merge for the per-scenario eval-cost histogram when the ops plane is up.
func (s *surviveSearch) timedAdd(sc *instSearch, cand int, timed bool) {
	if !timed {
		sc.Add(cand)
		return
	}
	start := time.Now()
	sc.Add(cand)
	obs.ObserveScenarioEval(time.Since(start))
}

// GainsAdd returns the L-gain of every candidate addition: gain[c] =
// L(S∪{c}) − L(S), exact. σ⁻(S∪{c}) folds, per candidate, the drop-c
// scenario (σ(S), the free search's current value), every shortcut
// scenario's σ + its own gain for c, and every node scenario's
// vac + σ + gain — with candidates incident to a failed node pinned to
// that scenario's current σ, since a shortcut dies with its endpoint. The
// slice is scratch reused across calls.
func (s *surviveSearch) GainsAdd() []int {
	if s.gains == nil {
		s.gains = make([]int, s.inst.numCand)
		s.worstAfter = make([]int, s.inst.numCand)
	}
	timed := obs.Enabled()
	freeGains := s.timedGains(s.free, timed)
	freeSigma := s.free.Sigma()
	wa := s.worstAfter
	for c := range wa {
		wa[c] = freeSigma // the scenario dropping the new shortcut itself
	}
	for _, sc := range s.scen {
		g := s.timedGains(sc, timed)
		base := sc.Sigma()
		for c, gc := range g {
			if v := base + gc; v < wa[c] {
				wa[c] = v
			}
		}
	}
	for v, sc := range s.nodeScen {
		g := s.timedGains(sc, timed)
		base := s.nodeVac[v] + sc.Sigma()
		for c, gc := range g {
			if val := base + gc; val < wa[c] {
				wa[c] = val
			}
		}
		// Candidates incident to v die with it: their true scenario-v value
		// is base, which can only lower the fold (the scan above may have
		// credited them a spurious gain through the dead node's zero
		// self-distance).
		s.inst.foldIncident(v, func(c int) {
			if base < wa[c] {
				wa[c] = base
			}
		})
	}
	cur := s.lexValue(s.worst, freeSigma)
	for c := range s.gains {
		s.gains[c] = s.lexValue(wa[c], freeSigma+freeGains[c]) - cur
	}
	return s.gains
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

// BestAdd returns the candidate with the largest L-gain (ties toward the
// lowest index) and that gain. Note that unlike the fault-free search a
// candidate already selected can score a positive gain: duplicating a
// critical shortcut is how a placement buys single-failure redundancy.
func (s *surviveSearch) BestAdd() (cand, gain int) {
	gains := s.GainsAdd()
	if len(gains) == 0 {
		return -1, 0
	}
	best, bestGain := 0, gains[0]
	for i := 1; i < len(gains); i++ {
		if gains[i] > bestGain {
			best, bestGain = i, gains[i]
		}
	}
	return best, bestGain
}

// Add commits candidate cand: the pre-commit free search is cloned as the
// new shortcut's own failure scenario (rows and gains inherited, no
// shortest-path work), the commit is merged incrementally into every
// existing scenario it can touch, and σ⁻ is refolded.
func (s *surviveSearch) Add(cand int) {
	timed := obs.Enabled()
	newScen := s.free.clone()
	for _, sc := range s.scen {
		s.timedAdd(sc, cand, timed)
	}
	s.scen = append(s.scen, newScen)
	if s.nodeScen != nil {
		e := s.inst.CandidateEdge(cand)
		for v, sc := range s.nodeScen {
			if int(e.U) == v || int(e.V) == v {
				continue // the shortcut dies with v; scenario v never sees it
			}
			s.timedAdd(sc, cand, timed)
		}
	}
	s.timedAdd(s.free, cand, timed)
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
	ns.applyWorkers()
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
	drops := s.SigmaDrops()
	pos, sigma = 0, drops[0]
	for i := 1; i < len(drops); i++ {
		if drops[i] > sigma {
			pos, sigma = i, drops[i]
		}
	}
	return pos, sigma
}

func (s *surviveSearch) interrupted() bool {
	return s.ctx != nil && s.ctx.Err() != nil
}

// SetWorkers fixes the shard count used by the free search and every
// scenario search; the scenario fold itself stays serial, so results are
// byte-identical at every worker count.
func (s *surviveSearch) SetWorkers(n int) {
	s.workers = ResolveParallelism(n)
	s.applyWorkers()
}

func (s *surviveSearch) applyWorkers() {
	s.free.SetWorkers(s.workers)
	for _, sc := range s.scen {
		sc.SetWorkers(s.workers)
	}
	for _, sc := range s.nodeScen {
		sc.SetWorkers(s.workers)
	}
}

// SetContext implements ContextAware for the free and scenario scans.
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

// EnableScanTiming implements ScanTimer on the free search (scenario scans
// are reported through the per-scenario eval histogram instead).
func (s *surviveSearch) EnableScanTiming(on bool) { s.free.EnableScanTiming(on) }

// LastScanShards implements ScanTimer, delegating to the free search.
func (s *surviveSearch) LastScanShards() (minNS, maxNS int64, shards int) {
	return s.free.LastScanShards()
}

// LastEvalStats implements EvalStats, draining the free search and every
// scenario search — the totals reflect the whole survivable round.
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
