package core

import (
	"context"
	"math"
	"slices"
	"time"

	"msc/internal/obs"
	"msc/internal/telemetry"
)

// composite is a search folded over member instSearch values that share
// one candidate universe. It takes one of two folds (DESIGN.md §8, §11):
//
//   - Sum, over time instances (SumSearch, the dynamic problem of paper
//     §VI): one member per time instance, each on the full selection;
//     σ = Σ_t σ_t and every gain is the sum of the members' gains.
//   - Lex-min, over failure scenarios (a survivable Instance's NewSearch):
//     the fault-free ("free") search on the full selection, and one member
//     per single-failure scenario. Sigma() is the problem's objective
//     L(S) = lexValue(σ⁻(S), σ(S)) (survive.go), so GreedySigma,
//     ParBestSwap, LocalSearch and AEA optimize (σ⁻, σ) without knowing
//     failures exist.
//
// Scenario bookkeeping (lex-min): the members list every failure scenario
// in one order — the shortcut scenarios by selection position, then
// (SurviveNode) the node scenarios by node. A member's value is its
// vacuous weight plus its σ over the shortcuts that survive its failure;
// under the sum fold every member has vac 0 and node -1, so its value is
// its σ.
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
// Positioning is lazy, as in instSearch: construction, position and
// RemoveAt only reposition the members and mark the composite stale; the
// first read rebuilds every search dealt across the workers (and, under
// lex-min, refolds σ⁻). position keeps every buffer, so AEA moves one
// composite from child to child.
//
// A round (GainsAdd or BestAdd) refreshes the members the fold reads, then
// runs one fold kernel over the candidates:
//
//   - Concurrent refresh. The searches to scan are dealt across the run's
//     workers, each scanning with max(workers/tasks, 1) inner workers (the
//     split ParBestSwap uses); Add merges a commit the same way.
//   - Bound skip (lex-min). With F the free σ (the value of the scenario
//     dropping the new shortcut itself), every candidate folds to
//     wa[c] = min(F, min_j base_j + g_j[c]) ≤ ub = min(F, base_* + max g_*)
//     for the first scenario * at σ⁻. A scenario with base_j ≥ ub can
//     only fold values ≥ ub ≥ wa[c], so it is neither scanned nor folded;
//     when F = σ⁻ every scenario drops out. The sum fold reads every member.
//   - Fused fold. Contiguous candidate shards fold foldChunk-sized blocks —
//     the sum of the members' gains, or wa turned into L-gains — that
//     GainsAdd writes and BestAdd argmaxes without materializing them.
//
// Every step is an integer min or sum over a member set that depends on
// the selection only, so gains, placements and work counters are the same
// at every worker count.
type composite struct {
	inst *Instance // the candidate universe; under lex-min, the survivable instance
	lex  bool      // the fold: lex-min over failure scenarios, else sum over time instances

	free    *instSearch    // lex-min: the fault-free search on the full selection; nil under sum
	members []member       // sum: one per time instance; lex-min: the shortcut scenarios by position, then the node scenarios
	sel     []int          // the current selection
	sink    telemetry.Sink // sum: receives one DynamicStepEvent per Add when non-nil

	stale   bool // repositioned: the searches rebuild (and σ⁻ refolds) on the next read
	worst   int  // lex-min: σ⁻ of the current selection
	worstAt int  // lex-min: first scenario (member order) at σ⁻; -1 with none

	workers int
	ctx     context.Context
	scanTiming

	// Round state the fold kernel reads: the free σ and gains (lex-min),
	// and the members the fold reads.
	freeSigma int
	freeGains []int
	live      []member

	gains     []int         // GainsAdd output, len numCand
	spare     [][]int       // gains arrays reclaimed from stale members
	tasks     []*instSearch // scratch: the searches one stage deals across the workers
	taskNS    []int64       // scratch: per-task wall time of the last timed stage
	scanNS    []int64       // scratch: per-search wall time of the round's scans
	shardBest [][2]int      // scratch: per-shard (candidate, gain) argmax
	drops     []int         // scratch for SigmaDrops
	dropRest  [][]int
}

// member is one search the composite folds: a time instance (vac 0, node
// -1), or a single-failure scenario — its search over the shortcuts that
// survive the failure, the constant weight of the pairs that left with a
// failed node (vac), and that node, -1 with vac 0 for a shortcut failure.
type member struct {
	*instSearch
	vac  int
	node int
}

// value is the member's current σ: vac + σ of its search.
func (m member) value() int { return m.vac + m.Sigma() }

// foldChunk is the candidate block the fold kernel finishes before moving
// on: its buffer stays in cache while every live member's gains stream
// over it.
const foldChunk = 1024

var _ Search = (*composite)(nil)

// SumSearch returns the search whose value is Σ_t σ_t over the time
// instances insts, positioned at sel (copied). The instances must share
// the node universe and the candidate indexing, and none may be survivable
// (dynamic.NewProblem checks both). With a non-nil sink every Add emits a
// DynamicStepEvent carrying the per-instance σ split.
func SumSearch(insts []*Instance, sel []int, sink telemetry.Sink) Search {
	s := &composite{inst: insts[0], sink: sink, workers: 1}
	for _, inst := range insts {
		s.members = append(s.members, s.newMember(inst, 0, -1))
	}
	s.position(sel)
	return s
}

// newSurviveSearch returns the lex-min composite of a survivable instance
// positioned at sel (copied): the free search, one shortcut scenario per
// selection position, and — under SurviveNode — one node scenario per
// node over the cached G−v instances. Nothing is computed until the first
// read.
func newSurviveSearch(inst *Instance, sel []int) *composite {
	s := &composite{inst: inst, lex: true, free: inst.newInstSearch(nil), workers: 1}
	if inst.survive == SurviveNode {
		insts, vac := inst.nodeScenarios()
		for v, ni := range insts {
			s.members = append(s.members, s.newMember(ni, vac[v], v))
		}
	}
	s.position(sel)
	return s
}

// newMember returns a member over a fresh search on inst with the
// composite's context installed.
func (s *composite) newMember(inst *Instance, vac, node int) member {
	m := member{instSearch: inst.newInstSearch(nil), vac: vac, node: node}
	m.ctx = s.ctx
	return m
}

// position moves every search to sel (copied) and marks the composite
// stale. Under lex-min the shortcut scenarios are resized to one per
// position of sel — a dropped scenario's gains array goes to the spare
// pool — and scenario j keeps the shortcuts of sel that survive its
// failure: every one but position j for a shortcut scenario, every one not
// incident to the failed node for a node scenario (whose index lies past
// every position).
func (s *composite) position(sel []int) {
	s.sel = append(s.sel[:0], sel...)
	s.stale = true
	if !s.lex {
		for _, m := range s.members {
			m.position(s.sel)
		}
		return
	}
	s.free.position(s.sel)
	shortcuts := len(s.members)
	if s.inst.survive == SurviveNode {
		shortcuts -= s.inst.N()
	}
	for ; shortcuts > len(s.sel); shortcuts-- {
		if g := s.members[shortcuts-1].gains; g != nil {
			s.spare = append(s.spare, g)
		}
		s.members = slices.Delete(s.members, shortcuts-1, shortcuts)
	}
	for ; shortcuts < len(s.sel); shortcuts++ {
		s.members = slices.Insert(s.members, shortcuts, s.newMember(s.inst, 0, -1))
	}
	rest := make([]int, 0, len(s.sel))
	for j, m := range s.members {
		rest = rest[:0]
		for i, c := range s.sel {
			if i != j && s.inst.survives(c, m.node) {
				rest = append(rest, c)
			}
		}
		m.position(rest)
	}
}

// all returns the free search (lex-min) and every member's search, in the
// composite's tasks scratch.
func (s *composite) all() []*instSearch {
	s.tasks = s.tasks[:0]
	if s.free != nil {
		s.tasks = append(s.tasks, s.free)
	}
	for _, m := range s.members {
		s.tasks = append(s.tasks, m.instSearch)
	}
	return s.tasks
}

// sync rebuilds the searches a position left stale, dealt across the
// workers the way a round deals its scans, and refolds σ⁻.
func (s *composite) sync() {
	if !s.stale {
		return
	}
	s.each(s.all(), (*instSearch).sync)
	s.stale = false
	s.recomputeWorst()
}

// recomputeWorst folds σ⁻ from the live scenario searches and records the
// first scenario attaining it. With no scenarios at all (empty selection,
// shortcut mode) σ⁻ degenerates to σ(∅), matching Instance.SigmaWorst.
// The sum fold has no σ⁻.
func (s *composite) recomputeWorst() {
	if !s.lex {
		return
	}
	s.worstAt = -1
	for j, m := range s.members {
		if v := m.value(); s.worstAt < 0 || v < s.worst {
			s.worst, s.worstAt = v, j
		}
	}
	count := int64(len(s.members))
	if s.worstAt < 0 {
		s.worst = s.free.Sigma()
		count = 1
	}
	telemetry.Global().FailureScenariosEvaled.Add(count)
}

// Sigma returns the fold's value of the current selection: Σ_t σ_t, or
// under lex-min L = lexValue(σ⁻, σ) — NOT plain σ; splitObjective
// recovers the two.
func (s *composite) Sigma() int {
	s.sync()
	if s.lex {
		return lexValue(s.worst, s.free.Sigma(), s.inst.totalWeight)
	}
	total := 0
	for _, m := range s.members {
		total += m.Sigma()
	}
	return total
}

func (s *composite) Selection() []int { return append([]int(nil), s.sel...) }

func (s *composite) Len() int { return len(s.sel) }

func (s *composite) Contains(cand int) bool { return slices.Contains(s.sel, cand) }

// each runs fn on every search in ss, dealing the searches across the
// run's workers; each search shards its own work over
// max(workers/len(ss), 1) workers, the split ParBestSwap uses. With scan
// timing or the ops plane on it times every call into taskNS, and under
// lex-min the ops plane's per-scenario eval-cost histogram gets each one.
func (s *composite) each(ss []*instSearch, fn func(*instSearch)) {
	if len(ss) == 0 {
		return
	}
	inner := max(s.workers/len(ss), 1)
	observe := s.lex && obs.Enabled()
	timed := observe || s.timeScan
	if timed {
		s.taskNS = slices.Grow(s.taskNS[:0], len(ss))[:len(ss)]
	}
	ParallelFor(s.workers, len(ss), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			sc := ss[i]
			sc.SetWorkers(inner)
			if !timed {
				fn(sc)
				continue
			}
			start := time.Now()
			fn(sc)
			d := time.Since(start)
			s.taskNS[i] = d.Nanoseconds()
			if observe {
				obs.ObserveScenarioEval(d)
			}
		}
	})
}

// scan brings the gains of every search in ss up to date (a cold
// near-list scan after each commit, a cached return otherwise) with
// each's split. A search about to scan without a gains array takes a
// spare one first. With scan timing on, each search's scan time joins the
// round's spread.
func (s *composite) scan(ss []*instSearch) {
	for _, sc := range ss {
		if sc.gains == nil && len(s.spare) > 0 {
			sc.gains, s.spare = s.spare[len(s.spare)-1], s.spare[:len(s.spare)-1]
		}
	}
	s.each(ss, func(sc *instSearch) { sc.GainsAdd() })
	if s.timeScan && len(ss) > 0 {
		s.scanNS = append(s.scanNS, s.taskNS[:len(ss)]...)
	}
}

// refresh brings the members the fold reads up to date and records the
// fold's round state. Stale gains arrays go to the spare pool first. The
// sum fold scans every member. Lex-min first scans the free search and
// the first scenario at σ⁻ (none when F = σ⁻), which fixes the bound ub,
// then every other scenario whose value is below ub. With scan timing on,
// the round's per-search scan times are its shard spread.
func (s *composite) refresh() {
	s.sync()
	for _, m := range s.members {
		if !m.gainsValid && m.gains != nil {
			s.spare = append(s.spare, m.gains)
			m.gains = nil
		}
	}
	s.scanNS = s.scanNS[:0]
	if s.lex {
		s.refreshLex()
	} else {
		s.live = append(s.live[:0], s.members...)
		s.scan(s.all())
	}
	if s.timeScan {
		s.recordScan(s.scanNS)
	}
}

// refreshLex is refresh's lex-min stage: the free search and the
// scenarios that can bind, under the bound skip.
func (s *composite) refreshLex() {
	s.freeSigma = s.free.Sigma()
	s.live = s.live[:0]
	ub := s.freeSigma
	s.tasks = append(s.tasks[:0], s.free)
	if s.worst < ub {
		s.live = append(s.live, s.members[s.worstAt])
		s.tasks = append(s.tasks, s.live[0].instSearch)
	}
	s.scan(s.tasks)
	s.freeGains = s.free.gains
	if len(s.live) > 0 && len(s.live[0].gains) > 0 {
		ub = min(ub, s.worst+slices.Max(s.live[0].gains))
	}
	s.tasks = s.tasks[:0]
	for j, m := range s.members {
		if j != s.worstAt && m.value() < ub {
			s.tasks = append(s.tasks, m.instSearch)
			s.live = append(s.live, m)
		}
	}
	s.scan(s.tasks)
}

// GainsAdd returns the fold's gain for every candidate addition: the sum
// of the members' gains, or the exact L-gain L(S∪{c}) − L(S), where
// σ⁻(S∪{c}) folds, per candidate, the drop-c scenario (σ(S), the free
// search's current value) and every live scenario's value + its own gain
// for c. The slice is scratch reused across calls.
func (s *composite) GainsAdd() []int {
	if s.gains == nil {
		s.gains = make([]int, s.inst.numCand)
	}
	s.refresh()
	s.fold(s.gains)
	return s.gains
}

// BestAdd returns the candidate with the largest gain (ties toward the
// lowest index) and that gain, from the same fold as GainsAdd without
// materializing the gains. Note that under lex-min, unlike the fault-free
// search, a candidate already selected can score a positive gain:
// duplicating a critical shortcut is how a placement buys single-failure
// redundancy.
func (s *composite) BestAdd() (cand, gain int) {
	s.refresh()
	return s.fold(nil)
}

// fold runs the fold kernel over contiguous candidate shards (one per
// worker, at least a chunk each), writing the gains to out when it is
// non-nil, and combines the shard argmaxes by gain desc, then index asc:
// the first candidate of largest gain, or (-1, 0) with no candidates.
func (s *composite) fold(out []int) (cand, gain int) {
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
// block at a time — the fold is chosen once per block — writing the gains
// to out when non-nil. It returns the first candidate of largest gain in
// the range, or (-1, 0) when the range is empty.
func (s *composite) foldRange(lo, hi int, out []int) (best, bestGain int) {
	var buf [foldChunk]int
	best, bestGain = -1, math.MinInt
	for c0 := lo; c0 < hi; c0 += foldChunk {
		g := buf[:min(c0+foldChunk, hi)-c0]
		if s.lex {
			s.lexBlock(g, c0)
		} else {
			s.sumBlock(g, c0)
		}
		if out != nil {
			copy(out[c0:], g)
		}
		for i, v := range g {
			if v > bestGain {
				best, bestGain = c0+i, v
			}
		}
	}
	if best < 0 {
		return -1, 0
	}
	return best, bestGain
}

// sumBlock writes the summed gains of candidates c0, c0+1, … to g.
func (s *composite) sumBlock(g []int, c0 int) {
	clear(g)
	for _, m := range s.live {
		for i, v := range m.gains[c0 : c0+len(g)] {
			g[i] += v
		}
	}
}

// lexBlock writes the L-gains of candidates c0, c0+1, … to g: first
// wa = min(F, base_j + g_j[c] over the live scenarios), then
// lex(wa, F + freeGains[c]) − lex(σ⁻, F) = lex(wa, freeGains[c]) + off.
func (s *composite) lexBlock(g []int, c0 int) {
	f := s.freeSigma
	for i := range g {
		g[i] = f
	}
	for _, m := range s.live {
		base := m.value()
		for i, v := range m.gains[c0 : c0+len(g)] {
			if w := base + v; w < g[i] {
				g[i] = w
			}
		}
	}
	maxW := s.inst.totalWeight
	off := f - lexValue(s.worst, f, maxW)
	for i, fg := range s.freeGains[c0 : c0+len(g)] {
		g[i] = lexValue(g[i], fg, maxW) + off
	}
}

// GainAdd returns the fold's gain for cand without mutating the state:
// the sum of the members' gains, or L(S ∪ {cand}) − L(S) from the min over
// the drop-cand scenario (σ(S)) and every scenario's value + its gain for
// cand.
func (s *composite) GainAdd(cand int) int {
	s.sync()
	if !s.lex {
		gain := 0
		for _, m := range s.members {
			gain += m.GainAdd(cand)
		}
		return gain
	}
	freeGain := s.free.GainAdd(cand)
	freeSigma := s.free.Sigma()
	wa := freeSigma
	for _, m := range s.members {
		wa = min(wa, m.value()+m.GainAdd(cand))
	}
	w := s.inst.totalWeight
	return lexValue(wa, freeSigma+freeGain, w) - lexValue(s.worst, freeSigma, w)
}

// Add commits candidate cand into every search it survives in, dealt
// across the workers the way refresh deals its scans. Under lex-min the
// pre-commit free search first becomes the new shortcut's own failure
// scenario: its balls are copied and its gains array handed over, so the
// scenario needs no shortest-path work, no copy of the numCand-long array
// and — when those gains were live — no rescan; σ⁻ is then refolded.
// Under the sum fold with a sink attached, the commit's DynamicStepEvent
// goes out.
func (s *composite) Add(cand int) {
	s.sync()
	var own member
	if s.lex {
		gains, valid := s.free.gains, s.free.gainsValid
		s.free.gains, s.free.gainsValid = nil, false
		own = member{instSearch: s.free.clone(), node: -1}
		own.gains, own.gainsValid = gains, valid
	}
	s.tasks = s.tasks[:0]
	if s.free != nil {
		s.tasks = append(s.tasks, s.free)
	}
	for _, m := range s.members {
		if s.inst.survives(cand, m.node) {
			s.tasks = append(s.tasks, m.instSearch)
		}
	}
	s.each(s.tasks, func(sc *instSearch) { sc.Add(cand) })
	s.sel = append(s.sel, cand)
	if s.lex {
		s.members = slices.Insert(s.members, len(s.sel)-1, own)
		s.recomputeWorst()
	}
	if s.sink != nil {
		s.emitStep(cand)
	}
}

// emitStep emits the DynamicStepEvent of committed shortcut cand: the
// per-time-instance σ split and its total.
func (s *composite) emitStep(cand int) {
	e := s.inst.CandidateEdge(cand)
	per := make([]int, len(s.members))
	total := 0
	for i, m := range s.members {
		per[i] = m.Sigma()
		total += per[i]
	}
	s.sink.Emit(telemetry.DynamicStepEvent{
		Shortcut:         [2]int32{int32(e.U), int32(e.V)},
		Selected:         len(s.sel),
		PerInstanceSigma: per,
		Sigma:            total,
	})
}

// RemoveAt removes the selection element at position pos by repositioning
// every search at the shorter selection. A removal can lengthen
// distances, so the balls rebuild on the next read — the plain search's
// rebuild-on-remove rule.
func (s *composite) RemoveAt(pos int) { s.position(slices.Delete(s.sel, pos, pos+1)) }

// SigmaDrop returns the fold's value of S \ {S[pos]}: the sum of the
// members' drops, or under lex-min L evaluated from scratch (a drop
// changes every scenario's selection, so nothing memoized applies).
func (s *composite) SigmaDrop(pos int) int {
	if !s.lex {
		total := 0
		for _, m := range s.members {
			total += m.SigmaDrop(pos)
		}
		return total
	}
	return objective(s.inst, slices.Delete(slices.Clone(s.sel), pos, pos+1), 1)
}

// SigmaDrops returns the fold's value of S \ {S[pos]} for every position.
// The sum fold deals the members' one-pass drops across the workers and
// sums them; lex-min evaluates each position from scratch, sharded across
// workers, each shard owning a private scratch selection. The slice is
// scratch reused across calls.
func (s *composite) SigmaDrops() []int {
	k := len(s.sel)
	s.drops = slices.Grow(s.drops[:0], k)[:k]
	if !s.lex {
		s.each(s.all(), func(sc *instSearch) { sc.SigmaDrops() })
		clear(s.drops)
		for _, m := range s.members {
			for pos, d := range m.drops {
				s.drops[pos] += d
			}
		}
		return s.drops
	}
	for cap(s.dropRest) < s.workers {
		s.dropRest = append(s.dropRest[:cap(s.dropRest)], nil)
	}
	s.dropRest = s.dropRest[:s.workers]
	ParallelFor(s.workers, k, func(shard, lo, hi int) {
		rest := s.dropRest[shard]
		for pos := lo; pos < hi; pos++ {
			if s.interrupted() {
				return
			}
			rest = append(rest[:0], s.sel[:pos]...)
			rest = append(rest, s.sel[pos+1:]...)
			s.drops[pos] = objective(s.inst, rest, 1)
		}
		s.dropRest[shard] = rest
	})
	return s.drops
}

// BestDrop returns the position whose removal leaves the largest value
// (ties toward the lowest position) and that value. It panics on an empty
// selection.
func (s *composite) BestDrop() (pos, sigma int) {
	if len(s.sel) == 0 {
		panic("core: BestDrop on empty selection")
	}
	return argmax(s.SigmaDrops())
}

func (s *composite) interrupted() bool {
	return s.ctx != nil && s.ctx.Err() != nil
}

// SetWorkers fixes the worker count a round deals its scans, merges and
// fold shards across; results are byte-identical at every worker count.
func (s *composite) SetWorkers(n int) { s.workers = ResolveParallelism(n) }

// SetContext installs ctx on every search.
func (s *composite) SetContext(ctx context.Context) {
	s.ctx = ctx
	for _, sc := range s.all() {
		sc.SetContext(ctx)
	}
}

// LastEvalStats drains every search — the totals reflect the whole
// round.
func (s *composite) LastEvalStats() (rowsMerged, rowsUnchanged, pairsRescanned, pairsSkipped int64) {
	for _, sc := range s.all() {
		rm, ru, pr, pk := sc.LastEvalStats()
		rowsMerged += rm
		rowsUnchanged += ru
		pairsRescanned += pr
		pairsSkipped += pk
	}
	return rowsMerged, rowsUnchanged, pairsRescanned, pairsSkipped
}
