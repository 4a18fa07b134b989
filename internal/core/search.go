package core

import (
	"context"
	"math"
	"slices"
	"sort"
	"time"

	"msc/internal/graph"
	"msc/internal/obs"
	"msc/internal/shortestpath"
	"msc/internal/telemetry"
)

// instSearch is the incremental σ evaluator for a single-topology Instance.
//
// It maintains, for the current placement F, the d_t-ball of every
// distinct pair endpoint e: the nodes x with d_F(e,x) ≤ d_t, ascending by
// id, with those distances. Nodes outside a ball read as +Inf. The
// objective only asks whether d_F(u,w) ≤ d_t, and every prefix of a walk
// of length ≤ d_t is itself ≤ d_t (edge lengths are non-negative), so the
// balls carry everything the search reads (DESIGN.md §13). With them in
// hand, the marginal effect of adding one more shortcut f=(a,b) is exact
// and O(1) per pair:
//
//	d_{F∪{f}}(u,w) = min( d_F(u,w),
//	                      d_F(u,a) + d_F(b,w),
//	                      d_F(u,b) + d_F(a,w) )
//
// (a walk through f more than once can drop the repeat uses without getting
// longer, since edge lengths are non-negative and f itself has length 0).
// This is what lets GreedySigma and AEA score every candidate addition per
// round with a two-float-compare inner loop instead of re-running a
// shortest-path computation per candidate. Both summands of a passing term
// are themselves ≤ d_t, so only cells with both endpoints in the union of
// the pair's two balls can gain: GainsAdd walks, per unsatisfied pair, just
// the triangle of that pair's near-candidate list, read straight off the
// two balls (DESIGN.md §8, §13).
//
// The balls are built lazily. NewSearch and RemoveAt only record the
// selection and mark the balls stale; the first call that reads balls, σ
// or gains (Sigma, GainAdd, BestAdd, GainsAdd, Add, clone) rebuilds them
// once, with the worker count in force at that moment. SigmaDrops, Len,
// Contains and Selection need no balls, so AEA's NewSearch → SigmaDrops →
// RemoveAt → GainsAdd pays a single rebuild. A removal can only mark the
// balls stale: a deletion can lengthen distances, and min-merges cannot
// undo a min.
//
// Add computes only the two overlay balls of the new shortcut's endpoints
// and merges them into every endpoint ball that reaches a or b within d_t
// — a three-way scatter merge, O(ball) per ball — then marks the gains
// array stale; the next GainsAdd cold-scans the near lists, and repeated
// GainsAdd calls between mutations return the cached array. The
// eval-differential suite compares this path against a reference that
// builds a fresh search after every mutation.
//
// Concurrency: an instSearch is single-caller like every Search, but with
// SetWorkers > 1 its scans shard internally — GainsAdd splits the
// triangular candidate grid into contiguous row ranges writing disjoint
// segments of the gains array, SigmaDrops splits the pairs, and the
// rebuild and Add shard the balls the same way.
// All shared inputs (the instance, the overlay, the balls during a scan)
// are read-only while workers run, so the results are byte-identical to
// the serial scan.
type instSearch struct {
	inst    *Instance
	sel     []int
	workers int             // shard count for scans; 1 = serial
	ctx     context.Context // supervision context polled mid-scan; nil = never

	balls      []shortestpath.Ball // balls[i] = d_t-ball of inst.endpoints[i] in G ∪ F; nil until the first rebuild
	pairDist   []float64           // d_F(u,w) per pair; +Inf beyond d_t
	gains      []int               // scratch for BestAdd, len NumCandidates
	unsat      []int               // scratch: unsatisfied pair indices
	drops      []int               // scratch for SigmaDrops
	rest       []int               // scratch for SigmaDrop
	dropPlan   dropPlan            // SigmaDrops' per-position terminal graphs
	dropShards []dropShard         // SigmaDrops' per-shard counts and scratch
	sigma      int

	// stale marks balls, pairDist and σ as not yet built for sel; sync
	// rebuilds them on the first read.
	stale bool
	// gainsValid marks gains as exactly what a cold scan over the current
	// balls would produce. Set by a completed cold scan, dropped by every
	// mutation and by interruption.
	gainsValid bool

	// Cached triangular-grid shard bounds for the current worker count
	// (triRowBounds allocates, and the warm scan path must not).
	bounds        []int
	boundsWorkers int
	// Cached scan-shard trampoline and cold-scan body: closures allocate,
	// and the warm gains scan must not — both are built once and reused,
	// with scanBody carrying the current scan's per-call body.
	scanBody  func(aiLo, aiHi int)
	shardRun  func(shard, lo, hi int)
	gainsBody func(aiLo, aiHi int)

	// Incremental commit scratch: the overlay balls of the committing
	// shortcut's endpoints, the per-shard merge outputs and the per-shard
	// changed-ball counts of the last merge.
	mergeSrc  []graph.NodeID
	mergeBall []shortestpath.Ball
	mergeOut  []shortestpath.Ball
	shardCnt  []int64

	// Near-candidate lists of the current unsat set (buildCandU): the
	// candidate positions within d_t of either pair endpoint, ascending per
	// pair, with the two endpoint distances aligned to each entry.
	// sparseBest additionally replaces the dense gains array — numCand
	// ints, ~40 GB at n=10⁵ — with a sparse aggregation in BestAdd.
	sparseBest bool
	candUOff   []int     // per-unsat-pair offsets into candU (len(unsat)+1)
	candU      []int32   // arena: near-candidate positions, ascending per pair
	candRu     []float64 // arena: d_F(u, position) of the owning pair (+Inf beyond d_t)
	candRw     []float64 // arena: d_F(w, position) of the owning pair (+Inf beyond d_t)
	// Sparse BestAdd scratch: the inverse near-list index, grouping arena
	// entries by position (keys sorted by position, then arena index), and
	// the per-worker gain accumulators indexed by group.
	byKey    []uint64        // position<<32 | arena index, ascending
	byOff    []int32         // per-group offsets into byKey (groups+1)
	groupPos []int32         // per-group candidate position, ascending
	group    []int32         // per arena entry: its position's group
	owner    []int32         // per arena entry: its unsat-pair ordinal
	accW     []sparseScratch // per-worker accumulator scratch, sized lazily
	// Per-pair distance-sorted balls: for unsat pair ui, segment 2·ui is
	// the u-ball (groups with ru ≤ d_t, ascending by ru, carrying rw as
	// prefOther) and segment 2·ui+1 the w-ball (ascending by rw), so
	// "every b with rw[b] ≤ d_t − ru[a]" is a prefix instead of a filtered
	// scan.
	prefOff   []int
	prefPos   []int32
	prefDist  []float64
	prefOther []float64

	// Incremental-evaluation work, drained by LastEvalStats.
	evRowsMerged, evRowsUnchanged, evPairsRescanned int64

	// Scan-timing telemetry (EnableScanTiming); off unless a trace sink or
	// the ops plane asked for it, so the default gains scan never reads the
	// clock.
	scanTiming
	shardNS []int64 // scratch: per-shard wall time of the last timed scan
}

// scanTiming is a search's scan-timing switch and the shard spread of its
// last timed gains scan: an instSearch's shards are candidate-grid row
// ranges, a composite's are the member searches a round scanned.
type scanTiming struct {
	timeScan   bool
	scanMinNS  int64
	scanMaxNS  int64
	scanShards int
}

// EnableScanTiming turns per-shard timing of gains scans on or off.
func (t *scanTiming) EnableScanTiming(on bool) { t.timeScan = on }

// LastScanShards reports the fastest and slowest per-shard wall time of
// the most recent timed gains scan and its shard count.
func (t *scanTiming) LastScanShards() (minNS, maxNS int64, shards int) {
	return t.scanMinNS, t.scanMaxNS, t.scanShards
}

// recordScan keeps the spread of a timed scan's per-shard wall times ns
// (at least one) and feeds it to the ops plane.
func (t *scanTiming) recordScan(ns []int64) {
	t.scanMinNS, t.scanMaxNS, t.scanShards = slices.Min(ns), slices.Max(ns), len(ns)
	obs.ObserveScanShards(t.scanMinNS, t.scanMaxNS, t.scanShards)
}

var _ Search = (*instSearch)(nil)

// NewSearch returns an evaluator positioned at sel (copied): the plain
// incremental σ search, or — when the instance carries a survivability
// mode — the lex-min composite, which folds one plain search per failure
// scenario and speaks the lexicographic value L (composite.go, survive.go).
func (inst *Instance) NewSearch(sel []int) Search {
	if inst.survive != SurviveNone {
		return newSurviveSearch(inst, sel)
	}
	return inst.newInstSearch(sel)
}

// newInstSearch returns the plain incremental evaluator positioned at sel
// (copied) with its balls stale, bypassing the survivability dispatch — the
// composite builds its member searches with it.
func (inst *Instance) newInstSearch(sel []int) *instSearch {
	return &instSearch{
		inst:       inst,
		sel:        append([]int(nil), sel...),
		workers:    1,
		sparseBest: inst.sparseBest,
		stale:      true,
		pairDist:   make([]float64, inst.ps.Len()),
	}
}

// clone returns an independent search positioned at the same selection:
// the balls, pair distances, σ, and — when live — the gains array are
// copied, so the clone needs no shortest-path work of its own. The
// lex-min composite uses this to snapshot the pre-commit state as the
// failure scenario of the shortcut being committed.
func (s *instSearch) clone() *instSearch {
	s.sync()
	c := s.inst.newInstSearch(s.sel)
	c.workers = s.workers
	c.ctx = s.ctx
	c.balls = make([]shortestpath.Ball, len(s.balls))
	for i, b := range s.balls {
		c.balls[i] = shortestpath.Ball{IDs: slices.Clone(b.IDs), Dist: slices.Clone(b.Dist)}
	}
	copy(c.pairDist, s.pairDist)
	c.sigma = s.sigma
	c.stale = false
	if s.gainsValid {
		c.gains = append([]int(nil), s.gains...)
		c.gainsValid = true
	}
	return c
}

// SetWorkers fixes the shard count for subsequent scans; 1 means fully
// serial, n <= 0 resolves via ResolveParallelism.
func (s *instSearch) SetWorkers(n int) { s.workers = ResolveParallelism(n) }

// SetContext installs ctx: subsequent scans poll it once per unsatisfied
// pair (gains scans) or per pair (SigmaDrops) and bail out when
// it is done, leaving partial scratch the solver discards. Polling reads
// but never writes scan state, so a context that is never canceled leaves
// every scan result bit-identical.
func (s *instSearch) SetContext(ctx context.Context) { s.ctx = ctx }

// interrupted reports whether the supervision context wants the scan to
// stop.
func (s *instSearch) interrupted() bool {
	return s.ctx != nil && s.ctx.Err() != nil
}

// LastEvalStats drains the incremental-evaluation work accumulated since
// the previous call (or since construction).
// pairsSkipped is always 0: every gains refresh is a cold near-list scan,
// so no pair's contribution is ever carried over.
func (s *instSearch) LastEvalStats() (rowsMerged, rowsUnchanged, pairsRescanned, pairsSkipped int64) {
	rowsMerged, rowsUnchanged, pairsRescanned = s.evRowsMerged, s.evRowsUnchanged, s.evPairsRescanned
	s.evRowsMerged, s.evRowsUnchanged, s.evPairsRescanned = 0, 0, 0
	return rowsMerged, rowsUnchanged, pairsRescanned, 0
}

// gridBounds returns the triangular-grid shard row bounds for the current
// worker count, cached so warm scans never allocate.
func (s *instSearch) gridBounds() []int {
	if s.bounds == nil || s.boundsWorkers != s.workers {
		s.bounds = triRowBounds(len(s.inst.candNodes), s.workers)
		s.boundsWorkers = s.workers
	}
	return s.bounds
}

// scanShardsRun runs body over the shard row ranges of the triangular
// candidate grid (inline when one shard), recording per-shard wall times
// when scan timing is on. The trampoline handed to ParallelFor is built
// once and reads the current body from scanBody, keeping the warm scan
// path allocation-free.
func (s *instSearch) scanShardsRun(body func(aiLo, aiHi int)) {
	bounds := s.gridBounds()
	shards := len(bounds) - 1
	s.scanBody = body
	if s.shardRun == nil {
		s.shardRun = func(shard, _, _ int) {
			b := s.bounds
			if !s.timeScan {
				s.scanBody(b[shard], b[shard+1])
				return
			}
			start := time.Now()
			s.scanBody(b[shard], b[shard+1])
			s.shardNS[shard] = time.Since(start).Nanoseconds()
		}
	}
	if s.timeScan && cap(s.shardNS) < shards {
		s.shardNS = make([]int64, shards)
	}
	ParallelFor(shards, shards, s.shardRun)
	s.scanBody = nil
	if s.timeScan {
		s.recordScan(s.shardNS[:shards])
	}
}

// sync rebuilds the balls when a constructor or a mutation left them
// stale.
func (s *instSearch) sync() {
	if s.stale {
		s.rebuild()
	}
}

// markStale records that sel changed without the balls following it: the
// next read rebuilds them, and the gains array is dropped with them.
func (s *instSearch) markStale() {
	s.stale = true
	s.gainsValid = false
}

// rebuild recomputes every endpoint ball from a fresh overlay and
// refreshes the pair distances; any live gains state is dropped.
func (s *instSearch) rebuild() {
	if s.balls == nil {
		s.balls = make([]shortestpath.Ball, len(s.inst.endpoints))
	}
	ov := shortestpath.NewOverlay(s.inst.table, SelectionEdges(s.inst, s.sel))
	shortestpath.NewEvaluator(ov, s.workers).DistBalls(s.inst.baseBalls(), s.inst.mergers, s.inst.thr.D, s.inst.endpoints, s.balls)
	s.recomputeSigma()
	s.stale = false
	s.gainsValid = false
}

// recomputeSigma refreshes pairDist and σ from the current balls.
func (s *instSearch) recomputeSigma() {
	s.sigma = 0
	for i, p := range s.inst.ps.Pairs() {
		d := s.balls[s.inst.pairU[i]].At(p.W)
		s.pairDist[i] = d
		if d <= s.inst.thr.D {
			s.sigma += int(s.inst.weights[i])
		}
	}
}

func (s *instSearch) Sigma() int {
	s.sync()
	return s.sigma
}

func (s *instSearch) Selection() []int { return append([]int(nil), s.sel...) }

func (s *instSearch) Len() int { return len(s.sel) }

func (s *instSearch) Contains(cand int) bool {
	for _, c := range s.sel {
		if c == cand {
			return true
		}
	}
	return false
}

func (s *instSearch) GainAdd(cand int) int {
	telemetry.Global().CandidateEvals.Add(1)
	s.sync()
	e := s.inst.CandidateEdge(cand)
	a, b := e.U, e.V
	dt := s.inst.thr.D
	gain := 0
	for i := range s.pairDist {
		if s.pairDist[i] <= dt {
			continue // already satisfied; adding edges cannot unsatisfy
		}
		ru := s.balls[s.inst.pairU[i]]
		rw := s.balls[s.inst.pairW[i]]
		if ru.At(a)+rw.At(b) <= dt || ru.At(b)+rw.At(a) <= dt {
			gain += int(s.inst.weights[i])
		}
	}
	return gain
}

// BestAdd scans every candidate shortcut and returns the one with the
// largest σ gain (ties toward the lowest candidate index) together with
// that gain. Candidates already in the selection naturally score 0: their
// zero-length edge is already reflected in d_F. On a degenerate instance
// with an empty candidate universe it returns (-1, 0).
func (s *instSearch) BestAdd() (cand, gain int) {
	if s.sparseBest {
		return s.bestAddSparse()
	}
	return argmax(s.GainsAdd())
}

// sparseGainsThreshold is the candidate-universe size at and above which
// BestAdd aggregates sparse gain cells instead of materializing the dense
// gains array (numCand ints — 40 GB at n=10⁵ with the full universe).
// NewInstance records the choice in Instance.sparseBest.
const sparseGainsThreshold = 1 << 26

// sparseScratch is one worker's accumulator state for the sparse
// BestAdd: gain sums per position group for the ai row being scanned, an
// epoch stamp marking which entries of acc are live, and the list of
// stamped groups for the argmax pass.
type sparseScratch struct {
	acc     []int
	stamp   []int32
	touched []int32
}

// bestAddSparse is BestAdd for huge candidate universes: instead of a
// dense gains array (numCand ints) it aggregates gains one grid row at a
// time. For each position ai on some near list it visits — via the
// inverse index built from the near lists — every (unsat pair, passing
// cell (ai, bj)) contribution, summing weights into a per-position
// accumulator, then argmaxes the row and moves on; peak memory is
// O(Σ near list) instead of O(t²), and positions on no near list cost
// nothing. The passing b's for a fixed pair and a are enumerated as two
// distance-sorted prefixes (rw[b] ≤ d_t − ru[a] over the w-ball,
// ru[b] ≤ d_t − rw[a] over the u-ball, the second skipping cells the first
// already counted), so the walk touches only gaining cells, not the whole
// near-list triangle. The visited cells are exactly the nonzero cells of
// the gains scan (see the near-list invariant in the instSearch header)
// and the sums are exact integer adds, so the result matches the dense
// argmax, including the (0, 0) answer of an all-zero scan. Workers split
// the listed positions by equal inverse-index load; each keeps a local
// best and the combine is a total order on (gain desc, cell index asc), so
// the answer is identical at every worker count. Counter discipline
// mirrors a cold scan: CandidateEvals advances by the logical universe
// size, PairsRescanned by the unsatisfied pair count, CandidatesPruned by
// the skipped cells.
func (s *instSearch) bestAddSparse() (cand, gain int) {
	telemetry.Global().CandidateEvals.Add(int64(s.inst.numCand))
	if s.inst.numCand == 0 {
		return -1, 0
	}
	s.sync()
	dt := s.inst.thr.D
	s.collectUnsat()
	s.buildCandU()
	s.buildByA()
	s.buildPrefixes()
	t := len(s.inst.candNodes)
	groups := len(s.groupPos)

	workers := min(s.workers, groups)
	if workers < 1 {
		workers = 1
	}
	if len(s.accW) < workers {
		s.accW = append(s.accW, make([]sparseScratch, workers-len(s.accW))...)
	}
	bounds := s.byALoadBounds(workers)
	bestIdx := make([]int, workers)
	bestGain := make([]int, workers)
	ParallelFor(workers, workers, func(w, _, _ int) {
		sc := &s.accW[w]
		if len(sc.acc) < groups {
			sc.acc = make([]int, groups)
			sc.stamp = make([]int32, groups)
		}
		acc, stamp := sc.acc, sc.stamp
		touched := sc.touched[:0]
		epoch := int32(0)
		best, bg := -1, 0
		for ga := bounds[w]; ga < bounds[w+1]; ga++ {
			if s.interrupted() {
				break
			}
			epoch++
			if epoch == 1 {
				// First use (or int32 wraparound on reuse): clear the stamps
				// so stale marks can never alias the new epoch sequence.
				for i := range stamp {
					stamp[i] = 0
				}
			}
			touched = touched[:0]
			for _, key := range s.byKey[s.byOff[ga]:s.byOff[ga+1]] {
				k := uint32(key)
				ui := s.owner[k]
				w := int(s.inst.weights[s.unsat[ui]])
				ca := dt - s.candRu[k]
				cb := dt - s.candRw[k]
				// b's satisfying ru[a] + rw[b] ≤ d_t: a prefix of the
				// w-ball in ascending-rw order.
				lo, hi := s.prefOff[2*ui+1], s.prefOff[2*ui+2]
				pos, dist := s.prefPos[lo:hi], s.prefDist[lo:hi]
				for j := 0; j < len(pos); j++ {
					if dist[j] > ca {
						break
					}
					gb := pos[j]
					if int(gb) <= ga {
						continue // cell owned by the lower position's row
					}
					if stamp[gb] != epoch {
						stamp[gb] = epoch
						acc[gb] = w
						touched = append(touched, gb)
					} else {
						acc[gb] += w
					}
				}
				// b's satisfying rw[a] + ru[b] ≤ d_t, skipping those the
				// first prefix already counted for this pair.
				lo, hi = s.prefOff[2*ui], s.prefOff[2*ui+1]
				pos, dist = s.prefPos[lo:hi], s.prefDist[lo:hi]
				other := s.prefOther[lo:hi]
				for j := 0; j < len(pos); j++ {
					if dist[j] > cb {
						break
					}
					gb := pos[j]
					if int(gb) <= ga || other[j] <= ca {
						continue
					}
					if stamp[gb] != epoch {
						stamp[gb] = epoch
						acc[gb] = w
						touched = append(touched, gb)
					} else {
						acc[gb] += w
					}
				}
			}
			ai := int(s.groupPos[ga])
			base := rowStart(t, ai) - ai - 1
			for _, gb := range touched {
				g := acc[gb]
				idx := base + int(s.groupPos[gb])
				if g > bg || (g == bg && (best < 0 || idx < best)) {
					best, bg = idx, g
				}
			}
		}
		sc.touched = touched
		bestIdx[w], bestGain[w] = best, bg
	})
	best, bg := 0, 0
	for w := 0; w < workers; w++ {
		if bestGain[w] > bg || (bestGain[w] == bg && bg > 0 && bestIdx[w] < best) {
			best, bg = bestIdx[w], bestGain[w]
		}
	}
	return best, bg
}

// buildByA inverts the near-candidate lists of buildCandU: it sorts the
// arena entries by candidate position into groups, one per position that
// some near list holds, and records each entry's group and unsat-pair
// ordinal. Its cost is O(E log E) in the arena size E, independent of the
// candidate count.
func (s *instSearch) buildByA() {
	n := len(s.candU)
	s.byKey = slices.Grow(s.byKey[:0], n)
	for k, p := range s.candU {
		s.byKey = append(s.byKey, uint64(p)<<32|uint64(k))
	}
	slices.Sort(s.byKey)
	if cap(s.group) < n {
		s.group = make([]int32, n)
		s.owner = make([]int32, n)
	}
	s.group, s.owner = s.group[:n], s.owner[:n]
	for ui := range s.unsat {
		for k := s.candUOff[ui]; k < s.candUOff[ui+1]; k++ {
			s.owner[k] = int32(ui)
		}
	}
	s.byOff = s.byOff[:0]
	s.groupPos = s.groupPos[:0]
	for j, key := range s.byKey {
		p := int32(key >> 32)
		if j == 0 || p != s.groupPos[len(s.groupPos)-1] {
			s.byOff = append(s.byOff, int32(j))
			s.groupPos = append(s.groupPos, p)
		}
		s.group[uint32(key)] = int32(len(s.groupPos) - 1)
	}
	s.byOff = append(s.byOff, int32(n))
}

// prefixSorter orders a (group, distance, other distance) segment by
// ascending distance; the relative order of equal distances is irrelevant
// — a prefix cut at d_t − ru[a] keeps or drops them together.
type prefixSorter struct {
	pos   []int32
	dist  []float64
	other []float64
}

func (p prefixSorter) Len() int           { return len(p.pos) }
func (p prefixSorter) Less(i, j int) bool { return p.dist[i] < p.dist[j] }
func (p prefixSorter) Swap(i, j int) {
	p.pos[i], p.pos[j] = p.pos[j], p.pos[i]
	p.dist[i], p.dist[j] = p.dist[j], p.dist[i]
	p.other[i], p.other[j] = p.other[j], p.other[i]
}

// buildPrefixes fills the per-pair distance-sorted balls backing the
// prefix walks of bestAddSparse: for each unsat pair, the groups of the
// near-list entries within d_t of u sorted by ru (carrying rw), then those
// within d_t of w sorted by rw (carrying ru).
func (s *instSearch) buildPrefixes() {
	dt := s.inst.thr.D
	s.prefOff = s.prefOff[:0]
	s.prefPos = s.prefPos[:0]
	s.prefDist = s.prefDist[:0]
	s.prefOther = s.prefOther[:0]
	total := 0
	for k := range s.candU {
		if s.candRu[k] <= dt {
			total++
		}
		if s.candRw[k] <= dt {
			total++
		}
	}
	s.prefPos = slices.Grow(s.prefPos, total)
	s.prefDist = slices.Grow(s.prefDist, total)
	s.prefOther = slices.Grow(s.prefOther, total)
	for ui := range s.unsat {
		lo, hi := s.candUOff[ui], s.candUOff[ui+1]
		for _, side := range [2][2][]float64{{s.candRu, s.candRw}, {s.candRw, s.candRu}} {
			near, other := side[0][lo:hi], side[1][lo:hi]
			start := len(s.prefPos)
			s.prefOff = append(s.prefOff, start)
			for k, d := range near {
				if d <= dt {
					s.prefPos = append(s.prefPos, s.group[lo+k])
					s.prefDist = append(s.prefDist, d)
					s.prefOther = append(s.prefOther, other[k])
				}
			}
			sort.Sort(prefixSorter{s.prefPos[start:], s.prefDist[start:], s.prefOther[start:]})
		}
	}
	s.prefOff = append(s.prefOff, len(s.prefPos))
}

// byALoadBounds splits the position groups into worker shards of roughly
// equal inverse-index load (the per-position near-list entry counts,
// which is what the row scans cost).
func (s *instSearch) byALoadBounds(workers int) []int {
	groups := len(s.groupPos)
	total := int64(len(s.byKey))
	bounds := make([]int, workers+1)
	bounds[workers] = groups
	ga := 0
	for w := 1; w < workers; w++ {
		target := total * int64(w) / int64(workers)
		for ga < groups && int64(s.byOff[ga]) < target {
			ga++
		}
		bounds[w] = ga
	}
	return bounds
}

// collectUnsat fills unsat with the pairs beyond d_t and accounts them as
// rescanned.
func (s *instSearch) collectUnsat() {
	dt := s.inst.thr.D
	s.unsat = s.unsat[:0]
	for i := range s.pairDist {
		if s.pairDist[i] > dt {
			s.unsat = append(s.unsat, i)
		}
	}
	telemetry.Global().PairsRescanned.Add(int64(len(s.unsat)))
	s.evPairsRescanned += int64(len(s.unsat))
	obs.ObserveMerge(0, int64(len(s.unsat)))
}

// buildCandU fills the per-pair near-candidate lists for the pairs in
// unsat: the union of the pair's two balls restricted to candidate nodes,
// as ascending positions with the two ball distances aligned (+Inf where
// a node is in one ball only). It merges the two sorted balls, so a list
// costs O(ball), not O(t). Runs serially; the cells it proves zero-gain
// feed CandidatesPruned here, which keeps the counter identical at every
// worker count.
func (s *instSearch) buildCandU() {
	s.candUOff = s.candUOff[:0]
	s.candU = s.candU[:0]
	s.candRu = s.candRu[:0]
	s.candRw = s.candRw[:0]
	// Size the arena once for the largest possible lists: append's growth
	// steps would allocate several times the final size at scale.
	total := 0
	for _, i := range s.unsat {
		total += s.balls[s.inst.pairU[i]].Len() + s.balls[s.inst.pairW[i]].Len()
	}
	s.candU = slices.Grow(s.candU, total)
	s.candRu = slices.Grow(s.candRu, total)
	s.candRw = slices.Grow(s.candRw, total)
	pruned := int64(0)
	for _, i := range s.unsat {
		start := len(s.candU)
		s.candUOff = append(s.candUOff, start)
		s.appendNear(s.balls[s.inst.pairU[i]], s.balls[s.inst.pairW[i]])
		u := int64(len(s.candU) - start)
		pruned += int64(s.inst.numCand) - u*(u-1)/2
	}
	s.candUOff = append(s.candUOff, len(s.candU))
	telemetry.Global().CandidatesPruned.Add(pruned)
}

// appendNear appends to the near-list arena the union of balls bu and bw,
// ascending by id, keeping candidate nodes only: each as its candidate
// position with its distance in each ball (+Inf when absent). Candidate
// positions ascend with node ids, so the entries ascend by position.
func (s *instSearch) appendNear(bu, bw shortestpath.Ball) {
	inf := math.Inf(1)
	pos := s.inst.candPos
	t := len(s.inst.candNodes)
	j, k := 0, 0
	for j < len(bu.IDs) || k < len(bw.IDs) {
		var x int32
		du, dw := inf, inf
		switch {
		case k == len(bw.IDs) || (j < len(bu.IDs) && bu.IDs[j] < bw.IDs[k]):
			x, du = bu.IDs[j], bu.Dist[j]
			j++
		case j == len(bu.IDs) || bw.IDs[k] < bu.IDs[j]:
			x, dw = bw.IDs[k], bw.Dist[k]
			k++
		default:
			x, du, dw = bu.IDs[j], bu.Dist[j], bw.Dist[k]
			j++
			k++
		}
		if pos != nil {
			x = pos[x]
		}
		if x < 0 || int(x) >= t {
			continue // not a candidate node
		}
		s.candU = append(s.candU, x)
		s.candRu = append(s.candRu, du)
		s.candRw = append(s.candRw, dw)
	}
}

// GainsAdd computes the σ gain of every candidate addition. The returned
// slice is reused across calls.
//
// The array is cached until the next mutation, so a repeated call returns
// without scanning. Otherwise it runs a cold scan:
// for each unsatisfied pair it collects the near-candidate list and walks
// only that list's triangle of candidate cells with two float compares
// per cell.
//
// With workers > 1 the triangular candidate grid is split into contiguous
// row ranges of roughly equal cell count; each worker runs the same scan
// over its rows, writing the disjoint gains segment those rows map to. The
// balls and near lists are read-only during the scan and the per-cell
// accumulations are exact integer adds, so the gains array — and hence
// every argmax taken over it — is identical to the serial scan's.
func (s *instSearch) GainsAdd() []int {
	// One atomic add for the whole scan: the count is the logical scan
	// width, identical for every worker count and whether or not the array
	// was cached, and the inner loops stay untouched.
	telemetry.Global().CandidateEvals.Add(int64(s.inst.numCand))
	s.sync()
	if s.gains == nil {
		s.gains = make([]int, s.inst.numCand)
	}
	if !s.gainsValid {
		s.coldScan()
	}
	return s.gains
}

// coldScan recomputes the gains array from scratch: zero it, collect the
// unsatisfied pairs and their near-candidate lists, and run the pruned
// grid scan over them.
func (s *instSearch) coldScan() {
	for i := range s.gains {
		s.gains[i] = 0
	}
	s.collectUnsat()
	s.buildCandU()
	if s.gainsBody == nil {
		s.gainsBody = s.gainsPrunedRows // method value; built once, reused warm
	}
	s.scanShardsRun(s.gainsBody)
	s.gainsValid = !s.interrupted()
}

// gainsPrunedRows runs the gains scan restricted to candidate-grid rows
// [aiLo, aiHi), accumulating into the gains segment those rows own.
// buildCandU must have run for the current unsat set: only cells with both
// endpoints in a pair's near list can gain, so walking the list's triangle
// — clipped to the shard's grid rows — increments exactly the cells a
// walk over the full grid would, in the same per-pair order. The gains
// array is bit-identical at every worker count.
func (s *instSearch) gainsPrunedRows(aiLo, aiHi int) {
	if aiLo >= aiHi {
		return
	}
	t := len(s.inst.candNodes)
	dt := s.inst.thr.D
	for ui, i := range s.unsat {
		if s.interrupted() {
			return
		}
		w := int(s.inst.weights[i])
		lo, hi := s.candUOff[ui], s.candUOff[ui+1]
		u, ru, rw := s.candU[lo:hi], s.candRu[lo:hi], s.candRw[lo:hi]
		x0 := sort.Search(len(u), func(j int) bool { return int(u[j]) >= aiLo })
		for x := x0; x < len(u); x++ {
			ai := int(u[x])
			if ai >= aiHi {
				break
			}
			ca := dt - ru[x]
			cb := dt - rw[x]
			base := rowStart(t, ai) - ai - 1
			for y := x + 1; y < len(u); y++ {
				if rw[y] <= ca || ru[y] <= cb {
					s.gains[base+int(u[y])] += w
				}
			}
		}
	}
}

// SigmaDrop evaluates σ with the pos-th selected shortcut removed, reusing
// a scratch selection buffer (single-caller, like every Search method). It
// is the reference SigmaDrops is tested against.
func (s *instSearch) SigmaDrop(pos int) int {
	s.rest = append(s.rest[:0], s.sel[:pos]...)
	s.rest = append(s.rest, s.sel[pos+1:]...)
	return s.inst.Sigma(s.rest)
}

// SigmaDrops returns σ(S \ {S[pos]}) for every position: at each position
// the value inst.Sigma(rest) gives, bit for bit. It reads each pair's base
// entries once per call rather than once per position: u→w, u→every
// endpoint of S, and w→every endpoint of S only when some u-side entry is
// below u→w, each from the pair endpoint's side as Overlay.Dist reads it.
// Each position's terminal graph is NewOverlay(rest)'s (dropPlan), so the
// per-pair minimization adds the same operands in the same order, and a
// min is exact. The telemetry counts the σ evaluations, overlays and pair
// queries of the per-position evaluation. With workers > 1 the pairs shard
// across goroutines, each summing weights into its own per-position
// counts; integer sums are exact, so every worker count gives the same
// slice. The slice is scratch reused across calls.
func (s *instSearch) SigmaDrops() []int {
	k := len(s.sel)
	s.drops = slices.Grow(s.drops[:0], k)[:k]
	tel := telemetry.Global()
	tel.SigmaEvals.Add(int64(k))
	if k <= 1 {
		if k == 1 {
			s.drops[0] = s.inst.baseSigma // σ(∅): no overlay, no queries
		}
		return s.drops
	}
	m := s.inst.ps.Len()
	tel.OverlayBuilds.Add(int64(k))
	tel.OverlayQueries.Add(int64(k) * int64(m))
	s.dropPlan.build(s.inst, s.sel)
	for len(s.dropShards) < s.workers {
		s.dropShards = append(s.dropShards, dropShard{})
	}
	ParallelFor(s.workers, m, func(shard, lo, hi int) {
		s.dropShards[shard].count(s, lo, hi)
	})
	clear(s.drops)
	for _, c := range s.dropShards[:min(s.workers, m)] {
		for pos, w := range c.cnt {
			s.drops[pos] += c.always + w
		}
	}
	return s.drops
}

// dropPlan holds the terminal graphs of one SigmaDrops call. ends lists
// the distinct endpoints of S in first-seen order, and base[i·T+j] is
// D[ends[i]][ends[j]] read from ends[i]'s side, as NewOverlay reads it.
// pos[p] is NewOverlay(rest)'s terminal graph for drop position p.
type dropPlan struct {
	ends []graph.NodeID
	sc   [][2]int32 // per shortcut of S: the ends indices of its U and V
	base []float64
	pos  []dropPos
}

// dropPos is one position's terminal graph: its endpoints in rest's
// first-seen order, as indices into dropPlan.ends, and their closure h
// (shortestpath.CloseTerminals).
type dropPos struct {
	ord []int32
	h   [][]float64
}

// build fills the plan for selection sel of inst.
func (d *dropPlan) build(inst *Instance, sel []int) {
	d.ends, d.sc = d.ends[:0], d.sc[:0]
	endOf := func(v graph.NodeID) int32 {
		i := slices.Index(d.ends, v)
		if i < 0 {
			i = len(d.ends)
			d.ends = append(d.ends, v)
		}
		return int32(i)
	}
	for _, c := range sel {
		e := inst.CandidateEdge(c)
		d.sc = append(d.sc, [2]int32{endOf(e.U), endOf(e.V)})
	}
	t := len(d.ends)
	d.base = slices.Grow(d.base[:0], t*t)[:t*t]
	for i, a := range d.ends {
		shortestpath.DistsFrom(inst.table, a, d.ends, d.base[i*t:(i+1)*t])
	}
	d.pos = slices.Grow(d.pos[:0], len(sel))[:len(sel)]
	for p := range d.pos {
		dp := &d.pos[p]
		dp.ord = dp.ord[:0]
		for c, sc := range d.sc {
			for _, a := range sc {
				if c != p && !slices.Contains(dp.ord, a) {
					dp.ord = append(dp.ord, a)
				}
			}
		}
		n := len(dp.ord)
		dp.h = slices.Grow(dp.h[:0], n)[:n]
		for i, a := range dp.ord {
			hi := slices.Grow(dp.h[i][:0], n)[:n]
			for j, b := range dp.ord {
				hi[j] = d.base[int(a)*t+int(b)]
			}
			hi[i] = 0
			dp.h[i] = hi
		}
		for c, sc := range d.sc {
			if c != p {
				i, j := slices.Index(dp.ord, sc[0]), slices.Index(dp.ord, sc[1])
				dp.h[i][j], dp.h[j][i] = 0, 0
			}
		}
		shortestpath.CloseTerminals(dp.h)
	}
}

// within reports whether a pair with base distance base > dt and terminal
// entries du, dw (indexed like dropPlan.ends) lies within dt under this
// position's overlay: Overlay.Dist's minimization, stopped once it
// reaches dt.
func (p *dropPos) within(du, dw []float64, base, dt float64) bool {
	best := base
	for i, a := range p.ord {
		dui := du[a]
		if dui >= best {
			continue
		}
		hi := p.h[i]
		for j, b := range p.ord {
			if v := dui + hi[j] + dw[b]; v < best {
				best = v
			}
		}
		if best <= dt {
			return true
		}
	}
	return false
}

// dropShard is one SigmaDrops shard's scratch and result: the weight of
// its pairs within d_t at baseline, which every position keeps, and the
// weight each position satisfies beyond that.
type dropShard struct {
	always int
	cnt    []int
	xs     []graph.NodeID // w, then the ends of S
	du, dw []float64      // u→xs and w→ends
}

// count scores pairs [lo, hi) against every drop position of s.dropPlan.
func (c *dropShard) count(s *instSearch, lo, hi int) {
	inst, plan := s.inst, &s.dropPlan
	dt := inst.thr.D
	c.always = 0
	c.cnt = slices.Grow(c.cnt[:0], len(plan.pos))[:len(plan.pos)]
	clear(c.cnt)
	c.xs = append(append(c.xs[:0], 0), plan.ends...)
	c.du = slices.Grow(c.du[:0], len(c.xs))[:len(c.xs)]
	c.dw = slices.Grow(c.dw[:0], len(plan.ends))[:len(plan.ends)]
	ps := inst.ps.Pairs()
	for i := lo; i < hi; i++ {
		if s.interrupted() {
			return
		}
		u, w := ps[i].U, ps[i].W
		c.xs[0] = w
		shortestpath.DistsFrom(inst.table, u, c.xs, c.du)
		base, du := c.du[0], c.du[1:]
		weight := int(inst.weights[i])
		switch {
		case base <= dt:
			c.always += weight
		case slices.ContainsFunc(du, func(d float64) bool { return d < base }):
			shortestpath.DistsFrom(inst.table, w, plan.ends, c.dw)
			for p := range plan.pos {
				if plan.pos[p].within(du, c.dw, base, dt) {
					c.cnt[p] += weight
				}
			}
		}
	}
}

// BestDrop returns the selection position whose removal leaves the largest
// σ (ties toward the lowest position) and that σ. It panics on an empty
// selection.
func (s *instSearch) BestDrop() (pos, sigma int) {
	if len(s.sel) == 0 {
		panic("core: BestDrop on empty selection")
	}
	return argmax(s.SigmaDrops())
}

// Add commits candidate cand: it merges the shortcut into the existing
// balls (mergeAdd) and marks the gains array stale.
func (s *instSearch) Add(cand int) {
	s.sync()
	s.mergeAdd(cand)
}

// position moves the search to sel (copied), in the state NewSearch(sel)
// would build: balls stale, gains dropped. It keeps every buffer for the
// next rebuild and scan to reuse.
func (s *instSearch) position(sel []int) {
	s.sel = append(s.sel[:0], sel...)
	s.markStale()
}

// RemoveAt removes the selection element at position pos. Deletions always
// leave the balls stale for a rebuild: removing a shortcut can lengthen
// distances, and the incremental min-merge has no way to undo a min — the
// information about which pre-merge value an entry held is gone.
func (s *instSearch) RemoveAt(pos int) {
	s.sel = append(s.sel[:pos], s.sel[pos+1:]...)
	s.markStale()
}

// mergeAdd is the incremental commit path. With f=(a,b) the new shortcut,
// it queries the two overlay balls of a and b over the PRE-commit
// selection (the only shortest-path work of the commit, independent of the
// number of endpoint balls). Then each endpoint ball e within d_t of a or
// b becomes the three-way merge (shortestpath.Merger, one per shard)
//
//	ball(e) ∪ (d_F(e,a) + ball(b)) ∪ (d_F(e,b) + ball(a)),
//
// minimum per node, truncated at d_t — the dense min-merge's arithmetic on
// the only entries that can land within d_t. A ball reaching neither a nor
// b, or one the merge does not improve, provably cannot change and is
// kept (RowsUnchanged). The pair distances and σ are refreshed from the
// merged balls and the gains array is marked stale.
func (s *instSearch) mergeAdd(cand int) {
	e := s.inst.CandidateEdge(cand)
	dt := s.inst.thr.D
	if s.mergeBall == nil {
		s.mergeSrc = make([]graph.NodeID, 2)
		s.mergeBall = make([]shortestpath.Ball, 2)
	}
	ov := shortestpath.NewOverlay(s.inst.table, SelectionEdges(s.inst, s.sel))
	s.mergeSrc[0], s.mergeSrc[1] = e.U, e.V
	shortestpath.NewEvaluator(ov, min(s.workers, 2)).DistBalls(s.inst.baseBalls(), s.inst.mergers, dt, s.mergeSrc, s.mergeBall)
	s.sel = append(s.sel, cand)
	ballA, ballB := s.mergeBall[0], s.mergeBall[1]

	rows := len(s.balls)
	shards := max(min(s.workers, rows), 1)
	if len(s.shardCnt) < shards {
		s.shardCnt = make([]int64, shards)
		s.mergeOut = append(s.mergeOut, make([]shortestpath.Ball, shards-len(s.mergeOut))...)
	}
	cnt := s.shardCnt[:shards]
	for i := range cnt {
		cnt[i] = 0
	}
	// The balls of a and b are shared and read-only; every write is
	// ball-indexed or shard-indexed and disjoint.
	ParallelFor(s.workers, rows, func(shard, lo, hi int) {
		changed := int64(0)
		var shift [3]float64
		var merge [3]shortestpath.Ball
		m := s.inst.mergers.Get()
		out := s.mergeOut[shard]
		for r := lo; r < hi; r++ {
			b := s.balls[r]
			shift[0], merge[0] = 0, b
			k := 1
			if da := b.At(e.U); da <= dt {
				shift[k], merge[k] = da, ballB
				k++
			}
			if db := b.At(e.V); db <= dt {
				shift[k], merge[k] = db, ballA
				k++
			}
			if k == 1 {
				continue // the ball reaches neither endpoint: it cannot change
			}
			var improved bool
			out, improved = m.AppendMinMerge(shortestpath.Ball{IDs: out.IDs[:0], Dist: out.Dist[:0]}, dt, shift[:k], merge[:k])
			if !improved {
				continue
			}
			changed++
			b.IDs = append(b.IDs[:0], out.IDs...)
			b.Dist = append(b.Dist[:0], out.Dist...)
			s.balls[r] = b
		}
		s.inst.mergers.Put(m)
		s.mergeOut[shard] = out
		cnt[shard] = changed
	})
	var merged int64
	for _, c := range cnt {
		merged += c
	}
	g := telemetry.Global()
	g.RowsMerged.Add(merged)
	g.RowsUnchanged.Add(int64(rows) - merged)
	s.evRowsMerged += merged
	s.evRowsUnchanged += int64(rows) - merged
	obs.ObserveMerge(merged, 0)
	s.gainsValid = false
	s.recomputeSigma()
}
