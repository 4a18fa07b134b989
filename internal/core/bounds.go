package core

import (
	"cmp"
	"slices"
	"sync/atomic"

	"msc/internal/graph"
	"msc/internal/maxcover"
	"msc/internal/shortestpath"
	"msc/internal/telemetry"
)

// buildBounds materializes the coverage structures behind the two
// submodular bound functions (paper §V-B). Both derive from the d_t-balls
// of the raw network's distance table D:
//
//   - μ (lower bound): restrict every path to use at most one shortcut.
//     Candidate f=(a,b) then satisfies a fixed pair set
//     S_f = { {u,w} ∈ S : min(D[a][u]+D[b][w], D[b][u]+D[a][w]) ≤ d_t },
//     and μ(F) = |S_∅ ∪ ⋃_{f∈F} S_f| — a coverage function, hence
//     monotone submodular, and μ ≤ σ everywhere (the restriction can only
//     lengthen paths). Only candidates with one endpoint in u's ball and
//     the other in w's ball can satisfy {u,w}, so the sets are built pair
//     by pair from the two balls into an explicit sparse family.
//
//   - ν (upper bound): a pair endpoint x is "covered" by F when some
//     shortcut endpoint is within d_t of x. With node weight
//     w(x) = ½ × (multiplicity of x in S), ν(F) = Σ weights of covered
//     endpoints + |S_∅|. Any pair newly satisfied by F must have both
//     endpoints covered (its path enters/leaves the shortcut region within
//     budget), so ν ≥ σ; weighted coverage is submodular. Candidate (a,b)
//     covers ball(a) ∪ ball(b), which the factored pair-union family
//     represents by the t balls alone.
//
// The |S_∅| offset keeps ν ≥ σ on instances where some pairs already meet
// the threshold (the paper assumes none do; adding a constant preserves
// both the bound and submodularity).
//
// The build reads only each candidate's d_t-ball, restricted to the pair
// nodes (readBalls), with the same D operands a full-row scan would read,
// so μ, ν and their greedy selections equal, bit for bit, those of the
// dense one-bitset-per-candidate reference kept in bounds_diff_test.go.
func (inst *Instance) buildBounds() {
	inst.boundsOnce.Do(func() {
		m := inst.ps.Len()
		d := inst.thr.D
		// ν universe: distinct nodes appearing in S. Node weight is half the
		// total importance of the pairs it appears in — ½ × multiplicity
		// when unweighted, matching §V-B2 exactly.
		nuNodes := inst.endpoints
		nuIndex := nodePositions(inst.g.N(), nuNodes)
		nuWeights := make([]float64, len(nuNodes))
		// ends lists, per pair node, the endpoints it is of pairs not
		// satisfied at baseline (those are handled by the Initial set),
		// as pair·2 + (0 for U, 1 for W).
		ends := make([][]int32, len(nuNodes))
		for i := range inst.ps.Len() {
			half := float64(inst.weights[i]) / 2
			u, w := inst.pairU[i], inst.pairW[i]
			nuWeights[u] += half
			nuWeights[w] += half
			if !inst.satisfied0.Contains(i) {
				ends[u] = append(ends[u], int32(2*i))
				ends[w] = append(ends[w], int32(2*i+1))
			}
		}
		// One pass over the candidate balls, in candidate order, gathers
		// the ν balls and, for every pair not satisfied at baseline, the
		// candidates within d_t of each endpoint with D[a][u] and D[a][w]
		// as read from a's ball.
		t := len(inst.candNodes)
		uBall := make([][]ballEntry, m)
		wBall := make([][]ballEntry, m)
		balls := &maxcover.Lists{}
		var ball []int32
		for a, hits := range inst.readBalls(nuNodes, nuIndex) {
			ball = ball[:0]
			for _, h := range hits {
				ball = append(ball, h.nu)
				for _, e := range ends[h.nu] {
					if e&1 == 0 {
						uBall[e>>1] = append(uBall[e>>1], ballEntry{int32(a), h.d})
					} else {
						wBall[e>>1] = append(wBall[e>>1], ballEntry{int32(a), h.d})
					}
				}
			}
			balls.Append(ball)
		}
		// Candidate {x,y} satisfies pair i when D[x][u] + D[y][w] ≤ d_t for
		// one of its two orientations. Distances are non-negative and
		// float addition is monotone, so with w's ball sorted by distance
		// each x stops at the first y over the threshold.
		var keys []uint64 // candidate·m + pair, one per (set, element)
		for i := range uBall {
			slices.SortFunc(wBall[i], func(p, q ballEntry) int { return cmp.Compare(p.d, q.d) })
			for _, x := range uBall[i] {
				for _, y := range wBall[i] {
					if x.d+y.d > d {
						break
					}
					if x.pos != y.pos {
						c := maxcover.PairID(t, int(min(x.pos, y.pos)), int(max(x.pos, y.pos)))
						keys = append(keys, uint64(c)*uint64(m)+uint64(i))
					}
				}
			}
		}
		slices.Sort(keys)
		keys = slices.Compact(keys)
		mu := &maxcover.Sparse{N: inst.numCand}
		var set []int32
		for j, key := range keys {
			set = append(set, int32(key%uint64(m)))
			if j+1 == len(keys) || keys[j+1]/uint64(m) != key/uint64(m) {
				mu.IDs = append(mu.IDs, int(key/uint64(m)))
				mu.Sets.Append(set)
				set = set[:0]
			}
		}
		inst.mu = maxcover.Problem{Universe: m, Sparse: mu, Initial: inst.satisfied0, K: inst.k}
		if inst.totalWeight != m {
			inst.mu.Weights = make([]float64, m)
			for i, w := range inst.weights {
				inst.mu.Weights[i] = float64(w)
			}
		}
		inst.nu = maxcover.Problem{Weights: nuWeights, Universe: len(nuNodes), Pairs: balls, K: inst.k}
	})
}

// ballEntry is one candidate within d_t of a pair endpoint: its position
// in candNodes and its distance.
type ballEntry struct {
	pos int32
	d   float64
}

// ballHit is one pair node within d_t of a candidate: its position in the
// pair-node list and its distance.
type ballHit struct {
	nu int32
	d  float64
}

// ballSearcher is the uncached bounded search of the lazy and bounded
// backends: u's entries of Row(u) ≤ bound, appended to ids and dist.
type ballSearcher interface {
	Ball(u graph.NodeID, bound float64, ids []int32, dist []float64) ([]int32, []float64)
}

// readBalls returns each candidate's d_t-ball restricted to the pair
// nodes, ascending by pair-node position, read on Options.Parallelism
// workers that pull candidates from a shared counter. A candidate's hits
// depend on the candidate alone, so the result is identical for every
// worker count and schedule. The ball comes from one of two places:
//
//   - the lazy and bounded backends read a pair endpoint's ball through
//     the instance memo (baseBall), on the pool, because the σ search
//     reads it right after, and run an uncached bounded Dijkstra at d_t
//     for every other candidate, so no row is cached for it;
//   - any other source (the dense table) serves its resident row, read
//     at the pair nodes only.
//
// Every path yields exactly the entries ≤ d_t of the row Row(v) returns,
// so the hits are those a full-row scan would find, bit for bit.
func (inst *Instance) readBalls(nuNodes []graph.NodeID, nuIndex []int32) [][]ballHit {
	d := inst.thr.D
	searcher, searchable := inst.table.(ballSearcher)
	workers := ResolveParallelism(inst.parallelism)
	out := make([][]ballHit, len(inst.candNodes))
	var next atomic.Int64
	ParallelFor(workers, workers, func(int, int, int) {
		var ids []int32
		var dist []float64
		for {
			a := int(next.Add(1) - 1)
			if a >= len(inst.candNodes) {
				return
			}
			v := inst.candNodes[a]
			if !searchable {
				out[a] = rowHits(inst.table.Row(v), nuNodes, d)
				continue
			}
			var b shortestpath.Ball
			if nuIndex[v] >= 0 {
				b = inst.baseBall(v)
			} else {
				ids, dist = searcher.Ball(v, d, ids[:0], dist[:0])
				b = shortestpath.Ball{IDs: ids, Dist: dist}
			}
			var hits []ballHit
			for i, x := range b.IDs {
				if j := nuIndex[x]; j >= 0 {
					hits = append(hits, ballHit{j, b.Dist[i]})
				}
			}
			out[a] = hits
		}
	})
	return out
}

// nodePositions maps each of n nodes to its position in nodes, or -1.
func nodePositions(n int, nodes []graph.NodeID) []int32 {
	pos := make([]int32, n)
	for v := range pos {
		pos[v] = -1
	}
	for i, v := range nodes {
		pos[v] = int32(i)
	}
	return pos
}

// rowHits returns the pair nodes within d of a full row.
func rowHits(row []float64, nuNodes []graph.NodeID, d float64) []ballHit {
	var hits []ballHit
	for j, x := range nuNodes {
		if row[x] <= d {
			hits = append(hits, ballHit{int32(j), row[x]})
		}
	}
	return hits
}

// maxBoundCandidates caps the candidate universe for which round-event
// diagnostics evaluate μ/ν. The coverage structures are sparse and the
// build reads only the t candidates' d_t-balls (readBalls), but that is
// still t searches (one bounded Dijkstra or cached row per candidate, and
// on the dense backend an O(n²) table up front) that no 10⁶-node run has
// yet measured. Above the cap (t ≈ 4100 candidate nodes) BoundsTractable
// reports false and round-event diagnostics skip μ/ν with a -1 sentinel
// instead of stalling the solve. Solvers that *need* the bounds
// (sandwich, mu, nu) still build them unconditionally.
const maxBoundCandidates = 8 << 20

// BoundsTractable reports whether the μ/ν coverage structures can be
// built within a sane ball-reading budget.
func (inst *Instance) BoundsTractable() bool {
	return inst.numCand <= maxBoundCandidates
}

// diagBounds returns μ/ν of a selection for round-event diagnostics, or
// the (-1, -1) sentinel when building the coverage structures is
// intractable. Telemetry must never force the t-ball read the solve itself
// does not need.
func diagBounds(p Problem, sel []int) (mu, nu float64) {
	if !p.BoundsTractable() {
		return -1, -1
	}
	return p.Mu(sel), p.Nu(sel)
}

// Mu evaluates the lower bound μ on a selection: the total weight of
// pairs satisfiable with at most one shortcut each, plus pairs already
// satisfied.
func (inst *Instance) Mu(sel []int) float64 {
	telemetry.Global().MuEvals.Add(1)
	inst.buildBounds()
	total := 0.0
	inst.mu.Covered(sel).ForEach(func(i int) {
		total += float64(inst.weights[i])
	})
	return total
}

// Nu evaluates the upper bound ν on a selection: total weight of covered
// pair endpoints plus the satisfied-at-baseline offset.
func (inst *Instance) Nu(sel []int) float64 {
	telemetry.Global().NuEvals.Add(1)
	inst.buildBounds()
	total := float64(inst.baseSigma)
	inst.nu.Covered(sel).ForEach(func(i int) {
		total += inst.nu.Weights[i]
	})
	return total
}

// MuProblem exposes μ as a max-coverage instance (budget k) for the greedy
// arm F_μ of the sandwich algorithm. The coverage elements are pairs,
// weighted by importance (nil weights when uniform). Callers must not
// modify the shared family.
func (inst *Instance) MuProblem() maxcover.Problem {
	inst.buildBounds()
	return inst.mu
}

// NuProblem exposes ν as a weighted max-coverage instance (budget k) for
// the greedy arm F_ν. The baseline offset is a constant and does not affect
// which sets greedy picks.
func (inst *Instance) NuProblem() maxcover.Problem {
	inst.buildBounds()
	return inst.nu
}
