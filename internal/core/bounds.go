package core

import (
	"cmp"
	"slices"

	"msc/internal/graph"
	"msc/internal/maxcover"
	"msc/internal/telemetry"
)

// buildBounds materializes the coverage structures behind the two
// submodular bound functions (paper §V-B). Both derive from the d_t-balls
// of the raw network's distance table D around the pair endpoints:
//
//   - μ (lower bound): restrict every path to use at most one shortcut.
//     Candidate f=(a,b) then satisfies a fixed pair set
//     S_f = { {u,w} ∈ S : min(D[u][a]+D[w][b], D[u][b]+D[w][a]) ≤ d_t },
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
//     covers near(a) ∪ near(b), the pair nodes whose balls hold a or b,
//     which the factored pair-union family represents by the t lists alone.
//
// The |S_∅| offset keeps ν ≥ σ on instances where some pairs already meet
// the threshold (the paper assumes none do; adding a constant preserves
// both the bound and submodularity).
//
// Every distance is read from the pair endpoint's side, D[u][a] from u's
// ball and D[w][b] from w's, which is where Instance.Sigma's overlay reads
// it. D need not be bitwise symmetric, so this is what makes μ ≤ σ ≤ ν
// exact on any edge lengths. The build reads only the 2m endpoint balls,
// which the σ search memoizes anyway (baseBall).
func (inst *Instance) buildBounds() {
	inst.boundsOnce.Do(func() {
		m := inst.ps.Len()
		d := inst.thr.D
		// ν universe: distinct nodes appearing in S. Node weight is half the
		// total importance of the pairs it appears in — ½ × multiplicity
		// when unweighted, matching §V-B2 exactly.
		nuWeights := make([]float64, len(inst.endpoints))
		for i := range m {
			half := float64(inst.weights[i]) / 2
			nuWeights[inst.pairU[i]] += half
			nuWeights[inst.pairW[i]] += half
		}
		// Candidate {x,y} satisfies pair i when D[u][x] + D[w][y] ≤ d_t for
		// one of its two orientations. Distances are non-negative and
		// float addition is monotone, so with w's ball sorted by distance
		// each x stops at the first y over the threshold. Pairs satisfied
		// at baseline are handled by the Initial set.
		t := len(inst.candNodes)
		var keys []uint64 // candidate·m + pair, one per (set, element)
		var uBall, wBall []ballEntry
		for i := range m {
			if inst.satisfied0.Contains(i) {
				continue
			}
			uBall = inst.candidateBall(inst.endpoints[inst.pairU[i]], uBall[:0])
			wBall = inst.candidateBall(inst.endpoints[inst.pairW[i]], wBall[:0])
			slices.SortFunc(wBall, func(p, q ballEntry) int { return cmp.Compare(p.d, q.d) })
			for _, x := range uBall {
				for _, y := range wBall {
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
		inst.nu = maxcover.Problem{Weights: nuWeights, Universe: len(inst.endpoints), Pairs: inst.endpointsNear(), K: inst.k}
	})
}

// ballEntry is one candidate within d_t of a pair endpoint: its position
// in candNodes and its distance.
type ballEntry struct {
	pos int32
	d   float64
}

// candidatePos returns v's position in candNodes, or -1 outside the
// candidate universe.
func (inst *Instance) candidatePos(v int32) int32 {
	if inst.candPos == nil {
		return v
	}
	return inst.candPos[v]
}

// candidateBall appends to dst the candidates in x's d_t-ball, ascending
// by position, with their distances D[x][a] as read from x's side.
func (inst *Instance) candidateBall(x graph.NodeID, dst []ballEntry) []ballEntry {
	b := inst.baseBall(x)
	for j, v := range b.IDs {
		if a := inst.candidatePos(v); a >= 0 {
			dst = append(dst, ballEntry{a, b.Dist[j]})
		}
	}
	return dst
}

// endpointsNear inverts the pair endpoints' d_t-balls: list a holds,
// ascending, the positions in inst.endpoints of the pair nodes whose ball
// holds candidate position a. It is built in two passes over the balls, a
// count and a fill, with the endpoints in ascending order, so every list
// comes out sorted.
func (inst *Instance) endpointsNear() *maxcover.Lists {
	t := len(inst.candNodes)
	start := make([]int32, t+1)
	for _, x := range inst.endpoints {
		for _, v := range inst.baseBall(x).IDs {
			if a := inst.candidatePos(v); a >= 0 {
				start[a+1]++
			}
		}
	}
	for a := range t {
		start[a+1] += start[a]
	}
	next := slices.Clone(start[:t])
	elems := make([]int32, start[t])
	for j, x := range inst.endpoints {
		for _, v := range inst.baseBall(x).IDs {
			if a := inst.candidatePos(v); a >= 0 {
				elems[next[a]] = int32(j)
				next[a]++
			}
		}
	}
	return &maxcover.Lists{Start: start, Elems: elems}
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
