package core

import (
	"errors"
	"testing"

	"msc/internal/failprob"
	"msc/internal/graph"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
	"msc/internal/xrand"
)

// FuzzInstance decodes an arbitrary byte string into a small MSC instance
// — graph, important pairs, budget, threshold — and cross-checks the
// solvers against each other. Degenerate shapes (no pairs, zero budget,
// disconnected graphs, d_t = 0) must come back as clean errors or valid
// placements, never panics; and the algorithm lattice must hold:
// Exhaustive ≥ GreedySigma, Sandwich.Best ≥ each of its arms, all σ in
// [0, m], serial == parallel.
func FuzzInstance(f *testing.F) {
	f.Add([]byte{5, 2, 1, 0x01, 0x12, 0x23, 0x34, 0x04, 0x13})
	f.Add([]byte{2, 1, 0, 0x01, 0x01})                   // tiny, d_t = 0
	f.Add([]byte{9, 0, 2, 0x18, 0x27, 0x36, 0x45, 0x08}) // k = 0 → ErrBudget
	f.Add([]byte{8, 3, 3})                               // no edges, no pairs
	f.Add([]byte{6, 2, 2, 0x01, 0x23, 0x45, 0x05, 0x24}) // disconnected components

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[0])%9 // 2..10 nodes
		k := int(data[1]) % 4   // 0..3 shortcuts; 0 exercises ErrBudget
		pt := []float64{0, 0.1, 0.5, 0.9}[int(data[2])%4]
		body := data[3:]

		// Each remaining byte encodes a node pair (u, v) in its nibbles;
		// alternate bytes become graph edges and social pairs. Self-loops
		// and duplicates are skipped, so sparse and disconnected graphs
		// occur naturally.
		b := graph.NewBuilder(n)
		var prs []pair2
		for i, raw := range body {
			u := graph.NodeID(int(raw>>4) % n)
			v := graph.NodeID(int(raw&0x0f) % n)
			if u == v {
				continue
			}
			if i%2 == 0 {
				b.AddEdge(u, v, failprob.LengthFromProb(float64(raw%8)/10))
			} else {
				prs = append(prs, pair2{u, v})
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatalf("builder rejected sanitized edges: %v", err)
		}

		seen := map[pairs.Pair]bool{}
		var ps []pairs.Pair
		for _, pr := range prs {
			c := pairs.New(pr.u, pr.v)
			if !seen[c] {
				seen[c] = true
				ps = append(ps, c)
			}
		}
		set, err := pairs.NewSet(n, ps)
		if err != nil {
			if len(ps) == 0 {
				return // no social pairs decoded: ErrEmpty is the contract
			}
			t.Fatalf("NewSet rejected sanitized pairs %v: %v", ps, err)
		}

		inst, err := NewInstance(g, set, failprob.NewThreshold(pt), k, &Options{AllowTrivial: true})
		if err != nil {
			if k < 1 {
				return // zero budget: ErrBudget is the contract
			}
			t.Fatalf("NewInstance(n=%d, k=%d, pt=%v): %v", n, k, pt, err)
		}
		// The same shape on the lazy backend must agree with the dense
		// instance on every placement below.
		lazyInst, err := NewInstance(g, set, failprob.NewThreshold(pt), k,
			&Options{AllowTrivial: true, Table: shortestpath.NewLazyTable(g, shortestpath.LazyOptions{})})
		if err != nil {
			t.Fatalf("NewInstance(lazy, n=%d, k=%d, pt=%v): %v", n, k, pt, err)
		}
		m := set.Len()

		checkSigma := func(what string, sigma int) {
			if sigma < 0 || sigma > m {
				t.Fatalf("%s: σ = %d outside [0, %d]", what, sigma, m)
			}
		}

		greedy := GreedySigma(inst, Parallelism(1))
		checkSigma("GreedySigma", greedy.Sigma)
		if par := GreedySigma(inst, Parallelism(4)); par.Sigma != greedy.Sigma {
			t.Fatalf("greedy parallel σ %d != serial %d", par.Sigma, greedy.Sigma)
		}
		lazyGreedy := GreedySigma(lazyInst, Parallelism(4))
		if lazyGreedy.Sigma != greedy.Sigma {
			t.Fatalf("lazy-backend greedy σ %d != dense %d", lazyGreedy.Sigma, greedy.Sigma)
		}
		if len(lazyGreedy.Selection) != len(greedy.Selection) {
			t.Fatalf("lazy-backend greedy selection %v != dense %v", lazyGreedy.Selection, greedy.Selection)
		}
		for i := range greedy.Selection {
			if lazyGreedy.Selection[i] != greedy.Selection[i] {
				t.Fatalf("lazy-backend greedy selection %v != dense %v", lazyGreedy.Selection, greedy.Selection)
			}
		}

		sw := Sandwich(inst)
		checkSigma("Sandwich.Best", sw.Best.Sigma)
		for _, arm := range []Placement{sw.FMu, sw.FSigma, sw.FNu} {
			if sw.Best.Sigma < arm.Sigma {
				t.Fatalf("Sandwich.Best σ %d below arm σ %d", sw.Best.Sigma, arm.Sigma)
			}
		}
		if sw.Best.Sigma < greedy.Sigma {
			t.Fatalf("Sandwich.Best σ %d below GreedySigma %d", sw.Best.Sigma, greedy.Sigma)
		}

		opt, err := Exhaustive(inst, 20000, Parallelism(1))
		if err == nil {
			checkSigma("Exhaustive", opt.Sigma)
			if opt.Sigma < greedy.Sigma {
				t.Fatalf("Exhaustive σ %d below GreedySigma %d", opt.Sigma, greedy.Sigma)
			}
			if opt.Sigma < sw.Best.Sigma {
				t.Fatalf("Exhaustive σ %d below Sandwich %d", opt.Sigma, sw.Best.Sigma)
			}
			if par, err := Exhaustive(inst, 20000, Parallelism(4)); err != nil || par.Sigma != opt.Sigma {
				t.Fatalf("parallel Exhaustive (%v, σ %d) != serial σ %d", err, par.Sigma, opt.Sigma)
			}
		}

		rnd, rndErr := RandomPlacement(inst, 5, xrand.New(int64(len(data))))
		if rndErr != nil {
			// k > numCandidates is rejected with a typed InputError; any
			// other failure on a validated instance is a bug.
			var inputErr *InputError
			if !errors.As(rndErr, &inputErr) {
				t.Fatalf("RandomPlacement: %v", rndErr)
			}
			return
		}
		checkSigma("RandomPlacement", rnd.Sigma)
		if err == nil && rnd.Sigma > opt.Sigma {
			t.Fatalf("RandomPlacement σ %d above Exhaustive optimum %d", rnd.Sigma, opt.Sigma)
		}
	})
}

type pair2 struct{ u, v graph.NodeID }
