package core

import (
	"fmt"
	"sort"
	"strings"

	"msc/internal/failprob"
	"msc/internal/graph"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
)

// PairStatus describes one important social pair under a placement: the
// operator-facing diagnostic behind "which connections did my budget buy".
type PairStatus struct {
	Pair pairs.Pair
	// Before/After are the best-path failure probabilities without and
	// with the placement (1 means unreachable).
	Before, After float64
	// Maintained reports whether After meets the threshold.
	Maintained bool
	// MaintainedBefore reports whether the raw network already met it.
	MaintainedBefore bool
	// UsesShortcut reports whether the best path actually improved, i.e.
	// the placement (not the raw network) is responsible for After.
	UsesShortcut bool
}

// Report evaluates a placement pair by pair. Results are ordered as in the
// instance's pair set. The failure probabilities need exact distances
// beyond d_t too, so the overlay reads full-range rows (reportRows).
func (inst *Instance) Report(sel []int) []PairStatus {
	edges := SelectionEdges(inst, sel)
	src := &reportRows{n: inst.N(), u: -1, w: -1, terminals: make(map[graph.NodeID][]float64)}
	for _, e := range edges {
		for _, v := range [2]graph.NodeID{e.U, e.V} {
			if src.terminals[v] == nil {
				src.terminals[v] = inst.fullRow(v)
			}
		}
	}
	ov := shortestpath.NewOverlay(src, edges)
	out := make([]PairStatus, inst.ps.Len())
	for i, p := range inst.ps.Pairs() {
		src.setPair(inst, p.U, p.W)
		before := src.ru[p.W]
		after := ov.Dist(p.U, p.W)
		st := PairStatus{
			Pair:             p,
			Before:           failprob.ProbFromLength(before),
			After:            failprob.ProbFromLength(after),
			Maintained:       after <= inst.thr.D,
			MaintainedBefore: before <= inst.thr.D,
			UsesShortcut:     after < before,
		}
		out[i] = st
	}
	return out
}

// reportRows is the report overlay's distance source: the full-range rows
// (fullRow) of the shortcut endpoints, kept for the whole report, and of
// the current pair's two endpoints, so it holds 2k + 2 rows at most. It is
// for one serial caller.
type reportRows struct {
	n         int
	terminals map[graph.NodeID][]float64
	u, w      graph.NodeID
	ru, rw    []float64
}

// setPair makes u and w the current pair, reading their rows.
func (r *reportRows) setPair(inst *Instance, u, w graph.NodeID) {
	row := func(v graph.NodeID) []float64 {
		if t := r.terminals[v]; t != nil {
			return t
		}
		return inst.fullRow(v)
	}
	r.u, r.ru, r.w, r.rw = u, row(u), w, row(w)
}

func (r *reportRows) N() int { return r.n }

func (r *reportRows) Row(v graph.NodeID) []float64 {
	switch v {
	case r.u:
		return r.ru
	case r.w:
		return r.rw
	}
	return r.terminals[v]
}

func (r *reportRows) Dist(u, v graph.NodeID) float64 { return r.Row(u)[v] }

// Summary condenses a Report for printing: counts plus the worst remaining
// pair.
type Summary struct {
	Total            int
	Maintained       int
	NewlyMaintained  int
	ImprovedButShort int // improved by a shortcut yet still over threshold
	WorstAfter       float64
}

// Summarize aggregates pair statuses.
func Summarize(statuses []PairStatus) Summary {
	s := Summary{Total: len(statuses)}
	for _, st := range statuses {
		if st.Maintained {
			s.Maintained++
			if !st.MaintainedBefore {
				s.NewlyMaintained++
			}
		} else if st.UsesShortcut {
			s.ImprovedButShort++
		}
		if st.After > s.WorstAfter {
			s.WorstAfter = st.After
		}
	}
	return s
}

// FormatReport renders pair statuses as an aligned table, worst pairs
// first, for CLI output.
func FormatReport(statuses []PairStatus) string {
	sorted := append([]PairStatus(nil), statuses...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].After > sorted[j].After
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %-10s %-10s %-11s %s\n", "pair", "p_before", "p_after", "maintained", "via")
	for _, st := range sorted {
		via := "-"
		if st.UsesShortcut {
			via = "shortcut"
		} else if st.MaintainedBefore {
			via = "base path"
		}
		fmt.Fprintf(&sb, "%-12s %-10.4f %-10.4f %-11v %s\n",
			st.Pair.String(), st.Before, st.After, st.Maintained, via)
	}
	return sb.String()
}

// GreedySigmaCurve returns the greedy budget curve: curve[j] is σ after
// the first j greedy shortcuts (curve[0] is the baseline). Practitioners
// use it to answer "how much budget do I actually need" — the marginal
// value of every additional reliable link, in one greedy run.
func GreedySigmaCurve(p Problem, opts ...Option) []int {
	s := p.NewSearch(nil)
	s.SetWorkers(resolveOptions(opts))
	curve := []int{s.Sigma()}
	for s.Len() < p.K() {
		cand, gain := s.BestAdd()
		if cand < 0 || gain <= 0 {
			break
		}
		s.Add(cand)
		curve = append(curve, s.Sigma())
	}
	return curve
}
