package dynamic

import (
	"context"

	"msc/internal/core"
)

// rebuildProblem is the rebuild reference the dynamic eval-differential
// suite holds the product search to: its searches replace themselves with
// a fresh Problem.NewSearch after every Add or RemoveAt, so no
// per-instance state survives a mutation. Every other method is the
// embedded problem's own.
type rebuildProblem struct{ *Problem }

func (p rebuildProblem) NewSearch(sel []int) core.Search {
	return &rebuildSearch{multiSearch: p.Problem.NewSearch(sel).(*multiSearch), prob: p.Problem}
}

// rebuildSearch answers every query from the fresh search it holds and
// re-applies the worker count, supervision context and scan timing to each
// replacement.
type rebuildSearch struct {
	*multiSearch
	prob    *Problem
	workers int // 0 = never set
	ctx     context.Context
	timing  bool
}

func (s *rebuildSearch) Add(cand int) { s.replace(append(s.Selection(), cand)) }

func (s *rebuildSearch) RemoveAt(pos int) {
	sel := s.Selection()
	s.replace(append(sel[:pos], sel[pos+1:]...))
}

// replace swaps in a fresh search positioned at sel.
func (s *rebuildSearch) replace(sel []int) {
	s.multiSearch = s.prob.NewSearch(sel).(*multiSearch)
	if s.workers != 0 {
		s.multiSearch.SetWorkers(s.workers)
	}
	if s.ctx != nil {
		s.multiSearch.SetContext(s.ctx)
	}
	s.multiSearch.EnableScanTiming(s.timing)
}

func (s *rebuildSearch) SetWorkers(n int) {
	s.workers = n
	s.multiSearch.SetWorkers(n)
}

func (s *rebuildSearch) SetContext(ctx context.Context) {
	s.ctx = ctx
	s.multiSearch.SetContext(ctx)
}

func (s *rebuildSearch) EnableScanTiming(on bool) {
	s.timing = on
	s.multiSearch.EnableScanTiming(on)
}
