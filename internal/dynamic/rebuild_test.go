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
	return &rebuildSearch{Search: p.Problem.NewSearch(sel), prob: p.Problem}
}

// rebuildSearch answers every query from the fresh search it holds and
// re-applies the worker count, supervision context and scan timing to each
// replacement.
type rebuildSearch struct {
	core.Search
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
	s.Search = s.prob.NewSearch(sel)
	if s.workers != 0 {
		s.Search.SetWorkers(s.workers)
	}
	if s.ctx != nil {
		s.Search.SetContext(s.ctx)
	}
	s.Search.EnableScanTiming(s.timing)
}

func (s *rebuildSearch) SetWorkers(n int) {
	s.workers = n
	s.Search.SetWorkers(n)
}

func (s *rebuildSearch) SetContext(ctx context.Context) {
	s.ctx = ctx
	s.Search.SetContext(ctx)
}

func (s *rebuildSearch) EnableScanTiming(on bool) {
	s.timing = on
	s.Search.EnableScanTiming(on)
}
