package core

import "context"

// rebuildProblem is the rebuild reference the eval-differential suites
// hold the product search to. Its searches keep no state across a
// mutation: after every Add or RemoveAt they replace themselves with a
// fresh Instance.NewSearch on the new selection, so balls, pair distances,
// σ and gains come from the selection alone, never from a merge. Every
// other Problem method is the embedded instance's own.
type rebuildProblem struct{ *Instance }

func (p rebuildProblem) NewSearch(sel []int) Search {
	s := &rebuildSearch{fresh: p.Instance.NewSearch}
	s.Search = s.fresh(sel)
	return s
}

// rebuildSearch answers every query from the fresh search it holds. It
// re-applies the worker count, supervision context and scan timing to
// each replacement.
type rebuildSearch struct {
	Search
	fresh   func(sel []int) Search
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
	s.Search = s.fresh(sel)
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

// searchPaths are the two ways a test can drive a search over an instance:
// the product path, and the rebuild reference.
var searchPaths = []struct {
	name      string
	newSearch func(inst *Instance, sel []int) Search
}{
	{"incremental", func(inst *Instance, sel []int) Search { return inst.NewSearch(sel) }},
	{"rebuild", func(inst *Instance, sel []int) Search { return rebuildProblem{inst}.NewSearch(sel) }},
}

// plainSearch returns the instSearch behind s, unwrapping the rebuild
// reference.
func plainSearch(s Search) *instSearch {
	if r, ok := s.(*rebuildSearch); ok {
		return r.Search.(*instSearch)
	}
	return s.(*instSearch)
}
