package graph

import (
	"slices"

	"msc/internal/geom"
)

// Components returns the connected components of g, each as a sorted slice
// of node ids, ordered by their smallest member.
func (g *Graph) Components() [][]NodeID {
	n := g.N()
	seen := make([]bool, n)
	var comps [][]NodeID
	queue := make([]NodeID, 0, n)
	for start := 0; start < n; start++ {
		if seen[start] {
			continue
		}
		queue = queue[:0]
		queue = append(queue, NodeID(start))
		seen[start] = true
		comp := []NodeID{NodeID(start)}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, a := range g.adj[u] {
				if !seen[a.To] {
					seen[a.To] = true
					comp = append(comp, a.To)
					queue = append(queue, a.To)
				}
			}
		}
		comps = append(comps, comp)
	}
	for _, c := range comps {
		slices.Sort(c)
	}
	return comps
}

// LargestComponent returns the node set of the largest connected component
// (ties broken by smallest member).
func (g *Graph) LargestComponent() []NodeID {
	comps := g.Components()
	best := 0
	for i, c := range comps {
		if len(c) > len(comps[best]) {
			best = i
		}
	}
	if len(comps) == 0 {
		return nil
	}
	return comps[best]
}

// Connected reports whether g is a single connected component. The empty
// graph is considered connected.
func (g *Graph) Connected() bool {
	return g.N() == 0 || len(g.Components()) == 1
}

// InducedSubgraph returns the subgraph induced by keep, along with the
// mapping newID -> oldID. Coordinates and labels are carried over when
// present. Node ids are compacted in the order given by keep.
func (g *Graph) InducedSubgraph(keep []NodeID) (*Graph, []NodeID) {
	oldToNew := make(map[NodeID]NodeID, len(keep))
	for i, old := range keep {
		oldToNew[old] = NodeID(i)
	}
	b := NewBuilder(len(keep))
	for _, e := range g.edges {
		nu, okU := oldToNew[e.U]
		nv, okV := oldToNew[e.V]
		if okU && okV {
			b.AddEdge(nu, nv, e.Length)
		}
	}
	if g.coords != nil {
		cs := make([]geom.Point, len(keep))
		for i, old := range keep {
			cs[i] = g.coords[old]
		}
		b.SetCoords(cs)
	}
	if g.labels != nil {
		ls := make([]string, len(keep))
		for i, old := range keep {
			ls[i] = g.labels[old]
		}
		b.SetLabels(ls)
	}
	sub, err := b.Build()
	if err != nil {
		// Induced subgraphs of a valid graph are always valid.
		panic(err)
	}
	mapping := append([]NodeID(nil), keep...)
	return sub, mapping
}
