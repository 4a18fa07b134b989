// Package graphio serializes networks and pair sets so the command-line
// tools can exchange problem instances as files.
//
// The format is a JSON document carrying nodes (with optional coordinates
// and labels), edges with failure probabilities, important pairs, and the
// threshold — the lingua franca of cmd/mscgen, cmd/mscplace and
// cmd/mscviz.
package graphio

import (
	"encoding/json"
	"io"

	"msc/internal/failprob"
	"msc/internal/geom"
	"msc/internal/graph"
	"msc/internal/pairs"
)

// Document is the JSON wire form of an MSC problem instance.
type Document struct {
	// Nodes is the node count; node ids are 0..Nodes-1.
	Nodes int `json:"nodes"`
	// Coords holds optional per-node [x, y] positions.
	Coords [][2]float64 `json:"coords,omitempty"`
	// Labels holds optional per-node names.
	Labels []string `json:"labels,omitempty"`
	// Edges holds the links with failure probabilities.
	Edges []EdgeRecord `json:"edges"`
	// Pairs holds the important social pairs (optional).
	Pairs [][2]int32 `json:"pairs,omitempty"`
	// FailureThreshold is p_t (optional; zero means unset).
	FailureThreshold float64 `json:"failure_threshold,omitempty"`
	// Budget is the shortcut budget k (optional).
	Budget int `json:"budget,omitempty"`
}

// EdgeRecord is one link in the JSON form.
type EdgeRecord struct {
	U    int32   `json:"u"`
	V    int32   `json:"v"`
	Fail float64 `json:"p_fail"`
}

// FromGraph converts a graph (and optional pair set) into a Document.
// Edge lengths are converted back to failure probabilities.
func FromGraph(g *graph.Graph, ps *pairs.Set, pt float64, k int) Document {
	doc := Document{
		Nodes:            g.N(),
		Edges:            make([]EdgeRecord, 0, g.M()),
		FailureThreshold: pt,
		Budget:           k,
	}
	if coords := g.Coords(); coords != nil {
		doc.Coords = make([][2]float64, len(coords))
		for i, p := range coords {
			doc.Coords[i] = [2]float64{p.X, p.Y}
		}
	}
	if labels := g.Labels(); labels != nil {
		doc.Labels = append([]string(nil), labels...)
	}
	for _, e := range g.Edges() {
		doc.Edges = append(doc.Edges, EdgeRecord{
			U: e.U, V: e.V, Fail: failprob.ProbFromLength(e.Length),
		})
	}
	if ps != nil {
		doc.Pairs = make([][2]int32, ps.Len())
		for i, p := range ps.Pairs() {
			doc.Pairs[i] = [2]int32{p.U, p.W}
		}
	}
	return doc
}

// Graph reconstructs the network from the document after a full
// Validate pass, so a malformed document surfaces as a *ValidationError
// rather than a builder error deep in construction.
func (doc Document) Graph() (*graph.Graph, error) {
	if err := doc.Validate(); err != nil {
		return nil, err
	}
	return doc.build()
}

// build reconstructs the network from a document that passed Validate.
func (doc Document) build() (*graph.Graph, error) {
	b := graph.NewBuilder(doc.Nodes).Grow(len(doc.Edges))
	if doc.Coords != nil {
		coords := make([]geom.Point, len(doc.Coords))
		for i, c := range doc.Coords {
			coords[i] = geom.Point{X: c[0], Y: c[1]}
		}
		b.SetCoords(coords)
	}
	if doc.Labels != nil {
		b.SetLabels(doc.Labels)
	}
	for _, e := range doc.Edges {
		b.AddEdge(e.U, e.V, failprob.LengthFromProb(e.Fail))
	}
	return b.Build()
}

// PairSet reconstructs the important pairs, or nil when the document
// carries none.
func (doc Document) PairSet() (*pairs.Set, error) {
	if len(doc.Pairs) == 0 {
		return nil, nil
	}
	ps := make([]pairs.Pair, len(doc.Pairs))
	for i, p := range doc.Pairs {
		ps[i] = pairs.Pair{U: p[0], W: p[1]}
	}
	return pairs.NewSet(doc.Nodes, ps)
}

// WriteJSON encodes the document with indentation.
func WriteJSON(w io.Writer, doc Document) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// ReadJSON decodes and validates a document in one streaming pass over r
// (see decoder), then one Validate pass. Malformed JSON, trailing data
// after the document, and documents violating the structural invariants
// (see Document.Validate) all come back as a *ValidationError wrapping
// ErrInvalid; ReadJSON never panics, whatever the input.
func ReadJSON(r io.Reader) (Document, error) {
	doc, err := newDecoder(r).document()
	if err != nil {
		return Document{}, err
	}
	if err := doc.Validate(); err != nil {
		return Document{}, err
	}
	return doc, nil
}

// ReadJSONGraph is ReadJSON followed by Document.Graph with a single
// Validate pass between them: the loader for callers that need both the
// document and its network. Its errors are exactly ReadJSON's.
func ReadJSONGraph(r io.Reader) (Document, *graph.Graph, error) {
	doc, err := ReadJSON(r)
	if err != nil {
		return Document{}, nil, err
	}
	g, err := doc.build()
	if err != nil {
		return Document{}, nil, err
	}
	return doc, g, nil
}
