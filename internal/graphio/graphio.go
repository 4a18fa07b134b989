// Package graphio serializes networks and pair sets so the command-line
// tools can exchange problem instances as files.
//
// Two formats are supported:
//
//   - JSON: a single document carrying nodes (with optional coordinates and
//     labels), edges with failure probabilities, important pairs, and the
//     threshold — the lingua franca of cmd/mscgen, cmd/mscplace and
//     cmd/mscviz.
//   - Edge list: a minimal "u v p_fail" text form for interoperability
//     with other tooling.
package graphio

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

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

// WriteEdgeList encodes "u v p_fail" lines.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	for _, e := range g.Edges() {
		p := failprob.ProbFromLength(e.Length)
		if _, err := fmt.Fprintf(bw, "%d %d %.10g\n", e.U, e.V, p); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeList decodes "u v p_fail" lines (p_fail optional, default 0).
// The node count is one past the largest id mentioned. Every malformed
// line — wrong field count, unparseable or negative or over-cap ids,
// self-loops, duplicate edges, NaN or out-of-range probabilities — is
// rejected with a *ValidationError naming the line; ReadEdgeList never
// panics, whatever the input.
func ReadEdgeList(r io.Reader) (*graph.Graph, error) {
	type rec struct {
		u, v graph.NodeID
		p    float64
	}
	var recs []rec
	seen := make(map[[2]graph.NodeID]bool)
	maxID := graph.NodeID(-1)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 && len(fields) != 3 {
			return nil, lineErr(lineNo, "edge", "want 2 or 3 fields, got %d", len(fields))
		}
		u64, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, lineErr(lineNo, "u", "%v", err)
		}
		v64, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, lineErr(lineNo, "v", "%v", err)
		}
		p := 0.0
		if len(fields) == 3 {
			p, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, lineErr(lineNo, "p_fail", "%v", err)
			}
		}
		u, v := graph.NodeID(u64), graph.NodeID(v64)
		if err := validateEdgeRec(lineNo, u, v, p, len(fields) == 3); err != nil {
			return nil, err
		}
		key := [2]graph.NodeID{u, v}
		if key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		if seen[key] {
			return nil, lineErr(lineNo, "edge", "duplicate edge (%d,%d)", u, v)
		}
		seen[key] = true
		recs = append(recs, rec{u: u, v: v, p: p})
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, lineErr(lineNo+1, "line", "%v", err)
		}
		return nil, fmt.Errorf("graphio: read edge list: %w", err)
	}
	if maxID < 0 {
		return nil, &ValidationError{Format: "edgelist", Field: "edges", Msg: "empty edge list"}
	}
	b := graph.NewBuilder(int(maxID) + 1)
	for _, rc := range recs {
		b.AddEdge(rc.u, rc.v, failprob.LengthFromProb(rc.p))
	}
	return b.Build()
}
