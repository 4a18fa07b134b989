package graphio

// The edge-list codec ("u v p_fail" lines) and the Graphviz DOT writer
// serve no command; they live here with their tests and fuzz target.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"msc/internal/failprob"
	"msc/internal/graph"
	"msc/internal/pairs"
)

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

func lineErr(line int, field, format string, args ...any) error {
	return &ValidationError{Format: "edgelist", Field: field, Line: line, Msg: fmt.Sprintf(format, args...)}
}

// validateEdgeRec rejects one edge-list record: negative, self-looped,
// over-cap ids and NaN or out-of-range failure probabilities, each
// reported with its source line.
func validateEdgeRec(line int, u, v graph.NodeID, p float64, explicitP bool) error {
	if u < 0 || v < 0 {
		return lineErr(line, "edge", "negative node id (%d,%d)", u, v)
	}
	if int(u) >= MaxNodes || int(v) >= MaxNodes {
		return lineErr(line, "edge", "node id (%d,%d) exceeds the %d-node cap", u, v, MaxNodes)
	}
	if u == v {
		return lineErr(line, "edge", "self-loop at node %d", u)
	}
	if explicitP && (math.IsNaN(p) || p < 0 || p >= 1) {
		return lineErr(line, "p_fail", "%v outside [0, 1)", p)
	}
	return nil
}

// WriteDOT renders the network in Graphviz DOT format for quick visual
// inspection with external tooling. Base links are gray with the failure
// probability as label; shortcut edges are bold red; important-pair
// members are filled. Positions (when present) become pos attributes
// usable by neato -n.
func WriteDOT(w io.Writer, g *graph.Graph, ps *pairs.Set, shortcuts []graph.Edge) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "graph msc {")
	fmt.Fprintln(bw, "  node [shape=circle, fontsize=9];")

	member := map[graph.NodeID]bool{}
	if ps != nil {
		for _, p := range ps.Pairs() {
			member[p.U] = true
			member[p.W] = true
		}
	}
	coords := g.Coords()
	for v := 0; v < g.N(); v++ {
		attrs := fmt.Sprintf("label=%q", g.Label(graph.NodeID(v)))
		if member[graph.NodeID(v)] {
			attrs += `, style=filled, fillcolor="#2c3e50", fontcolor=white`
		}
		if coords != nil {
			attrs += fmt.Sprintf(", pos=\"%.3f,%.3f!\"", coords[v].X, coords[v].Y)
		}
		fmt.Fprintf(bw, "  %d [%s];\n", v, attrs)
	}
	for _, e := range g.Edges() {
		p := failprob.ProbFromLength(e.Length)
		fmt.Fprintf(bw, "  %d -- %d [color=gray, label=\"%.2f\", fontsize=7];\n", e.U, e.V, p)
	}
	for _, f := range shortcuts {
		fmt.Fprintf(bw, "  %d -- %d [color=\"#c0392b\", penwidth=2.5, style=dashed];\n", f.U, f.V)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := sampleGraph(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != g.M() {
		t.Fatalf("m = %d, want %d", g2.M(), g.M())
	}
	for _, e := range g.Edges() {
		l2, ok := g2.EdgeLength(e.U, e.V)
		if !ok || math.Abs(l2-e.Length) > 1e-9 {
			t.Fatalf("edge (%d,%d) mismatch", e.U, e.V)
		}
	}
}

func TestReadEdgeListForms(t *testing.T) {
	in := "# comment\n0 1\n1 2 0.5\n\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if l, _ := g.EdgeLength(0, 1); l != 0 {
		t.Fatalf("default p_fail should be 0, got length %v", l)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"",          // empty
		"0\n",       // one field
		"0 1 2 3\n", // four fields
		"x 1\n",     // bad id
		"0 1 1.5\n", // p out of range
	}
	for i, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: expected error for %q", i, in)
		}
	}
}

func TestReadEdgeListTypedErrors(t *testing.T) {
	cases := []struct {
		in   string
		line int
	}{
		{"0 0 0.1\n", 1},                  // self-loop
		{"-3 1 0.1\n", 1},                 // negative id
		{"0 1 NaN\n", 1},                  // NaN slips past < > comparisons
		{"# c\n0 1 0.1\n0 1 0.2\n", 3},    // duplicate edge
		{"0 1 0.1\n0 999999999 0.1\n", 2}, // id over cap
	}
	for i, tc := range cases {
		_, err := ReadEdgeList(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("case %d: accepted %q", i, tc.in)
			continue
		}
		var verr *ValidationError
		if !errors.As(err, &verr) || !errors.Is(err, ErrInvalid) {
			t.Errorf("case %d: error %v is not a typed validation error", i, err)
			continue
		}
		if verr.Line != tc.line {
			t.Errorf("case %d: Line = %d, want %d (err: %v)", i, verr.Line, tc.line, err)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	g := sampleGraph(t)
	ps := pairs.MustNewSet(4, []pairs.Pair{{U: 0, W: 3}})
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, ps, []graph.Edge{{U: 1, V: 3}}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"graph msc {", "0 -- 1", "penwidth=2.5", "fillcolor", "pos=",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT missing %q:\n%s", want, out)
		}
	}
}

// FuzzReadEdgeList feeds arbitrary text to the edge-list reader: a valid
// graph or an ErrInvalid-wrapping error, never a panic.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1 0.5\n1 2 0.25\n")
	f.Add("0 1\n")
	f.Add("# comment\n\n0 1 0.1\n")
	f.Add("0 0 0.1\n")
	f.Add("-1 2 0.1\n")
	f.Add("0 1 NaN\n")
	f.Add("0 1 +Inf\n")
	f.Add("0 1 1.0\n")
	f.Add("0 1 -0.0001\n")
	f.Add("0 999999999 0.1\n")
	f.Add("0 1 0.1\n1 0 0.2\n")
	f.Add("0 1 0.1 extra\n")
	f.Add("x y z\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		g, err := ReadEdgeList(strings.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("ReadEdgeList error %v does not wrap ErrInvalid", err)
			}
			return
		}
		if g.N() <= 0 || g.N() > MaxNodes {
			t.Fatalf("accepted graph has n = %d", g.N())
		}
	})
}
