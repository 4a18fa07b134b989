package graphio

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"msc/internal/failprob"
	"msc/internal/geom"
	"msc/internal/graph"
	"msc/internal/pairs"
)

func sampleGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.NewBuilder(4).
		SetCoords([]geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1}}).
		SetLabels([]string{"a", "b", "c", "d"}).
		AddEdge(0, 1, failprob.LengthFromProb(0.1)).
		AddEdge(1, 2, failprob.LengthFromProb(0.2)).
		AddEdge(2, 3, failprob.LengthFromProb(0.3)).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestJSONRoundTrip(t *testing.T) {
	g := sampleGraph(t)
	ps := pairs.MustNewSet(4, []pairs.Pair{{U: 0, W: 3}, {U: 1, W: 3}})
	doc := FromGraph(g, ps, 0.25, 2)

	var buf bytes.Buffer
	if err := WriteJSON(&buf, doc); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Nodes != 4 || back.FailureThreshold != 0.25 || back.Budget != 2 {
		t.Fatalf("metadata lost: %+v", back)
	}
	g2, err := back.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("graph shape changed: n=%d m=%d", g2.N(), g2.M())
	}
	for _, e := range g.Edges() {
		l2, ok := g2.EdgeLength(e.U, e.V)
		if !ok || math.Abs(l2-e.Length) > 1e-12 {
			t.Fatalf("edge (%d,%d) length %v -> %v", e.U, e.V, e.Length, l2)
		}
	}
	if g2.Label(0) != "a" {
		t.Fatal("labels lost")
	}
	if g2.Coords()[3] != (geom.Point{X: 1, Y: 1}) {
		t.Fatal("coords lost")
	}
	ps2, err := back.PairSet()
	if err != nil {
		t.Fatal(err)
	}
	if ps2.Len() != 2 {
		t.Fatalf("pairs lost: %d", ps2.Len())
	}
}

func TestPairSetNilWhenAbsent(t *testing.T) {
	doc := FromGraph(sampleGraph(t), nil, 0, 0)
	ps, err := doc.PairSet()
	if err != nil || ps != nil {
		t.Fatalf("PairSet = %v, %v; want nil, nil", ps, err)
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Fatal("expected decode error")
	}
	if _, err := ReadJSON(strings.NewReader(`{"edges":[]}`)); err == nil {
		t.Fatal("expected missing-node-count error")
	}
}

func TestDocumentGraphRejectsBadFailure(t *testing.T) {
	doc := Document{Nodes: 2, Edges: []EdgeRecord{{U: 0, V: 1, Fail: 1.0}}}
	if _, err := doc.Graph(); err == nil {
		t.Fatal("expected error for p_fail = 1")
	}
	doc = Document{Nodes: 2, Coords: [][2]float64{{0, 0}}}
	if _, err := doc.Graph(); err == nil {
		t.Fatal("expected coord-count error")
	}
}

func TestValidateTypedErrors(t *testing.T) {
	cases := []struct {
		name  string
		doc   Document
		field string
	}{
		{"no nodes", Document{}, "nodes"},
		{"negative nodes", Document{Nodes: -1}, "nodes"},
		{"over cap", Document{Nodes: MaxNodes + 1}, "nodes"},
		{"coord count", Document{Nodes: 2, Coords: [][2]float64{{0, 0}}}, "coords"},
		{"coord NaN", Document{Nodes: 1, Coords: [][2]float64{{math.NaN(), 0}}}, "coords[0]"},
		{"label count", Document{Nodes: 2, Labels: []string{"a"}}, "labels"},
		{"edge range", Document{Nodes: 2, Edges: []EdgeRecord{{U: 0, V: 7}}}, "edges[0]"},
		{"self loop", Document{Nodes: 2, Edges: []EdgeRecord{{U: 1, V: 1}}}, "edges[0]"},
		{"p_fail NaN", Document{Nodes: 2, Edges: []EdgeRecord{{U: 0, V: 1, Fail: math.NaN()}}}, "edges[0].p_fail"},
		{"p_fail one", Document{Nodes: 2, Edges: []EdgeRecord{{U: 0, V: 1, Fail: 1}}}, "edges[0].p_fail"},
		{"dup edge", Document{Nodes: 2, Edges: []EdgeRecord{{U: 0, V: 1, Fail: 0.1}, {U: 1, V: 0, Fail: 0.2}}}, "edges[1]"},
		{"pair range", Document{Nodes: 2, Pairs: [][2]int32{{0, 9}}}, "pairs[0]"},
		{"pair self", Document{Nodes: 2, Pairs: [][2]int32{{1, 1}}}, "pairs[0]"},
		{"dup pair", Document{Nodes: 2, Pairs: [][2]int32{{0, 1}, {1, 0}}}, "pairs[1]"},
		{"threshold NaN", Document{Nodes: 1, FailureThreshold: math.NaN()}, "failure_threshold"},
		{"threshold one", Document{Nodes: 1, FailureThreshold: 1}, "failure_threshold"},
		{"negative budget", Document{Nodes: 1, Budget: -2}, "budget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.doc.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", tc.doc)
			}
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("error %v does not wrap ErrInvalid", err)
			}
			var verr *ValidationError
			if !errors.As(err, &verr) {
				t.Fatalf("error %v is not a *ValidationError", err)
			}
			if verr.Field != tc.field {
				t.Fatalf("Field = %q, want %q (err: %v)", verr.Field, tc.field, err)
			}
		})
	}
}

// TestReadJSONGraphMatchesTwoStep holds the single-validation loader to
// the two-step ReadJSON + Document.Graph path: the same document and
// graph on valid input, and the same *ValidationError on malformed
// documents, malformed JSON and trailing data.
func TestReadJSONGraphMatchesTwoStep(t *testing.T) {
	var valid bytes.Buffer
	ps := pairs.MustNewSet(4, []pairs.Pair{{U: 0, W: 3}, {U: 1, W: 3}})
	if err := WriteJSON(&valid, FromGraph(sampleGraph(t), ps, 0.25, 2)); err != nil {
		t.Fatal(err)
	}
	inputs := []string{
		valid.String(),
		`{"nodes":2,"edges":[{"u":0,"v":1,"p_fail":1}]}`,
		`{"nodes":3,"edges":[{"u":0,"v":1,"p_fail":0.1},{"u":1,"v":0,"p_fail":0.1}]}`,
		`{"nodes":3,"pairs":[[0,1],[2,2]]}`,
		`{"nodes":2,"coords":[[0,0]]}`,
		`{"nodes":0}`,
		`{"nodes":2} trailing`,
		`not json`,
	}
	for _, in := range inputs {
		doc, g, err := ReadJSONGraph(strings.NewReader(in))
		wantDoc, wantErr := ReadJSON(strings.NewReader(in))
		if wantErr != nil {
			var verr *ValidationError
			if err == nil || err.Error() != wantErr.Error() || !errors.As(err, &verr) {
				t.Errorf("%q: ReadJSONGraph error %v, want ReadJSON's %v as a *ValidationError", in, err, wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		wantG, gerr := wantDoc.Graph()
		if gerr != nil {
			t.Fatal(gerr)
		}
		if doc.Nodes != wantDoc.Nodes || len(doc.Edges) != len(wantDoc.Edges) || len(doc.Pairs) != len(wantDoc.Pairs) {
			t.Fatalf("%q: document differs from ReadJSON's", in)
		}
		we := wantG.Edges()
		for i, e := range g.Edges() {
			if e != we[i] {
				t.Fatalf("%q: edge %d = %+v, want %+v", in, i, e, we[i])
			}
		}
	}
}
