package graphio

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"msc/internal/gen/rgg"
	"msc/internal/gen/social"
	"msc/internal/graph"
	"msc/internal/pairs"
	"msc/internal/xrand"
)

// semanticsSeeds are documents both readers accept, each exercising one
// encoding/json rule the streaming decoder reproduces.
var semanticsSeeds = []string{
	// Repeated scalar keys: the last wins.
	`{"nodes":5,"nodes":2,"edges":[{"u":0,"v":1,"p_fail":0.5}],"budget":3,"budget":1}`,
	// A repeated array merges into the slots the first one filled: the
	// second edges[0] keeps p_fail 0.5 and edges[1] keeps u and v.
	`{"nodes":3,"edges":[{"u":0,"v":1,"p_fail":0.5},{"u":1,"v":2,"p_fail":0.25}],"edges":[{"u":2,"v":0},{"p_fail":0.125}]}`,
	`{"nodes":2,"edges":[{"u":0,"v":1,"p_fail":0.5},{"u":0,"v":1}],"edges":[],"edges":[{"u":1,"v":0}]}`,
	`{"nodes":2,"coords":[[1,2],[3,4]],"coords":[[5,null],[6]],"edges":[]}`,
	`{"nodes":2,"labels":["a","b"],"labels":[null,"c"],"edges":[]}`,
	// null: numbers keep their value, slices are cleared.
	`{"nodes":3,"nodes":null,"edges":[{"u":0,"v":1,"p_fail":0.5},{"u":1,"v":2}],"edges":[{"p_fail":null},null],"failure_threshold":null}`,
	`{"nodes":2,"coords":[[0,0],[1,1]],"coords":null,"labels":null,"pairs":null,"edges":null}`,
	`{"nodes":3,"pairs":[[1,2]],"pairs":[[null,0]],"edges":[]}`,
	// Keys match fields case-insensitively, escaped or not; ſ folds to s.
	`{"NODES":2,"Edges":[{"U":0,"V":1,"P_FAIL":0.5}],"Failure_Threshold":0.25}`,
	`{"no\u0064e\u017f":2,"edges":[{"\u0075":0,"v":1}]}`,
	// Unknown keys are skipped, whatever their value.
	`{"nodes":2,"x":{"a":[1,-2.5e-3,{"b":null}],"c":"\u00e9\n"},"edges":[{"u":0,"v":1,"p_fail":0.5,"w":[true,false]}],"y":""}`,
	// Coordinate and pair arrays zero missing elements and skip extra ones.
	`{"nodes":2,"coords":[[1],[2,3,"z",{}]],"pairs":[[0,1,7]],"edges":[]}`,
	// Escapes, surrogates and invalid UTF-8 in labels, as encoding/json decodes them.
	"{\"nodes\":3,\"labels\":[\"a\\\"b\\\\c\\/\\t\",\"\\ud83d\\ude00\\ud800\",\"\xff\xfe caf\xc3\xa9\"],\"edges\":[]}",
	// Whitespace everywhere JSON allows it, and -0.
	" \t\r\n{ \"nodes\" : 2 , \"edges\" : [ { \"u\" : -0 , \"v\" : 1 , \"p_fail\" : 0E+0 } ] } \n",
	// The number kernel's limits. Integers at the edge of their width
	// decode, and a later key replaces them with a valid value.
	`{"nodes":2,"edges":[{"u":2147483647,"v":1,"p_fail":0.5}],"edges":[{"u":0}]}`,
	`{"nodes":2,"edges":[{"u":-2147483648,"v":1,"p_fail":0.5}],"edges":[{"u":0}]}`,
	`{"nodes":9223372036854775807,"nodes":2,"budget":-9223372036854775808,"budget":1,"edges":[]}`,
	`{"nodes":2,"edges":[{"u":-0,"v":1,"p_fail":-0}]}`,
	// Mantissas at 2⁵³ and just past it, and of 19 and 20 digits.
	`{"nodes":3,"coords":[[9007199254740992,9007199254740993],[-9007199254740992e-3,9007199254740993e-3],[0,0]],"edges":[{"u":0,"v":1,"p_fail":9007199254740992e-16},{"u":1,"v":2,"p_fail":9007199254740993e-16}]}`,
	`{"nodes":3,"coords":[[1234567890123456789,12345678901234567891],[0.1234567890123456789,0.12345678901234567891],[0,0]],"edges":[{"u":0,"v":1,"p_fail":0.1234567890123456789},{"u":1,"v":2,"p_fail":0.12345678901234567891}]}`,
	// Exponents at and past the exact range, and every exponent spelling.
	`{"nodes":2,"coords":[[1e22,1e23],[1e-22,1e-23]],"edges":[{"u":0,"v":1,"p_fail":0.5e-1}],"failure_threshold":1E-2}`,
	`{"nodes":2,"coords":[[1E+2,1e+22],[22e-1,0.000001e-16]],"edges":[{"u":0,"v":1,"p_fail":5E-1}],"failure_threshold":0.00000000000000000000000000001e28}`,
	// Record shapes the whole-record path must leave to the general one.
	`{"nodes":2,"edges":[{"v":1,"u":0,"p_fail":0.5}]}`,
	`{"nodes":2,"edges":[{"U":0,"v":1,"p_fail":0.5}]}`,
	`{"nodes":2,"edges":[{"u": 0,"v":1,"p_fail":0.5},{"u":1 ,"v":0,"p_fail":0.5}],"edges":[{"u":0,"v":1,"p_fail":0.5 }]}`,
	`{"nodes":2,"edges":[{"u":0,"v":1,"p_fail":0.5,"w":1},{"w":[],"u":1,"v":0,"p_fail":0.25}],"edges":[{"u":0,"v":1,"p_fail":null}]}`,
	// A repeated edges array over whole records: all three fields are replaced.
	`{"nodes":3,"edges":[{"u":0,"v":1,"p_fail":0.5},{"u":1,"v":2,"p_fail":0.25}],"edges":[{"u":2,"v":0,"p_fail":0.125},{"u":1,"v":2,"p_fail":0.0625}]}`,
	// An exponent past strconv's saturation point after 10⁴ leading zeros
	// of the fraction: strconv stops reading it at 10⁴, so encoding/json
	// gives 1 and 0.1 here, not 10⁹⁰⁰⁰⁰, and so must the kernel.
	`{"nodes":2,"coords":[[0.` + strings.Repeat("0", 9999) + `1e100000,0.` + strings.Repeat("0", 10000) + `1e100000],[0,0]],` +
		`"edges":[{"u":0,"v":1,"p_fail":0.` + strings.Repeat("0", 10000) + `1e100000}]}`,
}

// strictSeeds are documents the streaming decoder must reject although a
// lenient number parser or integer conversion would take them.
var strictSeeds = []string{
	`{"nodes":2,"edges":[{"u":0,"v":1,"p_fail":+0.5}]}`,
	`{"nodes":2,"edges":[{"u":0,"v":1,"p_fail":.5}]}`,
	`{"nodes":2,"edges":[{"u":0,"v":1,"p_fail":1.}]}`,
	`{"nodes":2,"edges":[{"u":0,"v":1,"p_fail":Inf}]}`,
	`{"nodes":2,"edges":[{"u":0,"v":1,"p_fail":NaN}]}`,
	`{"nodes":2,"edges":[{"u":0,"v":1,"p_fail":0x1p-3}]}`,
	`{"nodes":2,"edges":[{"u":0,"v":1,"p_fail":05}]}`,
	`{"nodes":2,"edges":[{"u":0,"v":1,"p_fail":0.5e}]}`,
	`{"nodes":2,"edges":[{"u":0,"v":1,"p_fail":1_0}]}`,
	`{"nodes":2,"edges":[{"u":0,"v":1,"p_fail":-}]}`,
	`{"nodes":2,"coords":[[1e400,0],[0,0]],"edges":[]}`,
	`{"nodes":2.0,"edges":[]}`,
	`{"nodes":2e0,"edges":[]}`,
	`{"nodes":99999999999999999999,"edges":[]}`,
	`{"nodes":2,"edges":[{"u":4294967296,"v":1}]}`,
	`{"nodes":2,"edges":[{"u":2147483648,"v":1}]}`,
	`{"nodes":2,"edges":[{"u":-2147483649,"v":1}]}`,
	// The same faults in the record shape WriteJSONStream writes.
	`{"nodes":2,"edges":[{"u":2147483648,"v":1,"p_fail":0.5}]}`,
	`{"nodes":2,"edges":[{"u":0,"v":01,"p_fail":0.5}]}`,
	`{"nodes":2,"edges":[{"u":0,"v":1.0,"p_fail":0.5}]}`,
	`{"nodes":2,"edges":[{"u":0,"v":1,"p_fail":1e400}]}`,
	`{"nodes":2,"edges":[{"u":0,"v":1,"p_fail":0.5e}]}`,
	`{"nodes":2,"edges":[{"u":0,"v":1,"p_fail":0.5-1}]}`,
	`{"nodes":2,"edges":[{"u":01,"v":1}]}`,
	`{"nodes":2,"edges":[{"u":0,"v":1,"p_fail":1e}]}`,
	`{"nodes":2,"edges":[{"u":0,"v":1,"p_fail":-}]`,
	`{"nodes":2,"edges":[{"u":0,"v":1,"p_fail":0.5`,
	`{"nodes":2,"edges":[{"u":0,"v":1,"p_fail":0.5}`,
	`{"nodes":9223372036854775808,"edges":[]}`,
	`{"nodes":2,"budget":-9223372036854775809,"edges":[]}`,
	`{"nodes":2,"budget":1e2,"edges":[]}`,
	`{"nodes":2,"edges":[{"u":"0","v":1}]}`,
	`{"nodes":2,"edges":[{"u":0,"v":1}],}`,
	`{"nodes":2,"edges":[{"u":0,"v":1},]}`,
	`{"nodes":2,"edges":[{"u":0,"v":1}]`,
	`{"nodes":2,"labels":["a","b` + "\n" + `"],"edges":[]}`,
	`{"nodes":2,"labels":["\x"],"edges":[]}`,
	`{"nodes":2,"edges":[{"u":0,"v":1}],"x":nul}`,
	// A malformed null must not fall through to the value after it.
	`{"nodes":nul2,"edges":[]}`,
	`{"nodes":2,"edges":n[]}`,
	`{"nodes":2,"edges":[n{"u":0,"v":1}]}`,
	`{"nodes":2,"coords":[n[0,0],[1,1]],"edges":[]}`,
	`{"nodes":2,"labels":[nu"a","b"],"edges":[]}`,
	`{"nodes":2,"edges":[{"u":0,"v":1,"p_fail":n0.5}]}`,
	`{"nodes":2,"edges":[{"u":0,"v":1}],"x":[` + strings.Repeat("[", 600) + strings.Repeat("]", 600) + `]}`,
	"\xef\xbb\xbf" + `{"nodes":2,"edges":[]}`,
	`[{"nodes":2,"edges":[]}]`,
	`null`,
}

// corpusDocuments writes small RGG and social instances — coordinates,
// labels with escapes, pairs, threshold and budget — through both writers.
func corpusDocuments(tb testing.TB) [][]byte {
	tb.Helper()
	rng := xrand.New(3)
	var graphs []*graph.Graph
	for _, n := range []int{2, 17, 60} {
		g, err := rgg.Generate(rgg.Config{N: n, Radius: 0.4, FailureAtRadius: 0.08}, rng)
		if err != nil {
			tb.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	net, err := social.Generate(social.ScaledConfig(40), rng)
	if err != nil {
		tb.Fatal(err)
	}
	graphs = append(graphs, net.Graph)
	// The same social network with labels that need escaping.
	labels := make([]string, net.Graph.N())
	for i := range labels {
		labels[i] = []string{"plain", `q"uote\`, "tab\tnew\nline", "<&>", "café ☕", "\u2028", ""}[i%7] + strconv.Itoa(i)
	}
	b := graph.NewBuilder(net.Graph.N()).SetCoords(net.Graph.Coords()).SetLabels(labels)
	for _, e := range net.Graph.Edges() {
		b.AddEdge(e.U, e.V, e.Length)
	}
	graphs = append(graphs, b.MustBuild())

	var docs [][]byte
	for i, g := range graphs {
		var ps *pairs.Set
		if g.N() > 2 {
			ps = pairs.MustNewSet(g.N(), []pairs.Pair{{U: 0, W: int32(g.N() - 1)}, {U: 1, W: 2}})
		}
		pt, k := 0.11*float64(i%2), i%3
		var a, s bytes.Buffer
		if err := WriteJSON(&a, FromGraph(g, ps, pt, k)); err != nil {
			tb.Fatal(err)
		}
		if err := WriteJSONStream(&s, g, ps, pt, k); err != nil {
			tb.Fatal(err)
		}
		docs = append(docs, a.Bytes(), s.Bytes())
	}
	return docs
}

// sameDocument reports whether two Documents are equal with every float
// compared by its bits, so that 0 and -0 differ.
func sameDocument(a, b Document) bool {
	if !reflect.DeepEqual(a, b) {
		return false
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range a.Coords {
		if !same(a.Coords[i][0], b.Coords[i][0]) || !same(a.Coords[i][1], b.Coords[i][1]) {
			return false
		}
	}
	for i := range a.Edges {
		if !same(a.Edges[i].Fail, b.Edges[i].Fail) {
			return false
		}
	}
	return same(a.FailureThreshold, b.FailureThreshold)
}

// TestReadJSONMatchesReflect: both readers accept every corpus document
// and every semantics seed, with equal Documents, also when the input
// arrives one byte per read so that every token straddles two windows.
func TestReadJSONMatchesReflect(t *testing.T) {
	docs := corpusDocuments(t)
	for _, s := range semanticsSeeds {
		docs = append(docs, []byte(s))
	}
	for i, data := range docs {
		want, err := readJSONReflect(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("doc %d: encoding/json: %v\n%s", i, err, data)
		}
		got, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("doc %d: ReadJSON: %v\n%s", i, err, data)
		}
		if !sameDocument(got, want) {
			t.Fatalf("doc %d differs:\ngot  %+v\nwant %+v", i, got, want)
		}
		got, err = ReadJSON(iotest.OneByteReader(bytes.NewReader(data)))
		if err != nil || !sameDocument(got, want) {
			t.Fatalf("doc %d one byte per read: err %v\ngot  %+v\nwant %+v", i, err, got, want)
		}
	}
}

// cycleReader returns data in reads of 1, 2, …, 127, 1, 2, … bytes, from
// a phase into that cycle, so that the decoder's windows end at every
// offset of a record.
type cycleReader struct {
	data  []byte
	phase int
}

func (r *cycleReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	r.phase = r.phase%127 + 1
	n := copy(p[:min(len(p), r.phase)], r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestReadJSONWindowBoundaries: the whole-record path and the number
// kernel give encoding/json's Document, bit for bit, wherever the window
// cuts the input. The bench instance and the corpus are read in both the
// WriteJSONStream and the indented WriteJSON form; the small documents
// are read from every phase of the read-size cycle.
func TestReadJSONWindowBoundaries(t *testing.T) {
	type input struct {
		data   []byte
		phases int
	}
	inputs := []input{{benchData(t, false), 1}, {benchData(t, true), 1}}
	for _, data := range corpusDocuments(t) {
		inputs = append(inputs, input{data, 127})
	}
	for _, s := range semanticsSeeds {
		inputs = append(inputs, input{[]byte(s), 127})
	}
	for i, in := range inputs {
		want, err := readJSONReflect(bytes.NewReader(in.data))
		if err != nil {
			t.Fatalf("input %d: encoding/json: %v", i, err)
		}
		for phase := 0; phase < in.phases; phase++ {
			got, err := ReadJSON(&cycleReader{in.data, phase})
			if err != nil {
				t.Fatalf("input %d, phase %d: %v", i, phase, err)
			}
			if !sameDocument(got, want) {
				t.Fatalf("input %d, phase %d: documents differ", i, phase)
			}
		}
	}
}

// TestReadJSONSemantics pins the values a few encoding/json rules give.
func TestReadJSONSemantics(t *testing.T) {
	cases := []struct {
		seed int
		want Document
	}{
		{0, Document{Nodes: 2, Edges: []EdgeRecord{{U: 0, V: 1, Fail: 0.5}}, Budget: 1}},
		{1, Document{Nodes: 3, Edges: []EdgeRecord{{U: 2, V: 0, Fail: 0.5}, {U: 1, V: 2, Fail: 0.125}}}},
		{3, Document{Nodes: 2, Coords: [][2]float64{{5, 2}, {6, 0}}, Edges: []EdgeRecord{}}},
		{5, Document{Nodes: 3, Edges: []EdgeRecord{{U: 0, V: 1, Fail: 0.5}, {U: 1, V: 2}}}},
		{11, Document{Nodes: 2, Coords: [][2]float64{{1, 0}, {2, 3}}, Pairs: [][2]int32{{0, 1}}, Edges: []EdgeRecord{}}},
	}
	for _, tc := range cases {
		got, err := newDecoder(strings.NewReader(semanticsSeeds[tc.seed])).document()
		if err != nil {
			t.Fatalf("seed %d: %v", tc.seed, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("seed %d:\ngot  %+v\nwant %+v", tc.seed, got, tc.want)
		}
	}
}

func TestReadJSONStrict(t *testing.T) {
	for i, s := range strictSeeds {
		_, err := ReadJSON(strings.NewReader(s))
		var verr *ValidationError
		if !errors.As(err, &verr) || !errors.Is(err, ErrInvalid) {
			t.Errorf("seed %d: err = %v, want a *ValidationError for %q", i, err, s)
		}
	}
}

// TestReadersRejectTrailingData: anything but whitespace after the
// document is an error, in both JSON readers.
func TestReadersRejectTrailingData(t *testing.T) {
	cases := []struct {
		name string
		read func(string) error
		doc  string
	}{
		{"instance", func(s string) error { _, err := ReadJSON(strings.NewReader(s)); return err },
			`{"nodes":2,"edges":[{"u":0,"v":1,"p_fail":0.1}]}`},
		{"cost table", func(s string) error { _, err := ReadCostTable(strings.NewReader(s)); return err },
			`{"default":2,"costs":[{"u":0,"v":1,"cost":1.5}]}`},
	}
	for _, tc := range cases {
		for _, tail := range []string{"", "\n", " \t\r\n "} {
			if err := tc.read(tc.doc + tail); err != nil {
				t.Errorf("%s with tail %q: %v", tc.name, tail, err)
			}
		}
		for _, tail := range []string{" trailing garbage {", "{}", "0", "\n,", `"x"`, "\x00"} {
			err := tc.read(tc.doc + tail)
			var verr *ValidationError
			if !errors.As(err, &verr) || verr.Field != "document" || !errors.Is(err, ErrInvalid) {
				t.Errorf("%s with tail %q: err = %v, want a document *ValidationError", tc.name, tail, err)
			}
		}
	}
}

// TestReadJSONReadError: a failing reader surfaces as a typed error
// carrying the read error, whether it fails at once or mid-document.
func TestReadJSONReadError(t *testing.T) {
	data := `{"nodes":2,"edges":[{"u":0,"v":1,"p_fail":0.1}]}`
	for _, cut := range []int{0, 20, len(data)} {
		r := io.MultiReader(strings.NewReader(data[:cut]), iotest.ErrReader(errors.New("disk on fire")))
		_, err := ReadJSON(r)
		if !errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), "disk on fire") {
			t.Errorf("cut at %d: err = %v, want the read error wrapped as invalid input", cut, err)
		}
	}
}

// TestValidateErrorParity: on documents with several faults, the
// sort-based Validate, Graph and ReadJSON all report the error the
// map-based reference reports — the first offending element in document
// order.
func TestValidateErrorParity(t *testing.T) {
	edges := func(es ...EdgeRecord) []EdgeRecord { return es }
	hugeCoords := make([][2]float64, 1000)
	cases := []struct {
		name  string
		doc   Document
		field string
	}{
		{"dup before bad p_fail", Document{Nodes: 4, Edges: edges(
			EdgeRecord{0, 1, 0.1}, EdgeRecord{2, 3, 0.1}, EdgeRecord{1, 0, 0.2}, EdgeRecord{1, 2, 1.5})}, "edges[2]"},
		{"bad p_fail before dup", Document{Nodes: 4, Edges: edges(
			EdgeRecord{0, 1, 0.1}, EdgeRecord{1, 2, 1.5}, EdgeRecord{1, 0, 0.2})}, "edges[1].p_fail"},
		{"bad range before dup", Document{Nodes: 4, Edges: edges(
			EdgeRecord{0, 1, 0.1}, EdgeRecord{0, 9, 0.1}, EdgeRecord{0, 1, 0.1})}, "edges[1]"},
		{"first of two dups", Document{Nodes: 5, Edges: edges(
			EdgeRecord{3, 4, 0.1}, EdgeRecord{0, 1, 0.1}, EdgeRecord{1, 0, 0.1}, EdgeRecord{4, 3, 0.1})}, "edges[2]"},
		{"triple", Document{Nodes: 3, Edges: edges(
			EdgeRecord{0, 1, 0.1}, EdgeRecord{1, 2, 0.1}, EdgeRecord{1, 0, 0.1}, EdgeRecord{0, 1, 0.1})}, "edges[2]"},
		{"dup edge before bad pair", Document{Nodes: 3, Edges: edges(
			EdgeRecord{0, 1, 0.1}, EdgeRecord{1, 0, 0.1}), Pairs: [][2]int32{{0, 0}}}, "edges[1]"},
		{"bad pair before bad threshold", Document{Nodes: 3, Pairs: [][2]int32{{0, 1}, {2, 2}},
			FailureThreshold: 2}, "pairs[1]"},
		{"dup pair before bad pair", Document{Nodes: 3, Pairs: [][2]int32{{0, 1}, {1, 0}, {0, 7}}}, "pairs[1]"},
		{"bad pair before dup pair", Document{Nodes: 3, Pairs: [][2]int32{{0, 1}, {2, 2}, {1, 0}}}, "pairs[1]"},
		{"bad threshold before budget", Document{Nodes: 3, FailureThreshold: -1, Budget: -1}, "failure_threshold"},
		{"nodes over cap after coords", Document{Nodes: MaxNodes + 1, Coords: hugeCoords}, "nodes"},
		{"coords before edges", Document{Nodes: 2, Coords: [][2]float64{{0, 0}}, Edges: edges(EdgeRecord{0, 0, 2})}, "coords"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := validateReference(tc.doc)
			var verr *ValidationError
			if !errors.As(want, &verr) || verr.Field != tc.field {
				t.Fatalf("reference: %v, want field %q", want, tc.field)
			}
			if got := tc.doc.Validate(); got == nil || got.Error() != want.Error() {
				t.Errorf("Validate: %v, want %v", got, want)
			}
			if _, got := tc.doc.Graph(); got == nil || got.Error() != want.Error() {
				t.Errorf("Graph: %v, want %v", got, want)
			}
			var buf bytes.Buffer
			if err := WriteJSON(&buf, tc.doc); err != nil {
				t.Fatal(err)
			}
			if _, got := ReadJSON(&buf); got == nil || got.Error() != want.Error() {
				t.Errorf("ReadJSON: %v, want %v", got, want)
			}
		})
	}
}

// TestValidateParityRandom: on random small documents with random faults
// the sort-based checks report exactly the reference error.
func TestValidateParityRandom(t *testing.T) {
	rng := xrand.New(11)
	for trial := 0; trial < 3000; trial++ {
		n := 2 + rng.Intn(5)
		id := func() int32 { return int32(rng.Intn(n+1)) - int32(rng.Intn(2)) } // -1..n
		doc := Document{Nodes: n}
		for i := rng.Intn(8); i > 0; i-- {
			doc.Edges = append(doc.Edges, EdgeRecord{U: id(), V: id(), Fail: []float64{0, 0.5, 1, -0.1}[rng.Intn(4)]})
		}
		for i := rng.Intn(5); i > 0; i-- {
			doc.Pairs = append(doc.Pairs, [2]int32{id(), id()})
		}
		if rng.Intn(4) == 0 {
			doc.FailureThreshold = 1.5
		}
		want := validateReference(doc)
		if got := doc.Validate(); errString(got) != errString(want) {
			t.Fatalf("trial %d, %+v:\nValidate  %v\nreference %v", trial, doc, got, want)
		}
		if _, got := doc.Graph(); errString(got) != errString(want) {
			t.Fatalf("trial %d, %+v:\nGraph     %v\nreference %v", trial, doc, got, want)
		}
	}
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestReadJSONHostileNodeCount: a node count over the cap that follows a
// large coords array is reported as the node count, and nothing sized by
// it is allocated on the way.
func TestReadJSONHostileNodeCount(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`{"coords":[`)
	for i := 0; i < 1000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString("[0.5,0.5]")
	}
	sb.WriteString(`],"labels":[],"edges":[],"nodes":` + strconv.Itoa(MaxNodes+1) + `}`)
	data := sb.String()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadJSON(strings.NewReader(data))
	runtime.ReadMemStats(&after)
	var verr *ValidationError
	if !errors.As(err, &verr) || verr.Field != "nodes" {
		t.Fatalf("err = %v, want a nodes *ValidationError", err)
	}
	// A node-sized coords or labels array would be ≥ 16·MaxNodes bytes.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("decoding allocated %d bytes for a %d-byte document", alloc, len(data))
	}
}
