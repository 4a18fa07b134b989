package graphio

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"msc/internal/gen/rgg"
	"msc/internal/pairs"
	"msc/internal/xrand"
)

// benchNodes is the node count of the scale-greedy benchmark workload.
const benchNodes = 20000

// benchDocuments are an n = 2·10⁴ RGG instance as mscgen would write it
// (auto radius, coordinates, 128 pairs, threshold and budget), written
// into memory once by WriteJSONStream and once by the indented WriteJSON,
// and shared by the decode benchmarks and tests.
var benchDocuments = sync.OnceValues(func() (docs struct{ stream, indented []byte }, err error) {
	rng := xrand.New(1)
	g, err := rgg.Generate(rgg.Config{
		N:                benchNodes,
		Radius:           1.6 * math.Sqrt(math.Log(benchNodes)/(math.Pi*benchNodes)),
		FailureAtRadius:  0.08,
		RequireConnected: true,
	}, rng)
	if err != nil {
		return docs, err
	}
	ps := make([]pairs.Pair, 0, 128)
	for len(ps) < cap(ps) {
		u, w := int32(rng.Intn(benchNodes)), int32(rng.Intn(benchNodes))
		if u != w {
			ps = append(ps, pairs.Pair{U: u, W: w})
		}
	}
	set, err := pairs.NewSet(benchNodes, ps)
	if err != nil {
		return docs, err
	}
	var stream, indented bytes.Buffer
	if err := WriteJSONStream(&stream, g, set, 0.11, 8); err != nil {
		return docs, err
	}
	if err := WriteJSON(&indented, FromGraph(g, set, 0.11, 8)); err != nil {
		return docs, err
	}
	docs.stream, docs.indented = stream.Bytes(), indented.Bytes()
	return docs, nil
})

// benchData returns the WriteJSONStream form of the bench instance, or
// the indented WriteJSON form.
func benchData(tb testing.TB, indented bool) []byte {
	tb.Helper()
	docs, err := benchDocuments()
	if err != nil {
		tb.Fatal(err)
	}
	if indented {
		return docs.indented
	}
	return docs.stream
}

func benchmarkReadJSON(b *testing.B, data []byte) {
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadJSON(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadJSON measures decoding and validating one instance
// document: the graphio.read phase of a CLI run.
func BenchmarkReadJSON(b *testing.B) { benchmarkReadJSON(b, benchData(b, false)) }

// BenchmarkReadJSONIndented decodes the same instance as WriteJSON writes
// it: its `"u": 0` spacing keeps every edge off the whole-record path, so
// this measures the general path alone.
func BenchmarkReadJSONIndented(b *testing.B) { benchmarkReadJSON(b, benchData(b, true)) }

// BenchmarkDocumentGraph measures turning a decoded document into a
// graph: the graphio.graph phase of a CLI run.
func BenchmarkDocumentGraph(b *testing.B) {
	doc, err := ReadJSON(bytes.NewReader(benchData(b, false)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := doc.Graph(); err != nil {
			b.Fatal(err)
		}
	}
}
