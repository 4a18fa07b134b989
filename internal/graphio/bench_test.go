package graphio_test

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"msc/internal/gen/rgg"
	"msc/internal/graphio"
	"msc/internal/pairs"
	"msc/internal/xrand"
)

// benchNodes is the node count of the scale-greedy benchmark workload.
const benchNodes = 20000

// benchDocument is an n = 2·10⁴ RGG instance as mscgen would write it
// (auto radius, coordinates, 128 pairs, threshold and budget), streamed
// into memory once and shared by the decode benchmarks.
var benchDocument = sync.OnceValues(func() ([]byte, error) {
	rng := xrand.New(1)
	g, err := rgg.Generate(rgg.Config{
		N:                benchNodes,
		Radius:           1.6 * math.Sqrt(math.Log(benchNodes)/(math.Pi*benchNodes)),
		FailureAtRadius:  0.08,
		RequireConnected: true,
	}, rng)
	if err != nil {
		return nil, err
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
		return nil, err
	}
	var buf bytes.Buffer
	if err := graphio.WriteJSONStream(&buf, g, set, 0.11, 8); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
})

func benchData(b *testing.B) []byte {
	b.Helper()
	data, err := benchDocument()
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// BenchmarkReadJSON measures decoding and validating one instance
// document: the graphio.read phase of a CLI run.
func BenchmarkReadJSON(b *testing.B) {
	data := benchData(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graphio.ReadJSON(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDocumentGraph measures turning a decoded document into a
// graph: the graphio.graph phase of a CLI run.
func BenchmarkDocumentGraph(b *testing.B) {
	doc, err := graphio.ReadJSON(bytes.NewReader(benchData(b)))
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
