package graphio

import (
	"bytes"
	"errors"
	"testing"
)

// documentSeeds are hostile and borderline documents: the seed corpus of
// FuzzReadDocument and part of FuzzReadDocumentDiff's.
var documentSeeds = []string{
	`{"nodes":3,"edges":[{"u":0,"v":1,"p_fail":0.1}],"pairs":[[0,2]],"failure_threshold":0.2,"budget":1}`,
	`{"nodes":0}`,
	`{"nodes":-5,"edges":[]}`,
	`{"nodes":2147483647}`,
	`{"nodes":2,"edges":[{"u":0,"v":0,"p_fail":0}]}`,
	`{"nodes":2,"edges":[{"u":0,"v":1,"p_fail":1.0}]}`,
	`{"nodes":2,"edges":[{"u":0,"v":1,"p_fail":-0.5}]}`,
	`{"nodes":2,"edges":[{"u":0,"v":1,"p_fail":0.1},{"u":1,"v":0,"p_fail":0.2}]}`,
	`{"nodes":2,"edges":[{"u":0,"v":5,"p_fail":0.1}]}`,
	`{"nodes":3,"coords":[[0,0]],"edges":[]}`,
	`{"nodes":2,"labels":["a"],"edges":[]}`,
	`{"nodes":2,"edges":[],"pairs":[[0,0]]}`,
	`{"nodes":2,"edges":[],"pairs":[[0,1],[1,0]]}`,
	`{"nodes":2,"edges":[],"failure_threshold":1.5}`,
	`{"nodes":2,"edges":[],"budget":-3}`,
	`{"nodes":2,"coords":[[1e999,0],[0,0]],"edges":[]}`,
	`not json at all`,
	``,
	`{}`,
}

// FuzzReadDocument feeds arbitrary bytes to the JSON reader. The
// contract under hostile input is sharp: either a Document whose
// invariants all hold (it re-validates and builds a graph), or an error
// wrapping ErrInvalid — never a panic, never a silently malformed
// document.
func FuzzReadDocument(f *testing.F) {
	for _, s := range documentSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("ReadJSON error %v does not wrap ErrInvalid", err)
			}
			return
		}
		// An accepted document must satisfy its own invariants and build.
		if verr := doc.Validate(); verr != nil {
			t.Fatalf("accepted document fails Validate: %v", verr)
		}
		if _, gerr := doc.Graph(); gerr != nil {
			t.Fatalf("validated document fails Graph: %v", gerr)
		}
		if _, perr := doc.PairSet(); perr != nil {
			t.Fatalf("validated document fails PairSet: %v", perr)
		}
	})
}

// FuzzReadDocumentDiff holds the streaming decoder to encoding/json: on
// arbitrary bytes it never panics, every error wraps ErrInvalid, and
// whatever it accepts, the encoding/json oracle accepts as the same
// Document.
func FuzzReadDocumentDiff(f *testing.F) {
	for _, s := range documentSeeds {
		f.Add([]byte(s))
	}
	for _, s := range semanticsSeeds {
		f.Add([]byte(s))
	}
	for _, s := range strictSeeds {
		f.Add([]byte(s))
	}
	for _, data := range corpusDocuments(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("ReadJSON error %v does not wrap ErrInvalid", err)
			}
			return
		}
		want, err := readJSONReflect(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("ReadJSON accepted what encoding/json rejects (%v):\n%q", err, data)
		}
		if !sameDocument(got, want) {
			t.Fatalf("documents differ on %q:\nReadJSON      %+v\nencoding/json %+v", data, got, want)
		}
	})
}

// FuzzReadCostTable feeds arbitrary bytes to the cost-table reader: a
// table whose invariants all hold (it re-validates and prices lookups with
// positive values), or an error wrapping ErrInvalid — never a panic.
func FuzzReadCostTable(f *testing.F) {
	f.Add([]byte(`{"default":2.5,"costs":[{"u":0,"v":1,"cost":1.5},{"u":2,"v":3,"cost":0.25}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"default":0}`))
	f.Add([]byte(`{"default":-1}`))
	f.Add([]byte(`{"costs":[{"u":0,"v":0,"cost":1}]}`))
	f.Add([]byte(`{"costs":[{"u":-1,"v":2,"cost":1}]}`))
	f.Add([]byte(`{"costs":[{"u":0,"v":1,"cost":0}]}`))
	f.Add([]byte(`{"costs":[{"u":0,"v":1,"cost":-3}]}`))
	f.Add([]byte(`{"costs":[{"u":0,"v":1,"cost":1},{"u":1,"v":0,"cost":2}]}`))
	f.Add([]byte(`{"costs":[{"u":0,"v":999999999,"cost":1}]}`))
	f.Add([]byte(`{"default":1e308,"costs":[]}`))
	f.Add([]byte(`{"unknown_field":1}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		ct, err := ReadCostTable(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("ReadCostTable error %v does not wrap ErrInvalid", err)
			}
			return
		}
		if verr := ct.Validate(); verr != nil {
			t.Fatalf("accepted cost table fails Validate: %v", verr)
		}
		// Every lookup must price positive: listed pairs by their record,
		// unlisted pairs by the default (or unit).
		for _, rec := range ct.Costs {
			if c := ct.Cost(rec.U, rec.V); c != rec.Cost {
				t.Fatalf("Cost(%d,%d) = %v, want listed %v", rec.U, rec.V, c, rec.Cost)
			}
			if c := ct.Cost(rec.V, rec.U); c != rec.Cost {
				t.Fatalf("Cost(%d,%d) = %v, want listed %v (order-independent)", rec.V, rec.U, c, rec.Cost)
			}
		}
		if c := ct.Cost(0, 1<<30); c <= 0 {
			t.Fatalf("unlisted pair priced %v, want positive", c)
		}
	})
}
