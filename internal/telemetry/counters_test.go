package telemetry

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// fillSnapshot sets every int64 field of a CounterSnapshot to a distinct
// value derived from base, via reflection so a field added to the schema is
// covered automatically.
func fillSnapshot(base int64) CounterSnapshot {
	var s CounterSnapshot
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(base + int64(i))
	}
	return s
}

func TestSnapshotSubZeroPrev(t *testing.T) {
	s := fillSnapshot(100)
	if got := s.Sub(CounterSnapshot{}); got != s {
		t.Fatalf("Sub(zero) changed the snapshot:\n got %+v\nwant %+v", got, s)
	}
}

func TestSnapshotSubSelf(t *testing.T) {
	s := fillSnapshot(42)
	if got := s.Sub(s); got != (CounterSnapshot{}) {
		t.Fatalf("s.Sub(s) = %+v, want all zeros", got)
	}
}

func TestSnapshotSubCoversEveryField(t *testing.T) {
	// after − before must differ in every field when every counter moved;
	// a Sub implementation that forgets a field leaves it zero here.
	before := fillSnapshot(10)
	after := fillSnapshot(25) // every field advanced by exactly 15
	d := after.Sub(before)
	v := reflect.ValueOf(d)
	for i := 0; i < v.NumField(); i++ {
		if got := v.Field(i).Int(); got != 15 {
			t.Errorf("Sub dropped field %s: got %d, want 15",
				v.Type().Field(i).Name, got)
		}
	}
}

func TestSnapshotSubWraparound(t *testing.T) {
	// Counters are monotone in practice, but Sub must still be a plain
	// field-wise two's-complement difference — no clamping, no panic — so a
	// (pathological) int64 rollover yields the mathematically consistent
	// small positive delta.
	var before, after CounterSnapshot
	before.SigmaEvals = math.MaxInt64
	after.SigmaEvals = math.MinInt64 // MaxInt64 + 1 wrapped
	d := after.Sub(before)
	if d.SigmaEvals != 1 {
		t.Fatalf("wraparound delta = %d, want 1", d.SigmaEvals)
	}
	// And the inverse direction gives the negated delta.
	if got := before.Sub(after).SigmaEvals; got != -1 {
		t.Fatalf("reverse wraparound delta = %d, want -1", got)
	}
}

func TestBackendInvariantZeroesExactlyTheBackendFields(t *testing.T) {
	s := fillSnapshot(1000)
	inv := s.BackendInvariant()
	zeroed := map[string]bool{
		"DijkstraRuns":     true,
		"EdgeRelaxations":  true,
		"RowCacheHits":     true,
		"RowCacheMisses":   true,
		"RowCacheComputes": true,
	}
	sv, iv := reflect.ValueOf(s), reflect.ValueOf(inv)
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		got := iv.Field(i).Int()
		if zeroed[name] {
			if got != 0 {
				t.Errorf("BackendInvariant kept backend-dependent field %s = %d", name, got)
			}
		} else if got != sv.Field(i).Int() {
			t.Errorf("BackendInvariant changed solver field %s: %d -> %d",
				name, sv.Field(i).Int(), got)
		}
	}
}

func TestBackendInvariantZeroSnapshot(t *testing.T) {
	if got := (CounterSnapshot{}).BackendInvariant(); got != (CounterSnapshot{}) {
		t.Fatalf("zero.BackendInvariant() = %+v, want zero", got)
	}
}

func TestBackendInvariantIdempotent(t *testing.T) {
	s := fillSnapshot(7)
	once := s.BackendInvariant()
	if twice := once.BackendInvariant(); twice != once {
		t.Fatalf("BackendInvariant not idempotent:\n once %+v\ntwice %+v", once, twice)
	}
}

func TestSnapshotJSONFieldCountMatchesStruct(t *testing.T) {
	// The JSON round trip is load-bearing: the sweep aggregator and the obs
	// counter bridge both derive the metric namespace from it. Every struct
	// field must surface as exactly one distinct JSON key.
	body, err := json.Marshal(fillSnapshot(1))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var m map[string]int64
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	want := reflect.TypeOf(CounterSnapshot{}).NumField()
	if len(m) != want {
		t.Fatalf("snapshot JSON has %d keys, struct has %d fields", len(m), want)
	}
}
