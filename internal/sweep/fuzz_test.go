package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"msc/internal/telemetry"
)

// fixtureBytes loads a testdata file as a fuzz seed.
func fixtureBytes(f *testing.F, name string) []byte {
	f.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzAggregate drives the whole ingest path on hostile bytes: JSONL
// parsing/validation, run-record extraction, aggregation, and the
// canonical encode/decode round trip. Malformed and truncated streams
// must surface as typed errors, never as panics; streams that do parse
// must aggregate into a trajectory whose canonical encoding re-decodes.
func FuzzAggregate(f *testing.F) {
	f.Add(fixtureBytes(f, "place_greedy_k2_seed1.jsonl"), int64(1))
	f.Add(fixtureBytes(f, "bench_table1_seed1.jsonl"), int64(7))
	f.Add([]byte(`{"event":"run"}`), int64(0))
	f.Add([]byte("not json at all\n\n{"), int64(3))
	f.Add([]byte{}, int64(2))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		recs, err := telemetry.ReadRunRecords(bytes.NewReader(data))
		if err != nil {
			return // typed rejection is the contract for mangled streams
		}
		sc := Scenario{
			Kind: KindPlace, Family: "rgg", N: 40, M: 8, Pt: 0.12, K: 2,
			Solver: "greedy", DistBackend: "auto", Par: 1, Seed: seed,
		}
		results := make([]Result, 0, len(recs))
		for i, rec := range recs {
			s := sc
			s.Seed = seed + int64(i) // distinct seeds: duplicates are an Aggregate error by design
			results = append(results, Result{Scenario: s, Record: rec})
		}
		traj, err := Aggregate("fuzz", results)
		if err != nil {
			if _, ok := err.(*AggregateError); !ok {
				t.Fatalf("Aggregate returned untyped error %T: %v", err, err)
			}
			return
		}
		data1, err := traj.Encode()
		if err != nil {
			t.Fatalf("canonical encode failed on aggregated trajectory: %v", err)
		}
		back, err := DecodeTrajectory(data1)
		if err != nil {
			t.Fatalf("canonical encoding does not re-decode: %v\n%s", err, data1)
		}
		data2, err := back.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data1, data2) {
			t.Fatalf("encode → decode → encode unstable:\n%s\nvs\n%s", data1, data2)
		}
	})
}

// FuzzTrajectoryDiff throws hand-mangled trajectory documents at the
// decoder and the differ: any pair of inputs either fails decoding with
// a typed error or diffs without panicking, in both directions, and the
// report always formats.
func FuzzTrajectoryDiff(f *testing.F) {
	canonical := func() []byte {
		t := synthTrajectory(map[string]map[string]float64{
			"place/rgg/n40/m8/pt0.12/k2/greedy/auto/par1": {
				"wall_ms": 100, "sigma": 10, "counters.dijkstra_runs": 4000,
			},
		})
		data, err := t.Encode()
		if err != nil {
			f.Fatal(err)
		}
		return data
	}()
	f.Add(canonical, canonical)
	f.Add(canonical, bytes.Replace(canonical, []byte(`"median": 4000`), []byte(`"median": 6000`), 1))
	f.Add(canonical, bytes.Replace(canonical, []byte(`"schema_version": 1`), []byte(`"schema_version": 2`), 1))
	f.Add(canonical, canonical[:len(canonical)/2])
	f.Add([]byte(`{"schema_version":1,"scenarios":{"x":{"runs":1,"seeds":[1],"metrics":{"sigma":{"median":1e308,"iqr":0,"min":0,"max":1e308}}}}}`), canonical)
	f.Add([]byte{}, []byte("null"))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ta, errA := DecodeTrajectory(a)
		if errA != nil {
			if _, ok := errA.(*TrajectoryError); !ok {
				t.Fatalf("decode returned untyped error %T: %v", errA, errA)
			}
		}
		tb, errB := DecodeTrajectory(b)
		if errB != nil {
			if _, ok := errB.(*TrajectoryError); !ok {
				t.Fatalf("decode returned untyped error %T: %v", errB, errB)
			}
		}
		if errA != nil || errB != nil {
			return
		}
		for _, pair := range [][2]*Trajectory{{ta, tb}, {tb, ta}} {
			report, err := Diff(pair[0], pair[1], DefaultDiffOptions())
			if err != nil {
				if _, ok := err.(*TrajectoryError); !ok {
					t.Fatalf("Diff returned untyped error %T: %v", err, err)
				}
				continue
			}
			_ = report.Format()
			_ = report.Gate()
		}
	})
}
