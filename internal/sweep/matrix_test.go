package sweep

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestQuickMatrixExpands(t *testing.T) {
	scs, err := QuickMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	// 2 k × 2 solvers × 1 backend × 2 survive × 2 budgets × 3 seeds place
	// runs + 1 experiment × 1 backend × 3 seeds.
	if len(scs) != 51 {
		t.Fatalf("quick matrix expands to %d runs, want 51", len(scs))
	}
	keys := make(map[string]int)
	for _, sc := range scs {
		keys[sc.Key()]++
	}
	if len(keys) != 17 {
		t.Fatalf("quick matrix has %d scenario keys, want 17: %v", len(keys), keys)
	}
	for key, n := range keys {
		if n != 3 {
			t.Errorf("key %s has %d runs, want 3 (one per seed)", key, n)
		}
	}
	// The fault-free half keeps the historical key shape; the survivable
	// half gets its own segment.
	if _, ok := keys["place/rgg/n40/m8/pt0.12/k2/greedy/auto/par1"]; !ok {
		t.Errorf("expected canonical place key missing: %v", keys)
	}
	if _, ok := keys["place/rgg/n40/m8/pt0.12/k2/greedy/auto/par1/sv-shortcut"]; !ok {
		t.Errorf("expected survivable place key missing: %v", keys)
	}
	if _, ok := keys["place/rgg/n40/m8/pt0.12/k2/greedy/auto/par1/b-2"]; !ok {
		t.Errorf("expected budgeted place key missing: %v", keys)
	}
	if _, ok := keys["place/rgg/n40/m8/pt0.12/k2/greedy/auto/par1/sv-shortcut/b-2"]; !ok {
		t.Errorf("expected survivable budgeted place key missing: %v", keys)
	}
	if _, ok := keys["bench/table1/quick/auto/par1"]; !ok {
		t.Errorf("expected canonical bench key missing: %v", keys)
	}
	// auto and bounded name the same table, so the backend axis carries
	// auto alone.
	for key := range keys {
		if strings.Contains(key, "/bounded/") {
			t.Errorf("quick matrix carries a duplicate bounded key %s", key)
		}
	}
}

func TestExpandDeterministicOrder(t *testing.T) {
	m := QuickMatrix()
	a, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("expansion order not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestScenarioKeyExcludesSeed(t *testing.T) {
	m := QuickMatrix()
	scs, _ := m.Expand()
	if scs[0].Seed == scs[1].Seed {
		t.Fatal("first two scenarios should differ in seed (seed is the innermost axis)")
	}
	if scs[0].Key() != scs[1].Key() {
		t.Fatalf("seed leaked into the key: %s vs %s", scs[0].Key(), scs[1].Key())
	}
}

func TestInstanceKeySharedAcrossSolvers(t *testing.T) {
	a := Scenario{Kind: KindPlace, Family: "rgg", N: 40, M: 8, Pt: 0.12, K: 2, Solver: "greedy", Seed: 1}
	b := a
	b.Solver = "sandwich"
	b.DistBackend = "bounded"
	b.Par = 8
	if a.InstanceKey() != b.InstanceKey() {
		t.Fatalf("solver/backend/par must not split the instance cache: %s vs %s", a.InstanceKey(), b.InstanceKey())
	}
	c := a
	c.Seed = 2
	if a.InstanceKey() == c.InstanceKey() {
		t.Fatal("different seeds must generate different instances")
	}
}

func TestMatrixValidation(t *testing.T) {
	base := QuickMatrix()
	cases := []struct {
		name   string
		mutate func(*Matrix)
		axis   string // expected MatrixError.Axis; "" = valid
		extra  string // JSON members spliced into the encoded matrix
	}{
		{"quick matrix valid", func(m *Matrix) {}, "", ""},
		{"bench-only valid", func(m *Matrix) {
			m.Solvers = nil
			m.Families = nil
			m.N = nil
			m.M = nil
			m.Pt = nil
			m.K = nil
		}, "", ""},
		{"empty sweep", func(m *Matrix) { m.Solvers = nil; m.Experiments = nil }, "solvers", ""},
		{"no seeds", func(m *Matrix) { m.Seeds = nil }, "seeds", ""},
		{"repeated seed", func(m *Matrix) { m.Seeds = []int64{1, 2, 1} }, "seeds", ""},
		{"unknown family", func(m *Matrix) { m.Families = []string{"torus"} }, "families", ""},
		{"unknown solver", func(m *Matrix) { m.Solvers = []string{"magic"} }, "solvers", ""},
		{"unknown backend", func(m *Matrix) { m.DistBackends = []string{"quantum"} }, "dist_backends", ""},
		{"lazy backend retired", func(m *Matrix) { m.DistBackends = []string{"auto", "lazy"} }, "dist_backends", ""},
		{"negative par", func(m *Matrix) { m.Parallelism = []int{-1} }, "parallelism", ""},
		{"zero n", func(m *Matrix) { m.N = []int{0} }, "n", ""},
		{"negative k", func(m *Matrix) { m.K = []int{-2} }, "k", ""},
		{"empty m axis", func(m *Matrix) { m.M = nil }, "m", ""},
		{"threshold out of range", func(m *Matrix) { m.Pt = []float64{1.5} }, "p_t", ""},
		{"empty experiment id", func(m *Matrix) { m.Experiments = []string{" "} }, "experiments", ""},
		{"eval_modes present", func(m *Matrix) {}, "eval_modes", `"eval_modes": ["auto"]`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := base
			tc.mutate(&m)
			spec, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			if tc.extra != "" {
				spec = append([]byte("{"+tc.extra+","), spec[1:]...)
			}
			_, err = ReadMatrix(bytes.NewReader(spec))
			if tc.axis == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			me, ok := err.(*MatrixError)
			if !ok {
				t.Fatalf("got %v (%T), want *MatrixError", err, err)
			}
			if me.Axis != tc.axis {
				t.Fatalf("flagged axis %q, want %q (%v)", me.Axis, tc.axis, err)
			}
		})
	}
}

func TestReadMatrixRejectsUnknownField(t *testing.T) {
	// "solver" (singular) is the typo this guard exists for: without
	// DisallowUnknownFields it would silently produce an empty sweep.
	_, err := ReadMatrix(strings.NewReader(`{"solver": ["greedy"], "seeds": [1]}`))
	if err == nil || !strings.Contains(err.Error(), "solver") {
		t.Fatalf("typo'd axis not rejected: %v", err)
	}
	m, err := ReadMatrix(strings.NewReader(`{
		"families": ["rgg"], "n": [40], "m": [8], "p_t": [0.12], "k": [2],
		"solvers": ["greedy"], "seeds": [1, 2]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	scs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) != 2 {
		t.Fatalf("expanded %d scenarios, want 2", len(scs))
	}
	if scs[0].DistBackend != "auto" {
		t.Fatalf("backend default not applied: %+v", scs[0])
	}
}

func TestSocialFamilyCollapsesN(t *testing.T) {
	m := QuickMatrix()
	m.Families = []string{"social"}
	m.N = []int{40, 80}
	m.Experiments = nil
	scs, err := m.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// The social generator is fixed-size: the n axis must not fan
	// identical runs under different keys.
	want := 2 * 2 * 1 * 2 * 2 * 3 // k × solver × backend × survive × budget × seeds
	if len(scs) != want {
		t.Fatalf("social family expanded to %d runs, want %d", len(scs), want)
	}
	for _, sc := range scs {
		if sc.N != 0 {
			t.Fatalf("social scenario carries n=%d; the key would lie about the generator", sc.N)
		}
	}
}
