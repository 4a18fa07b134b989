// Package sweep turns the single-run commands into a fleet: it expands a
// declarative scenario matrix into concrete runs, fans the runs across a
// bounded pool of worker processes (re-execing mscgen/mscplace/mscbench
// with -jsonl), aggregates the resulting run records into a canonical
// BENCH_*.json trajectory with per-scenario medians and IQRs, and diffs
// trajectories with a noise-aware regression detector that CI gates on.
//
// The package is layered so every stage is testable without processes:
//
//	Matrix.Expand   → []Scenario        (pure)
//	Runner.Run      → telemetry.RunRecord (ProcessRunner or a test fake)
//	RunAll          → []Result          (bounded pool over any Runner)
//	Aggregate       → *Trajectory       (pure; canonical encoding)
//	Diff            → *DiffReport       (pure; typed gate errors)
package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Matrix is the declarative scenario space of one sweep: the cross product
// of every axis below. Zero-length required axes fail Validate, so an
// accidentally empty sweep can never masquerade as a clean run.
//
// Seeds is the repetition axis: scenarios are keyed by every axis *except*
// the seed, and the aggregator folds the per-seed runs of one key into
// median/IQR statistics.
type Matrix struct {
	// Families selects the instance generators: "rgg" | "social".
	Families []string `json:"families"`
	// N is the node count (rgg only; social uses its fixed generator size).
	N []int `json:"n"`
	// M is the number of important pairs sampled per instance.
	M []int `json:"m"`
	// Pt is the failure-probability threshold p_t.
	Pt []float64 `json:"p_t"`
	// K is the shortcut budget.
	K []int `json:"k"`
	// Solvers names the mscplace algorithms to run:
	// sandwich|greedy|mu|nu|ea|aea|random|cn.
	Solvers []string `json:"solvers"`
	// DistBackends mirrors the -dist-backend flag: auto|bounded, both the
	// bounded d_t-ball table (kept for compatibility).
	DistBackends []string `json:"dist_backends"`
	// Survive mirrors the -survive flag on place scenarios:
	// auto|none|shortcut|node. Empty means the fault-free default; the
	// scenario key grows a segment only for survivable modes, so existing
	// trajectory keys are unchanged.
	Survive []string `json:"survive,omitempty"`
	// Budget mirrors the -budget flag on place scenarios: a knapsack
	// budget B replacing the cardinality budget k. 0 means cardinality
	// placement; the scenario key grows a /b-<B> segment only for budgeted
	// runs, so existing trajectory keys are unchanged.
	Budget []float64 `json:"budget,omitempty"`
	// Parallelism mirrors -par: 1 = serial, 0 = GOMAXPROCS.
	Parallelism []int `json:"parallelism"`
	// Seeds drives both instance sampling and randomized solvers; one run
	// is launched per (scenario, seed).
	Seeds []int64 `json:"seeds"`
	// Experiments optionally adds whole mscbench experiment runs (one
	// scenario per id × backend × par, repeated per seed). The ids
	// are validated by mscbench itself — an unknown id fails that child.
	Experiments []string `json:"experiments"`
	// Quick marks reduced-scale runs: forwarded to mscbench -quick and
	// recorded in the scenario key so quick and full trajectories never
	// silently diff against each other.
	Quick bool `json:"quick"`
}

// QuickMatrix is the smoke sweep CI runs on every push: 2 cardinality
// budgets × 2 solvers × 2 survivability modes × 2 knapsack budgets (off
// and B=2 unit-cost) × 3 seeds on a 40-node RGG, on the one distance
// backend, plus one whole-suite mscbench experiment — about fifty child
// runs, seconds end to end. The survivable half gates the worst-case σ⁻
// objective and the budgeted half the knapsack objective, both against
// the same baseline discipline as the fault-free cardinality runs.
func QuickMatrix() Matrix {
	return Matrix{
		Families:     []string{"rgg"},
		N:            []int{40},
		M:            []int{8},
		Pt:           []float64{0.12},
		K:            []int{2, 3},
		Solvers:      []string{"greedy", "sandwich"},
		DistBackends: []string{"auto"},
		Survive:      []string{"none", "shortcut"},
		Budget:       []float64{0, 2},
		Parallelism:  []int{1},
		Seeds:        []int64{1, 2, 3},
		Experiments:  []string{"table1"},
		Quick:        true,
	}
}

// MatrixError reports an invalid matrix axis.
type MatrixError struct {
	Axis   string // the offending field, e.g. "solvers"
	Reason string
}

func (e *MatrixError) Error() string {
	return fmt.Sprintf("sweep: invalid matrix axis %s: %s", e.Axis, e.Reason)
}

var (
	validFamilies = map[string]bool{"rgg": true, "social": true}
	validSolvers  = map[string]bool{"sandwich": true, "greedy": true, "mu": true, "nu": true, "ea": true, "aea": true, "random": true, "cn": true}
	validBackends = map[string]bool{"auto": true, "bounded": true}
	validSurvive  = map[string]bool{"auto": true, "none": true, "shortcut": true, "node": true}
)

// Validate checks every axis and returns the first violation as a typed
// *MatrixError. A matrix whose place axes are all empty but that names
// Experiments is valid (a bench-only sweep), and vice versa.
func (m Matrix) Validate() error {
	place := len(m.Solvers) > 0
	if !place && len(m.Experiments) == 0 {
		return &MatrixError{Axis: "solvers", Reason: "no solvers and no experiments: the sweep would run nothing"}
	}
	if len(m.Seeds) == 0 {
		return &MatrixError{Axis: "seeds", Reason: "at least one seed is required"}
	}
	seen := make(map[int64]bool, len(m.Seeds))
	for _, s := range m.Seeds {
		if seen[s] {
			return &MatrixError{Axis: "seeds", Reason: fmt.Sprintf("seed %d repeats: repeated seeds would double-count one run in the medians", s)}
		}
		seen[s] = true
	}
	if err := validateNames("dist_backends", m.DistBackends, validBackends); err != nil {
		return err
	}
	if err := validateNames("survive", m.Survive, validSurvive); err != nil {
		return err
	}
	for _, p := range m.Parallelism {
		if p < 0 {
			return &MatrixError{Axis: "parallelism", Reason: fmt.Sprintf("negative worker count %d", p)}
		}
	}
	for _, b := range m.Budget {
		if b != b || b < 0 || b > 1e18 {
			return &MatrixError{Axis: "budget", Reason: fmt.Sprintf("budget %v must be finite and non-negative", b)}
		}
	}
	for _, id := range m.Experiments {
		if strings.TrimSpace(id) == "" {
			return &MatrixError{Axis: "experiments", Reason: "empty experiment id"}
		}
	}
	if !place {
		return nil
	}
	if err := validateNames("families", m.Families, validFamilies); err != nil {
		return err
	}
	if err := validateNames("solvers", m.Solvers, validSolvers); err != nil {
		return err
	}
	if len(m.Families) == 0 {
		return &MatrixError{Axis: "families", Reason: "solvers given but no graph families"}
	}
	for axis, xs := range map[string][]int{"n": m.N, "m": m.M, "k": m.K} {
		if len(xs) == 0 {
			return &MatrixError{Axis: axis, Reason: "solvers given but axis is empty"}
		}
		for _, x := range xs {
			if x <= 0 {
				return &MatrixError{Axis: axis, Reason: fmt.Sprintf("non-positive value %d", x)}
			}
		}
	}
	if len(m.Pt) == 0 {
		return &MatrixError{Axis: "p_t", Reason: "solvers given but axis is empty"}
	}
	for _, pt := range m.Pt {
		if !(pt > 0 && pt < 1) {
			return &MatrixError{Axis: "p_t", Reason: fmt.Sprintf("threshold %v outside (0,1)", pt)}
		}
	}
	return nil
}

func validateNames(axis string, names []string, valid map[string]bool) error {
	for _, name := range names {
		if !valid[name] {
			known := make([]string, 0, len(valid))
			for k := range valid {
				known = append(known, k)
			}
			sort.Strings(known)
			return &MatrixError{Axis: axis, Reason: fmt.Sprintf("unknown value %q (valid: %s)", name, strings.Join(known, ", "))}
		}
	}
	return nil
}

// Scenario kinds.
const (
	// KindPlace generates an instance with mscgen and solves it with
	// mscplace.
	KindPlace = "place"
	// KindBench runs one mscbench experiment id.
	KindBench = "bench"
)

// Scenario is one fully bound run: every matrix axis pinned to a value.
// Scenarios that differ only in Seed share a Key and are folded together
// by the aggregator.
type Scenario struct {
	Kind string `json:"kind"`

	// Place axes (Kind == KindPlace).
	Family string  `json:"family,omitempty"`
	N      int     `json:"n,omitempty"`
	M      int     `json:"m,omitempty"`
	Pt     float64 `json:"p_t,omitempty"`
	K      int     `json:"k,omitempty"`
	Solver string  `json:"solver,omitempty"`
	// Survive is the -survive mode; empty or "none" is the fault-free
	// objective and adds no key segment.
	Survive string `json:"survive,omitempty"`
	// Budget is the -budget knapsack budget; 0 is cardinality placement
	// and adds no key segment.
	Budget float64 `json:"budget,omitempty"`

	// Bench axis (Kind == KindBench).
	Experiment string `json:"experiment,omitempty"`

	// Shared axes.
	DistBackend string `json:"dist_backend"`
	Par         int    `json:"par"`
	Quick       bool   `json:"quick"`
	Seed        int64  `json:"seed"`
}

// Key is the canonical scenario identity inside a trajectory: every axis
// except the seed, in a fixed order, so two sweeps of the same matrix
// produce byte-identical keys. Example:
//
//	place/rgg/n40/m8/pt0.12/k2/greedy/auto/par1
//	bench/table1/quick/auto/par0
func (s Scenario) Key() string {
	switch s.Kind {
	case KindBench:
		quick := "full"
		if s.Quick {
			quick = "quick"
		}
		return fmt.Sprintf("bench/%s/%s/%s/par%d", s.Experiment, quick, s.DistBackend, s.Par)
	default:
		key := fmt.Sprintf("place/%s/n%d/m%d/pt%s/k%d/%s/%s/par%d",
			s.Family, s.N, s.M, formatPt(s.Pt), s.K, s.Solver, s.DistBackend, s.Par)
		// Survivable runs get their own segment; fault-free runs keep the
		// historical key so existing baselines diff cleanly.
		if s.Survive != "" && s.Survive != "none" && s.Survive != "auto" {
			key += "/sv-" + s.Survive
		}
		// Budgeted runs likewise: cardinality runs keep the historical key.
		if s.Budget > 0 {
			key += "/b-" + formatPt(s.Budget)
		}
		return key
	}
}

// InstanceKey identifies the generated problem instance a place scenario
// needs: the generator inputs only. Scenarios that differ in solver,
// backend, or parallelism share one instance file.
func (s Scenario) InstanceKey() string {
	return fmt.Sprintf("%s-n%d-m%d-pt%s-k%d-seed%d", s.Family, s.N, s.M, formatPt(s.Pt), s.K, s.Seed)
}

// formatPt renders a threshold compactly and unambiguously for keys
// ("0.12", not "0.120000").
func formatPt(pt float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", pt), "0"), ".")
}

// Expand validates the matrix and unrolls its cross product into the
// deterministic scenario order the pool and the aggregator both rely on:
// place scenarios first (axes varying innermost-to-outermost in the order
// seed, par, budget, survive, backend, solver, k, pt, m, n, family),
// then bench scenarios.
func (m Matrix) Expand() ([]Scenario, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	backends := orDefault(m.DistBackends, "auto")
	survives := orDefault(m.Survive, "auto")
	budgets := m.Budget
	if len(budgets) == 0 {
		budgets = []float64{0}
	}
	pars := m.Parallelism
	if len(pars) == 0 {
		pars = []int{0}
	}
	var out []Scenario
	for _, family := range m.Families {
		ns := m.N
		if family == "social" {
			// The social generator has a fixed size; collapse the n axis so
			// the matrix does not fan identical runs under different keys.
			ns = ns[:1]
		}
		for _, n := range ns {
			for _, mm := range m.M {
				for _, pt := range m.Pt {
					for _, k := range m.K {
						for _, solver := range m.Solvers {
							for _, backend := range backends {
								for _, survive := range survives {
									for _, budget := range budgets {
										for _, par := range pars {
											for _, seed := range m.Seeds {
												sc := Scenario{
													Kind: KindPlace, Family: family, N: n, M: mm, Pt: pt, K: k,
													Solver: solver, DistBackend: backend,
													Survive: survive, Budget: budget, Par: par, Quick: m.Quick, Seed: seed,
												}
												if family == "social" {
													sc.N = 0 // generator-fixed; keep the key honest
												}
												out = append(out, sc)
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	for _, id := range m.Experiments {
		for _, backend := range backends {
			for _, par := range pars {
				for _, seed := range m.Seeds {
					out = append(out, Scenario{
						Kind: KindBench, Experiment: id,
						DistBackend: backend, Par: par,
						Quick: m.Quick, Seed: seed,
					})
				}
			}
		}
	}
	return out, nil
}

func orDefault(xs []string, def string) []string {
	if len(xs) == 0 {
		return []string{def}
	}
	return xs
}

// ReadMatrix decodes a matrix spec from JSON, rejecting unknown fields so
// a typo'd axis name ("solver" for "solvers") or a removed one cannot
// silently produce an empty axis, and validates the result. An unknown
// field is reported as a *MatrixError naming it.
func ReadMatrix(r io.Reader) (Matrix, error) {
	var m Matrix
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		// encoding/json names an unknown field only in its message.
		if name, ok := strings.CutPrefix(err.Error(), `json: unknown field "`); ok {
			return Matrix{}, &MatrixError{Axis: strings.TrimSuffix(name, `"`), Reason: "unknown axis"}
		}
		return Matrix{}, fmt.Errorf("sweep: matrix spec: %w", err)
	}
	if err := m.Validate(); err != nil {
		return Matrix{}, err
	}
	return m, nil
}
