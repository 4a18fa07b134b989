package experiments

import (
	"strings"
	"sync"
	"testing"

	"msc/internal/core"
	"msc/internal/telemetry"
)

// Quick-mode runs of every experiment: they must complete, produce
// well-formed reports, and respect the structural relationships the paper
// reports (AA ≥ Random, ratio within (0, 1], monotone-in-k tendencies are
// asserted loosely since quick instances are tiny).

func quickCfg() Config { return Config{Seed: 1, Quick: true} }

func TestTable1Quick(t *testing.T) {
	table := quickCfg().Table1()
	if len(table.Rows) == 0 || len(table.Cols) == 0 {
		t.Fatal("empty table")
	}
	for _, row := range table.Rows {
		if len(row.Cells) != len(table.Cols) {
			t.Fatalf("row %s has %d cells, want %d", row.Label, len(row.Cells), len(table.Cols))
		}
		for _, c := range row.Cells {
			if c < 0 || c > 1.000001 {
				t.Fatalf("ratio %v outside [0, 1]", c)
			}
		}
	}
	text := table.Format()
	if !strings.Contains(text, "Table I") {
		t.Errorf("format missing title: %q", text)
	}
	if csv := table.CSV(); !strings.HasPrefix(csv, "k,") {
		t.Errorf("csv missing header: %q", csv)
	}
}

func TestTable2Quick(t *testing.T) {
	table := quickCfg().Table2()
	if len(table.Rows) == 0 {
		t.Fatal("empty table")
	}
	for _, row := range table.Rows {
		for _, c := range row.Cells {
			if c < 0 || c > 1.000001 {
				t.Fatalf("ratio %v outside [0, 1]", c)
			}
		}
	}
}

func TestFig1Quick(t *testing.T) {
	res := quickCfg().Fig1()
	if res.AA.Sigma < res.Random.Sigma {
		t.Errorf("AA σ=%d below random σ=%d", res.AA.Sigma, res.Random.Sigma)
	}
	if res.SceneAA.Graph == nil || res.SceneRandom.Graph == nil {
		t.Fatal("scenes missing graphs")
	}
	if len(res.SceneAA.Shortcuts) != len(res.AA.Edges) {
		t.Fatal("scene shortcuts out of sync")
	}
}

func TestFig2Quick(t *testing.T) {
	figs := quickCfg().Fig2()
	if len(figs) != 2 {
		t.Fatalf("want 2 figures, got %d", len(figs))
	}
	for _, fig := range figs {
		assertWellFormed(t, fig)
		// AA should never lose to Random at the same (p_t, k).
		for si := 0; si+1 < len(fig.Series); si += 2 {
			aa, rnd := fig.Series[si], fig.Series[si+1]
			for i := range aa.Y {
				if aa.Y[i] < rnd.Y[i] {
					t.Errorf("%s: AA %v < Random %v at x=%v", fig.ID, aa.Y[i], rnd.Y[i], fig.X[i])
				}
			}
		}
	}
}

func TestFig3Quick(t *testing.T) {
	figs := quickCfg().Fig3()
	for _, fig := range figs {
		assertWellFormed(t, fig)
	}
}

func TestFig4Quick(t *testing.T) {
	figs := quickCfg().Fig4()
	for _, fig := range figs {
		assertWellFormed(t, fig)
		// Convergence traces are monotone in r.
		for _, s := range fig.Series {
			if !strings.HasPrefix(s.Name, "EA") && !strings.HasPrefix(s.Name, "AEA") {
				continue
			}
			for i := 1; i < len(s.Y); i++ {
				if s.Y[i] < s.Y[i-1] {
					t.Errorf("%s series %s not monotone at %d", fig.ID, s.Name, i)
				}
			}
		}
	}
}

func TestFig5aQuick(t *testing.T) {
	fig := quickCfg().Fig5a()
	assertWellFormed(t, fig)
	// Total maintained connections grow (weakly) with k for AA.
	for _, s := range fig.Series {
		if !strings.HasPrefix(s.Name, "AA") {
			continue
		}
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i]+1e-9 < s.Y[i-1] {
				t.Errorf("AA series %s decreases with k at %d: %v", s.Name, i, s.Y)
			}
		}
	}
}

func TestFig5bQuick(t *testing.T) {
	fig := quickCfg().Fig5b()
	assertWellFormed(t, fig)
	// Totals grow with T.
	for _, s := range fig.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i]+1e-9 < s.Y[i-1] {
				t.Errorf("series %s decreases with T: %v", s.Name, s.Y)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := quickCfg().Table1().CSV()
	b := quickCfg().Table1().CSV()
	if a != b {
		t.Fatal("Table1 not deterministic for equal seeds")
	}
}

// runSink collects the run records an experiment emits.
type runSink struct {
	mu   sync.Mutex
	runs []telemetry.RunRecord
}

func (s *runSink) Emit(e telemetry.Event) {
	if r, ok := e.(telemetry.RunRecord); ok {
		s.mu.Lock()
		s.runs = append(s.runs, r)
		s.mu.Unlock()
	}
}

// table1Runs runs Table I under opts and returns its CSV and run records.
func table1Runs(t *testing.T, opts core.Options) (string, []telemetry.RunRecord) {
	t.Helper()
	sink := &runSink{}
	cfg := quickCfg()
	cfg.Options, cfg.Sink = opts, sink
	csv := cfg.Table1().CSV()
	if len(sink.runs) == 0 {
		t.Fatal("Table I emitted no run records")
	}
	return csv, sink.runs
}

// TestConfigOptionsReachInstances: Config.Options reach the instances an
// experiment builds: a survivability mode shows in every record.
func TestConfigOptionsReachInstances(t *testing.T) {
	_, svRuns := table1Runs(t, core.Options{Survive: core.SurviveShortcut})
	for _, r := range svRuns {
		if r.Survive != string(core.SurviveShortcut) {
			t.Errorf("%s: survive %q, want %q", r.Name, r.Survive, core.SurviveShortcut)
		}
	}
}

func assertWellFormed(t *testing.T, fig *Figure) {
	t.Helper()
	if len(fig.X) == 0 || len(fig.Series) == 0 {
		t.Fatalf("%s: empty figure", fig.ID)
	}
	for _, s := range fig.Series {
		if len(s.Y) != len(fig.X) {
			t.Fatalf("%s: series %s has %d points, want %d", fig.ID, s.Name, len(s.Y), len(fig.X))
		}
	}
	if text := fig.Format(); !strings.Contains(text, fig.ID) {
		t.Fatalf("%s: format missing id", fig.ID)
	}
	if csv := fig.CSV(); !strings.Contains(csv, ",") {
		t.Fatalf("%s: csv malformed", fig.ID)
	}
}

func TestExt1Quick(t *testing.T) {
	figs := quickCfg().Ext1()
	if len(figs) != 2 {
		t.Fatalf("want 2 figures, got %d", len(figs))
	}
	for _, fig := range figs {
		assertWellFormed(t, fig)
		// The MSC-aware algorithm must dominate every all-pairs baseline:
		// that is the motivating claim of §I the experiment quantifies.
		aa := fig.Series[0]
		for _, other := range fig.Series[1:] {
			for i := range aa.Y {
				if aa.Y[i] < other.Y[i] {
					t.Errorf("%s: AA %v < %s %v at k=%v",
						fig.ID, aa.Y[i], other.Name, other.Y[i], fig.X[i])
				}
			}
		}
	}
}

func TestExt2Quick(t *testing.T) {
	fig := quickCfg().Ext2()
	assertWellFormed(t, fig)
	delivery := fig.Series[0].Y
	// Delivery with a budget must beat delivery with none.
	if delivery[len(delivery)-1] <= delivery[0] {
		t.Fatalf("placement did not improve delivery: %v", delivery)
	}
	for _, d := range delivery {
		if d < 0 || d > 1 {
			t.Fatalf("delivery ratio %v out of range", d)
		}
	}
}

func TestExt3Quick(t *testing.T) {
	fig := quickCfg().Ext3()
	assertWellFormed(t, fig)
	oracle := fig.Series[0].Y
	// The oracle plans on the graded topologies, so no planner beats it.
	for si := 1; si < len(fig.Series); si++ {
		for i := range oracle {
			if fig.Series[si].Y[i] > oracle[i] {
				t.Errorf("%s beats the oracle at k=%v: %v > %v",
					fig.Series[si].Name, fig.X[i], fig.Series[si].Y[i], oracle[i])
			}
		}
	}
}

func TestExt4Quick(t *testing.T) {
	fig := quickCfg().Ext4()
	assertWellFormed(t, fig)
	aware, blind := fig.Series[0].Y, fig.Series[1].Y
	for i := range aware {
		// Weight-aware AA optimizes the graded objective directly; it
		// must not lose to the weight-blind placement under it.
		if aware[i] < blind[i] {
			t.Errorf("aware %v < blind %v at k=%v", aware[i], blind[i], fig.X[i])
		}
	}
}
