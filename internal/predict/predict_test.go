package predict

import (
	"fmt"
	"testing"

	"msc/internal/geom"
	"msc/internal/mobility"
	"msc/internal/xrand"
)

func sampleTrace(t *testing.T, steps int) *mobility.Trace {
	t.Helper()
	cfg := mobility.DefaultConfig()
	cfg.Nodes = 30
	cfg.Groups = 5
	cfg.Steps = steps
	tr, err := mobility.Generate(cfg, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// MeanError, the measure the accuracy tests grade predictions by, reports
// the mean per-node position error (meters) between a predicted trace and
// the actual continuation actual[offset:], snapshot by snapshot,
// truncated to the shorter of the two.
func MeanError(predicted *mobility.Trace, actual *mobility.Trace, offset int) (float64, error) {
	if predicted.N() != actual.N() {
		return 0, fmt.Errorf("predict: node counts differ: %d vs %d", predicted.N(), actual.N())
	}
	steps := predicted.T()
	if rest := actual.T() - offset; rest < steps {
		steps = rest
	}
	if steps <= 0 {
		return 0, fmt.Errorf("predict: no overlapping snapshots")
	}
	total, count := 0.0, 0
	for h := 0; h < steps; h++ {
		for v := 0; v < predicted.N(); v++ {
			total += predicted.Positions[h][v].Dist(actual.Positions[offset+h][v])
			count++
		}
	}
	return total / float64(count), nil
}

func TestDeadReckonShape(t *testing.T) {
	tr := sampleTrace(t, 12)
	pred, err := DeadReckon(tr, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pred.T() != 4 || pred.N() != tr.N() {
		t.Fatalf("shape: T=%d N=%d", pred.T(), pred.N())
	}
	if pred.StepSeconds != tr.StepSeconds {
		t.Fatal("step seconds lost")
	}
	for v := range pred.GroupOf {
		if pred.GroupOf[v] != tr.GroupOf[v] {
			t.Fatal("groups lost")
		}
	}
}

func TestDeadReckonValidation(t *testing.T) {
	tr := sampleTrace(t, 5)
	if _, err := DeadReckon(tr, 1, 2); err == nil {
		t.Fatal("observed=1 accepted")
	}
	if _, err := DeadReckon(tr, 6, 2); err == nil {
		t.Fatal("observed beyond trace accepted")
	}
	if _, err := DeadReckon(tr, 3, 0); err == nil {
		t.Fatal("horizon=0 accepted")
	}
}

// A synthetic trace with perfectly linear group motion must be predicted
// (near-)exactly: dead reckoning is exact on constant-velocity motion.
func TestDeadReckonExactOnLinearMotion(t *testing.T) {
	const n, steps = 6, 10
	tr := &mobility.Trace{
		Positions:   make([][]geom.Point, steps),
		GroupOf:     make([]int, n),
		StepSeconds: 1,
	}
	for v := 0; v < n; v++ {
		tr.GroupOf[v] = v % 2
	}
	for step := 0; step < steps; step++ {
		snapshot := make([]geom.Point, n)
		for v := 0; v < n; v++ {
			base := geom.Point{X: float64(100 * (v % 2)), Y: float64(10 * v)}
			velocity := geom.Point{X: 5, Y: 3}
			snapshot[v] = base.Add(velocity.Scale(float64(step)))
		}
		tr.Positions[step] = snapshot
	}
	pred, err := DeadReckon(tr, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	mean, err := MeanError(pred, tr, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Clamping can bite at the region edge; allow a small tolerance.
	if mean > 12 {
		t.Fatalf("mean prediction error %v on linear motion", mean)
	}
}

func TestPredictionBeatsFreezing(t *testing.T) {
	// Dead reckoning should not lose badly to the trivial "assume nobody
	// moves" predictor on RPGM motion (a weak but meaningful sanity bar:
	// squads do drift).
	tr := sampleTrace(t, 20)
	const observed, horizon = 10, 6
	pred, err := DeadReckon(tr, observed, horizon)
	if err != nil {
		t.Fatal(err)
	}
	predErr, err := MeanError(pred, tr, observed)
	if err != nil {
		t.Fatal(err)
	}
	frozen := &mobility.Trace{
		Positions:   make([][]geom.Point, horizon),
		GroupOf:     tr.GroupOf,
		StepSeconds: tr.StepSeconds,
	}
	for h := 0; h < horizon; h++ {
		frozen.Positions[h] = tr.Positions[observed-1]
	}
	frozenErr, err := MeanError(frozen, tr, observed)
	if err != nil {
		t.Fatal(err)
	}
	if predErr > 1.5*frozenErr {
		t.Fatalf("dead reckoning (%.1f m) much worse than freezing (%.1f m)", predErr, frozenErr)
	}
}

func TestMeanErrorValidation(t *testing.T) {
	tr := sampleTrace(t, 6)
	pred, err := DeadReckon(tr, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MeanError(pred, tr, 6); err == nil {
		t.Fatal("no-overlap accepted")
	}
}
