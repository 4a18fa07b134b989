package sweep

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"msc/internal/obs"
	"msc/internal/telemetry"
)

// RunError is the typed failure of one scenario run: which scenario, at
// which stage (generate | exec | ingest), with the tail of the child's
// output for post-mortems.
type RunError struct {
	Scenario Scenario
	Stage    string
	Output   string
	Err      error
}

func (e *RunError) Error() string {
	msg := fmt.Sprintf("sweep: %s seed %d: %s: %v", e.Scenario.Key(), e.Scenario.Seed, e.Stage, e.Err)
	if e.Output != "" {
		msg += "\n" + e.Output
	}
	return msg
}

func (e *RunError) Unwrap() error { return e.Err }

// ProcessRunner executes scenarios as worker processes: mscgen to
// materialize each unique problem instance (cached per InstanceKey, so
// scenarios differing only in solver/backend/par share one file),
// then mscplace or mscbench with -jsonl. Every ingested stream is
// schema-validated via telemetry.ReadRunRecords before a record is
// accepted.
//
// Children inherit PR 3's supervision: place runs get -deadline so the
// solver itself stops gracefully and still emits its best-so-far record;
// on context cancellation the child receives SIGINT (the graceful-stop
// signal all msc commands handle) and is hard-killed only after
// KillDelay.
type ProcessRunner struct {
	// Mscgen, Mscplace, Mscbench are the binary paths. Mscbench may be
	// empty when the matrix names no experiments.
	Mscgen   string
	Mscplace string
	Mscbench string
	// WorkDir receives instance files and per-run JSONL records (named by
	// scenario key and seed, so a failed sweep leaves an inspectable
	// trail). Required.
	WorkDir string
	// Deadline bounds one run's wall clock. Place children receive it as
	// -deadline (graceful, best-so-far record still emitted); bench
	// children get SIGINT at the deadline and KillDelay of grace to flush.
	// Zero means unbounded.
	Deadline time.Duration
	// Iters is the -iters budget for ea/aea/random solvers (0 = mscplace
	// default).
	Iters int
	// KillDelay is the grace between SIGINT and SIGKILL for a child that
	// ignores the graceful stop (default 10s).
	KillDelay time.Duration
	// Ops, when true, runs every place/bench child with its ops plane up
	// (-ops 127.0.0.1:0, so children never fight over a port) and a
	// deterministic -metrics-dump file the runner harvests after the child
	// exits — no scrape race against process teardown. Harvested samples
	// surface through TakeMetrics (see MetricsHarvester); the raw
	// exposition files stay in WorkDir beside the JSONL records.
	Ops bool

	mu        sync.Mutex
	instances map[string]*instanceEntry
	metrics   map[string]map[string]float64
}

type instanceEntry struct {
	once sync.Once
	path string
	err  error
}

// Run implements Runner.
func (p *ProcessRunner) Run(ctx context.Context, sc Scenario) (telemetry.RunRecord, error) {
	switch sc.Kind {
	case KindPlace:
		return p.runPlace(ctx, sc)
	case KindBench:
		return p.runBench(ctx, sc)
	default:
		return telemetry.RunRecord{}, &RunError{Scenario: sc, Stage: "exec", Err: fmt.Errorf("unknown scenario kind %q", sc.Kind)}
	}
}

// instance returns the cached instance file for sc, generating it on
// first use. Generation is serialized per key via sync.Once so concurrent
// workers never race on one file.
func (p *ProcessRunner) instance(ctx context.Context, sc Scenario) (string, error) {
	p.mu.Lock()
	if p.instances == nil {
		p.instances = make(map[string]*instanceEntry)
	}
	ent, ok := p.instances[sc.InstanceKey()]
	if !ok {
		ent = &instanceEntry{}
		p.instances[sc.InstanceKey()] = ent
	}
	p.mu.Unlock()

	ent.once.Do(func() {
		path := filepath.Join(p.WorkDir, "inst-"+sc.InstanceKey()+".json")
		args := []string{
			"-kind", sc.Family,
			"-m", strconv.Itoa(sc.M),
			"-pt", formatPt(sc.Pt),
			"-k", strconv.Itoa(sc.K),
			"-seed", strconv.FormatInt(sc.Seed, 10),
			"-out", path,
		}
		if sc.Family != "social" {
			args = append(args, "-n", strconv.Itoa(sc.N))
		}
		if _, err := p.exec(ctx, p.Mscgen, args, 0); err != nil {
			ent.err = err
			return
		}
		ent.path = path
	})
	if ent.err != nil {
		return "", &RunError{Scenario: sc, Stage: "generate", Err: ent.err}
	}
	return ent.path, nil
}

func (p *ProcessRunner) runPlace(ctx context.Context, sc Scenario) (telemetry.RunRecord, error) {
	inst, err := p.instance(ctx, sc)
	if err != nil {
		return telemetry.RunRecord{}, err
	}
	jsonl := p.recordPath(sc)
	args := []string{
		"-in", inst,
		"-alg", sc.Solver,
		"-seed", strconv.FormatInt(sc.Seed, 10),
		"-par", strconv.Itoa(sc.Par),
		"-dist-backend", sc.DistBackend,
		"-jsonl", jsonl,
	}
	if sc.Survive != "" {
		args = append(args, "-survive", sc.Survive)
	}
	if sc.Budget > 0 {
		args = append(args, "-budget", strconv.FormatFloat(sc.Budget, 'g', -1, 64))
	}
	args = p.opsArgs(args, sc)
	if p.Iters > 0 {
		args = append(args, "-iters", strconv.Itoa(p.Iters))
	}
	if p.Deadline > 0 {
		args = append(args, "-deadline", p.Deadline.String())
	}
	out, err := p.exec(ctx, p.Mscplace, args, p.execTimeout())
	if err != nil {
		return telemetry.RunRecord{}, &RunError{Scenario: sc, Stage: "exec", Output: tail(out), Err: err}
	}
	rec, err := p.ingest(jsonl, func(r telemetry.RunRecord) bool { return r.Name == sc.Solver })
	if err != nil {
		return telemetry.RunRecord{}, &RunError{Scenario: sc, Stage: "ingest", Err: err}
	}
	if err := p.harvestMetrics(sc); err != nil {
		return telemetry.RunRecord{}, &RunError{Scenario: sc, Stage: "harvest", Err: err}
	}
	return rec, nil
}

func (p *ProcessRunner) runBench(ctx context.Context, sc Scenario) (telemetry.RunRecord, error) {
	if p.Mscbench == "" {
		return telemetry.RunRecord{}, &RunError{Scenario: sc, Stage: "exec", Err: fmt.Errorf("matrix names experiments but no mscbench binary is configured")}
	}
	jsonl := p.recordPath(sc)
	args := []string{
		"-exp", sc.Experiment,
		"-seed", strconv.FormatInt(sc.Seed, 10),
		"-par", strconv.Itoa(sc.Par),
		"-dist-backend", sc.DistBackend,
		"-jsonl", jsonl,
	}
	if sc.Quick {
		args = append(args, "-quick")
	}
	args = p.opsArgs(args, sc)
	out, err := p.exec(ctx, p.Mscbench, args, p.execTimeout())
	if err != nil {
		return telemetry.RunRecord{}, &RunError{Scenario: sc, Stage: "exec", Output: tail(out), Err: err}
	}
	rec, err := p.ingest(jsonl, func(r telemetry.RunRecord) bool {
		return r.Algorithm == "experiment" && r.Name == sc.Experiment
	})
	if err != nil {
		return telemetry.RunRecord{}, &RunError{Scenario: sc, Stage: "ingest", Err: err}
	}
	if err := p.harvestMetrics(sc); err != nil {
		return telemetry.RunRecord{}, &RunError{Scenario: sc, Stage: "harvest", Err: err}
	}
	return rec, nil
}

// recordPath names the per-run JSONL file after the scenario, so a sweep
// directory reads as a manifest of what ran.
func (p *ProcessRunner) recordPath(sc Scenario) string {
	key := strings.NewReplacer("/", "_", ".", "_").Replace(sc.Key())
	return filepath.Join(p.WorkDir, fmt.Sprintf("run-%s-seed%d.jsonl", key, sc.Seed))
}

// metricsPath names the per-run ops-metrics dump beside the JSONL record.
func (p *ProcessRunner) metricsPath(sc Scenario) string {
	key := strings.NewReplacer("/", "_", ".", "_").Replace(sc.Key())
	return filepath.Join(p.WorkDir, fmt.Sprintf("metrics-%s-seed%d.prom", key, sc.Seed))
}

// opsArgs appends the child's ops-plane flags when harvesting is on.
func (p *ProcessRunner) opsArgs(args []string, sc Scenario) []string {
	if !p.Ops {
		return args
	}
	return append(args,
		"-ops", "127.0.0.1:0",
		"-metrics-dump", p.metricsPath(sc),
	)
}

// harvestMetrics parses a finished child's -metrics-dump exposition into
// the runner's buffer, keyed for TakeMetrics. No-op when Ops is off.
func (p *ProcessRunner) harvestMetrics(sc Scenario) error {
	if !p.Ops {
		return nil
	}
	path := p.metricsPath(sc)
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("ops metrics dump: %w", err)
	}
	defer f.Close()
	samples, err := obs.ParsePrometheus(f)
	if err != nil {
		return fmt.Errorf("ops metrics dump %s: %w", path, err)
	}
	p.mu.Lock()
	if p.metrics == nil {
		p.metrics = make(map[string]map[string]float64)
	}
	p.metrics[p.metricsKey(sc)] = samples
	p.mu.Unlock()
	return nil
}

func (p *ProcessRunner) metricsKey(sc Scenario) string {
	return fmt.Sprintf("%s|%d", sc.Key(), sc.Seed)
}

// TakeMetrics implements MetricsHarvester: it removes and returns the
// harvested samples for sc, or nil when the scenario has none (harvesting
// off, run failed, or already taken).
func (p *ProcessRunner) TakeMetrics(sc Scenario) map[string]float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := p.metricsKey(sc)
	samples := p.metrics[key]
	delete(p.metrics, key)
	return samples
}

// ingest validates the whole JSONL stream and returns the single run
// record matching pick. Zero or multiple matches are ingest errors: the
// aggregator must never guess which record a scenario produced.
func (p *ProcessRunner) ingest(path string, pick func(telemetry.RunRecord) bool) (telemetry.RunRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return telemetry.RunRecord{}, err
	}
	defer f.Close()
	recs, err := telemetry.ReadRunRecords(f)
	if err != nil {
		return telemetry.RunRecord{}, fmt.Errorf("%s: %w", path, err)
	}
	var picked []telemetry.RunRecord
	for _, r := range recs {
		if pick(r) {
			picked = append(picked, r)
		}
	}
	if len(picked) != 1 {
		return telemetry.RunRecord{}, fmt.Errorf("%s: %d matching run records, want exactly 1 (of %d total)", path, len(picked), len(recs))
	}
	return picked[0], nil
}

func (p *ProcessRunner) execTimeout() time.Duration {
	if p.Deadline <= 0 {
		return 0
	}
	// The child enforces the fine-grained deadline itself; the hard
	// timeout only catches a wedged process, so it gets generous slack
	// for instance construction and record flushing.
	return p.Deadline + 30*time.Second
}

// exec runs one child to completion, returning its combined output. On
// context cancellation (or the hard timeout) the child receives SIGINT —
// every msc command treats that as a graceful stop — and is killed after
// KillDelay if it lingers.
func (p *ProcessRunner) exec(ctx context.Context, bin string, args []string, timeout time.Duration) ([]byte, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	cmd := exec.CommandContext(ctx, bin, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGINT) }
	cmd.WaitDelay = p.KillDelay
	if cmd.WaitDelay <= 0 {
		cmd.WaitDelay = 10 * time.Second
	}
	err := cmd.Run()
	if err != nil && ctx.Err() != nil {
		err = fmt.Errorf("%v (%w)", err, ctx.Err())
	}
	return out.Bytes(), err
}

// tail returns the last few lines of child output for error reports.
func tail(out []byte) string {
	const maxLines = 12
	s := strings.TrimSpace(string(out))
	if s == "" {
		return ""
	}
	lines := strings.Split(s, "\n")
	if len(lines) > maxLines {
		lines = lines[len(lines)-maxLines:]
	}
	return "  | " + strings.Join(lines, "\n  | ")
}
