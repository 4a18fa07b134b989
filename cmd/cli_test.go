// Package cmd_test drives the command-line tools end to end through the
// go toolchain: generate an instance, solve it, and render it — the same
// pipeline the README documents.
package cmd_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"msc/internal/telemetry"
)

// runTool executes `go run ./cmd/<tool> args...` from the module root.
func runTool(t *testing.T, tool string, args ...string) string {
	t.Helper()
	cmdArgs := append([]string{"run", "./cmd/" + tool}, args...)
	cmd := exec.Command("go", cmdArgs...)
	cmd.Dir = ".." // tests run in cmd/; the module root is one up
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v failed: %v\n%s", tool, args, err, out)
	}
	return string(out)
}

func TestPipelineGenPlaceViz(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	dir := t.TempDir()
	inst := filepath.Join(dir, "inst.json")
	placement := filepath.Join(dir, "placement.json")
	svg := filepath.Join(dir, "picture.svg")

	runTool(t, "mscgen", "-kind", "rgg", "-n", "50", "-m", "10", "-pt", "0.12",
		"-k", "3", "-seed", "7", "-out", inst)
	raw, err := os.ReadFile(inst)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("instance not valid JSON: %v", err)
	}
	if doc["nodes"].(float64) != 50 {
		t.Fatalf("nodes = %v", doc["nodes"])
	}

	out := runTool(t, "mscplace", "-in", inst, "-alg", "sandwich", "-out", placement)
	if !strings.Contains(out, "maintained:") || !strings.Contains(out, "shortcut:") {
		t.Fatalf("mscplace output unexpected:\n%s", out)
	}
	praw, err := os.ReadFile(placement)
	if err != nil {
		t.Fatal(err)
	}
	var pdoc struct {
		Sigma     int        `json:"maintained_pairs"`
		Shortcuts [][2]int32 `json:"shortcuts"`
	}
	if err := json.Unmarshal(praw, &pdoc); err != nil {
		t.Fatal(err)
	}
	if pdoc.Sigma < 1 || len(pdoc.Shortcuts) == 0 {
		t.Fatalf("placement trivial: %+v", pdoc)
	}

	runTool(t, "mscviz", "-in", inst, "-placement", placement, "-out", svg)
	sraw, err := os.ReadFile(svg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(sraw), "<svg") {
		t.Fatal("mscviz did not produce SVG")
	}

	ascii := runTool(t, "mscviz", "-in", inst, "-placement", placement, "-ascii")
	if !strings.Contains(ascii, "legend:") {
		t.Fatalf("ascii render unexpected:\n%s", ascii)
	}
}

func TestMscgenMobilityTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.csv")
	runTool(t, "mscgen", "-kind", "mobility", "-n", "20", "-steps", "4", "-out", trace)
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	content := string(raw)
	if !strings.HasPrefix(content, "# step_seconds=") {
		t.Fatalf("trace header missing:\n%.100s", content)
	}
	// 20 nodes × 4 steps + header + comment.
	lines := strings.Count(content, "\n")
	if lines < 80 {
		t.Fatalf("trace too short: %d lines", lines)
	}
}

// timingLine matches mscbench's per-experiment "[<exp> took Nms]" lines,
// the only lines that differ between runs.
var timingLine = regexp.MustCompile(`(?m)^\[\S+ took [^\]]*\]\n`)

// TestMscbenchQuick pins the reproduced tables and figures: the quick run
// of every experiment at seed 1, timing lines dropped, must match the
// golden file byte for byte. A change that moves a result regenerates it:
//
//	go run ./cmd/mscbench -exp all -quick -seed 1 | grep -v '^\[.* took .*\]$' > cmd/testdata/mscbench-all-quick-seed1.golden
func TestMscbenchQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	out := timingLine.ReplaceAllString(runTool(t, "mscbench", "-exp", "all", "-quick", "-seed", "1"), "")
	want, err := os.ReadFile(filepath.Join("testdata", "mscbench-all-quick-seed1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		gotLines, wantLines := strings.Split(out, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("mscbench -exp all -quick -seed 1 differs from the golden file at line %d:\n got %q\nwant %q", i+1, g, w)
			}
		}
	}
	csv := runTool(t, "mscbench", "-exp", "fig5b", "-quick", "-csv")
	if !strings.Contains(csv, "T,") {
		t.Fatalf("csv output unexpected:\n%s", csv)
	}
}

func TestMscplaceAlgorithms(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	dir := t.TempDir()
	inst := filepath.Join(dir, "inst.json")
	runTool(t, "mscgen", "-kind", "rgg", "-n", "40", "-m", "8", "-pt", "0.12",
		"-k", "2", "-seed", "3", "-out", inst)
	for _, alg := range []string{"greedy", "mu", "nu", "ea", "aea", "random"} {
		out := runTool(t, "mscplace", "-in", inst, "-alg", alg, "-iters", "50")
		if !strings.Contains(out, "maintained:") {
			t.Fatalf("alg %s output unexpected:\n%s", alg, out)
		}
	}
}

func TestMscsimPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	dir := t.TempDir()
	inst := filepath.Join(dir, "inst.json")
	placement := filepath.Join(dir, "placement.json")
	runTool(t, "mscgen", "-kind", "rgg", "-n", "40", "-m", "8", "-pt", "0.12",
		"-k", "2", "-seed", "9", "-out", inst)
	runTool(t, "mscplace", "-in", inst, "-alg", "sandwich", "-out", placement,
		"-report", "-refine")
	out := runTool(t, "mscsim", "-in", inst, "-placement", placement, "-trials", "500")
	if !strings.Contains(out, "best-path") || !strings.Contains(out, "maintained:") {
		t.Fatalf("mscsim output unexpected:\n%s", out)
	}
}

// runToolErr executes a tool expecting a non-zero exit; it returns the
// combined output.
func runToolErr(t *testing.T, tool string, args ...string) string {
	t.Helper()
	cmdArgs := append([]string{"run", "./cmd/" + tool}, args...)
	cmd := exec.Command("go", cmdArgs...)
	cmd.Dir = ".."
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v succeeded, want failure:\n%s", tool, args, out)
	}
	return string(out)
}

func TestVersionFlagAllCommands(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	for _, tool := range []string{"mscgen", "mscplace", "mscsim", "mscviz", "mscbench"} {
		out := runTool(t, tool, "-version")
		// Build info always carries at least the tool name and Go version.
		if !strings.HasPrefix(out, tool+" ") || !strings.Contains(out, "go1") {
			t.Errorf("%s -version output unexpected: %q", tool, out)
		}
	}
}

func TestMscbenchRejectsUnknownExp(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	out := runToolErr(t, "mscbench", "-exp", "tabel1")
	if !strings.Contains(out, `unknown experiment "tabel1"`) || !strings.Contains(out, "table1") {
		t.Fatalf("error should name the typo and list valid ids:\n%s", out)
	}
	// A typo hiding in a comma-separated list must fail before anything
	// runs, not midway through the suite.
	out = runToolErr(t, "mscbench", "-exp", "table1,nope", "-quick")
	if strings.Contains(out, "Table I") {
		t.Fatalf("experiments ran before validation:\n%s", out)
	}
}

// TestEvalFlagRemoved: the evaluation-mode flag is gone, so a leftover
// -eval fails at flag parse instead of being silently ignored.
func TestEvalFlagRemoved(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	for _, tool := range []string{"mscplace", "mscbench"} {
		out := runToolErr(t, tool, "-eval", "rebuild", "-exp", "table1", "-quick")
		if !strings.Contains(out, "flag provided but not defined: -eval") || strings.Contains(out, "Table I") {
			t.Fatalf("%s -eval rebuild: want a flag-parse failure before solving, got:\n%s", tool, out)
		}
	}
}

// TestMscbenchRejectsCostModelCombos: a cost model without a budget exits
// non-zero with a one-line error at flag parse, before any experiment runs.
func TestMscbenchRejectsCostModelCombos(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	bin := buildTool(t, t.TempDir(), "mscbench")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "table1", "-quick", "-cost-model", "length"}, "pass -budget too"},
	} {
		out, err := exec.Command(bin, tc.args...).CombinedOutput()
		if err == nil {
			t.Fatalf("mscbench %v succeeded, want failure:\n%s", tc.args, out)
		}
		if msg := strings.TrimSpace(string(out)); strings.Count(msg, "\n") != 0 || !strings.Contains(msg, tc.want) {
			t.Fatalf("mscbench %v: want one line containing %q, got:\n%s", tc.args, tc.want, out)
		}
	}
}

// TestDenseBackendFlagRejected: every instance runs on the bounded
// d_t-ball table, so -dist-backend dense fails at flag parse with a
// message that says the dense backend was removed, before any input is
// read or any experiment runs.
func TestDenseBackendFlagRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	for tool, args := range map[string][]string{
		"mscplace": {"-dist-backend", "dense", "-in", "does-not-exist.json"},
		"mscbench": {"-dist-backend", "dense", "-exp", "table1", "-quick"},
	} {
		out := runToolErr(t, tool, args...)
		if !strings.Contains(out, "dense distance backend was removed") || strings.Contains(out, "Table I") {
			t.Fatalf("%s %v: want a flag-parse failure saying the dense backend was removed, got:\n%s", tool, args, out)
		}
	}
}

// TestLazyBackendFlagRejected: the lazy row cache is no longer a distance
// backend, so -dist-backend lazy fails at flag parse, before any input is
// read or any experiment runs.
func TestLazyBackendFlagRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	for tool, args := range map[string][]string{
		"mscplace": {"-dist-backend", "lazy", "-in", "does-not-exist.json"},
		"mscbench": {"-dist-backend", "lazy", "-exp", "table1", "-quick"},
	} {
		out := runToolErr(t, tool, args...)
		if !strings.Contains(out, `unknown distance backend "lazy"`) || strings.Contains(out, "Table I") {
			t.Fatalf("%s %v: want a flag-parse failure naming the backend, got:\n%s", tool, args, out)
		}
	}
}

// TestThresholdFlagRejected: a -pt outside (0, 1), a pair count below 1,
// a negative budget or a negative iteration count fails at flag parse
// with a one-line error, before any input is read — not with a panic, not
// with an instance the reader rejects, and not by falling back to the
// instance's value.
func TestThresholdFlagRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	const pt = "want a failure probability in (0, 1)"
	for _, tc := range []struct {
		tool string
		args []string
		want string
	}{
		{"mscplace", []string{"-pt", "1", "-in", "does-not-exist.json"}, pt},
		{"mscplace", []string{"-pt", "-0.2", "-in", "does-not-exist.json"}, pt},
		{"mscplace", []string{"-pt", "NaN", "-in", "does-not-exist.json"}, pt},
		{"mscgen", []string{"-pt", "1", "-n", "20", "-m", "3"}, pt},
		{"mscgen", []string{"-kind", "rgg", "-n", "20", "-m", "-3"}, "-m -3: want at least one pair"},
		{"mscgen", []string{"-kind", "social", "-m", "-3"}, "-m -3: want at least one pair"},
		{"mscgen", []string{"-kind", "rgg", "-n", "20", "-m", "3", "-k", "-2"}, "-k -2: want a non-negative shortcut budget"},
		{"mscplace", []string{"-k", "-1", "-in", "does-not-exist.json"}, "-k -1: want a positive shortcut budget"},
		{"mscplace", []string{"-iters", "-2", "-in", "does-not-exist.json"}, "-iters -2: want a non-negative iteration count"},
	} {
		out := runToolErr(t, tc.tool, tc.args...)
		if !strings.Contains(out, tc.want) ||
			strings.Contains(out, "does-not-exist") || strings.Contains(out, "goroutine") {
			t.Fatalf("%s %v: want a one-line flag-parse failure containing %q, got:\n%s", tc.tool, tc.args, tc.want, out)
		}
	}
}

func TestMscbenchJSONLRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	dir := t.TempDir()
	records := filepath.Join(dir, "out.jsonl")
	runTool(t, "mscbench", "-exp", "table1", "-quick", "-jsonl", records)
	out := runTool(t, "mscbench", "-validate", records)
	if !strings.Contains(out, "events OK") || !strings.Contains(out, "run=") {
		t.Fatalf("validation output unexpected: %q", out)
	}
	raw, err := os.ReadFile(records)
	if err != nil {
		t.Fatal(err)
	}
	// Every line is a schema-stable run record: counters present, σ and
	// instance shape populated for per-solver records.
	var solverRecords int
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var rec struct {
			Event     string           `json:"event"`
			Algorithm string           `json:"algorithm"`
			Sigma     *int             `json:"sigma"`
			WallMS    *float64         `json:"wall_ms"`
			Counters  map[string]int64 `json:"counters"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line not valid JSON: %v\n%s", err, line)
		}
		if rec.Event != "run" || rec.Sigma == nil || rec.WallMS == nil || rec.Counters == nil {
			t.Fatalf("run record missing required fields: %s", line)
		}
		if rec.Algorithm == "greedy_sigma" {
			solverRecords++
			if *rec.Sigma < 0 || rec.Counters["candidate_evals"] <= 0 {
				t.Fatalf("solver record implausible: %s", line)
			}
		}
	}
	if solverRecords == 0 {
		t.Fatal("no per-solver run records emitted")
	}
	// Corrupting a record must fail validation.
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, append(raw, []byte("{\"event\":\"run\"}\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	errOut := runToolErr(t, "mscbench", "-validate", bad)
	if !strings.Contains(errOut, "missing required field") {
		t.Fatalf("corrupt record not rejected:\n%s", errOut)
	}
}

// buildTool compiles ./cmd/<tool> to a throwaway binary. Signal tests
// need a real binary: `go run` interposes the toolchain between the test
// and the tool, and does not reliably forward SIGINT.
func buildTool(t *testing.T, dir, tool string) string {
	t.Helper()
	bin := filepath.Join(dir, tool)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+tool)
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", tool, err, out)
	}
	return bin
}

// TestMscplaceSIGINTGraceful: interrupting a long solver run must still
// produce the best-so-far placement on stdout, exit 0, and flush a
// schema-valid JSONL file whose run record says stop_reason "canceled".
func TestMscplaceSIGINTGraceful(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	dir := t.TempDir()
	inst := filepath.Join(dir, "inst.json")
	trace := filepath.Join(dir, "trace.jsonl")
	ckpt := filepath.Join(dir, "ckpt.jsonl")
	runTool(t, "mscgen", "-kind", "rgg", "-n", "80", "-m", "15", "-pt", "0.12",
		"-k", "4", "-seed", "21", "-out", inst)
	bin := buildTool(t, dir, "mscplace")

	cmd := exec.Command(bin, "-in", inst, "-alg", "ea", "-iters", "100000000",
		"-jsonl", trace, "-checkpoint", ckpt, "-checkpoint-every", "1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Wait until the solver has demonstrably made progress (checkpoints
	// are flushed per iteration), then interrupt it.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if st, err := os.Stat(ckpt); err == nil && st.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatalf("no checkpoint appeared; stderr:\n%s", stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("mscplace exited non-zero after SIGINT: %v\nstderr:\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatalf("mscplace did not exit after SIGINT; stdout so far:\n%s", stdout.String())
	}

	out := stdout.String()
	if !strings.Contains(out, "maintained:") {
		t.Fatalf("no best-so-far placement on stdout:\n%s", out)
	}
	if !strings.Contains(out, "stopped:    canceled") {
		t.Fatalf("stop reason not reported:\n%s", out)
	}

	// The JSONL file must be complete and valid despite the interrupt.
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var gotRun bool
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var rec struct {
			Event      string `json:"event"`
			StopReason string `json:"stop_reason"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line not valid JSON: %v\n%s", err, line)
		}
		if rec.Event == "run" {
			gotRun = true
			if rec.StopReason != "canceled" {
				t.Fatalf("run record stop_reason = %q, want canceled", rec.StopReason)
			}
		}
	}
	if !gotRun {
		t.Fatal("no run record flushed after SIGINT")
	}
	runTool(t, "mscbench", "-validate", trace)

	// The interrupted run left a resumable checkpoint.
	out = runTool(t, "mscplace", "-in", inst, "-alg", "ea", "-iters", "100000000",
		"-resume", ckpt, "-deadline", "100ms")
	if !strings.Contains(out, "maintained:") {
		t.Fatalf("resume from interrupted run failed:\n%s", out)
	}
}

// TestMscplaceDeadline: -deadline bounds the run and reports the reason.
func TestMscplaceDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	dir := t.TempDir()
	inst := filepath.Join(dir, "inst.json")
	trace := filepath.Join(dir, "trace.jsonl")
	runTool(t, "mscgen", "-kind", "rgg", "-n", "60", "-m", "12", "-pt", "0.12",
		"-k", "3", "-seed", "22", "-out", inst)
	out := runTool(t, "mscplace", "-in", inst, "-alg", "aea", "-iters", "100000000",
		"-deadline", "200ms", "-jsonl", trace)
	if !strings.Contains(out, "stopped:    deadline") || !strings.Contains(out, "maintained:") {
		t.Fatalf("deadline run output unexpected:\n%s", out)
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"stop_reason":"deadline"`) {
		t.Fatal("run record missing deadline stop reason")
	}
}

// TestMscplaceCheckpointResumeCLI: a run split in two by -checkpoint /
// -resume prints the same placement as the straight-through run.
func TestMscplaceCheckpointResumeCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	dir := t.TempDir()
	inst := filepath.Join(dir, "inst.json")
	ckpt := filepath.Join(dir, "ckpt.jsonl")
	runTool(t, "mscgen", "-kind", "rgg", "-n", "50", "-m", "10", "-pt", "0.12",
		"-k", "3", "-seed", "23", "-out", inst)

	straight := runTool(t, "mscplace", "-in", inst, "-alg", "aea", "-iters", "60", "-seed", "4")
	runTool(t, "mscplace", "-in", inst, "-alg", "aea", "-iters", "25", "-seed", "4",
		"-checkpoint", ckpt)
	resumed := runTool(t, "mscplace", "-in", inst, "-alg", "aea", "-iters", "60", "-seed", "4",
		"-resume", ckpt)
	if straight != resumed {
		t.Fatalf("resumed output differs from straight run:\n--- straight:\n%s--- resumed:\n%s", straight, resumed)
	}

	// Mismatched algorithm and non-evolutionary algorithms are typed,
	// early errors.
	out := runToolErr(t, "mscplace", "-in", inst, "-alg", "ea", "-iters", "60", "-resume", ckpt)
	if !strings.Contains(out, "aea") {
		t.Fatalf("algorithm mismatch not named:\n%s", out)
	}
	out = runToolErr(t, "mscplace", "-in", inst, "-alg", "greedy", "-checkpoint", ckpt)
	if !strings.Contains(out, "require -alg ea or aea") {
		t.Fatalf("checkpoint with greedy not rejected:\n%s", out)
	}
}

func TestMscplaceJSONLTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	dir := t.TempDir()
	inst := filepath.Join(dir, "inst.json")
	trace := filepath.Join(dir, "trace.jsonl")
	runTool(t, "mscgen", "-kind", "rgg", "-n", "40", "-m", "8", "-pt", "0.12",
		"-k", "3", "-seed", "5", "-out", inst)
	out := runTool(t, "mscplace", "-in", inst, "-alg", "greedy", "-jsonl", trace)
	shortcuts := strings.Count(out, "shortcut:")
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var rounds int
	var lastRoundSigma, runSigma int
	var gotRun bool
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var ev struct {
			Event string `json:"event"`
			Sigma int    `json:"sigma"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line not valid JSON: %v\n%s", err, line)
		}
		switch ev.Event {
		case "round":
			rounds++
			lastRoundSigma = ev.Sigma
		case "run":
			gotRun = true
			runSigma = ev.Sigma
		}
	}
	if rounds != shortcuts {
		t.Fatalf("%d round events for %d printed shortcuts:\n%s", rounds, shortcuts, out)
	}
	if !gotRun {
		t.Fatal("no run record emitted")
	}
	if rounds > 0 && lastRoundSigma != runSigma {
		t.Fatalf("final round σ %d != run record σ %d", lastRoundSigma, runSigma)
	}
	// The mscbench validator accepts mscplace traces too — one schema.
	runTool(t, "mscbench", "-validate", trace)
}

// TestMscplaceParReachesSolver: -par goes to the solver as an explicit
// option, so every greedy round scans on exactly that many shards.
func TestMscplaceParReachesSolver(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	dir := t.TempDir()
	inst := filepath.Join(dir, "inst.json")
	runTool(t, "mscgen", "-kind", "rgg", "-n", "40", "-m", "8", "-pt", "0.12",
		"-k", "3", "-seed", "5", "-out", inst)
	for _, par := range []int{1, 3} {
		trace := filepath.Join(dir, fmt.Sprintf("par%d.jsonl", par))
		runTool(t, "mscplace", "-in", inst, "-alg", "greedy", "-par", fmt.Sprint(par), "-jsonl", trace)
		raw, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		rounds := 0
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			var ev struct {
				Event  string `json:"event"`
				Shards int    `json:"shards"`
			}
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("line not valid JSON: %v\n%s", err, line)
			}
			if ev.Event != "round" {
				continue
			}
			rounds++
			if ev.Shards != par {
				t.Errorf("-par %d: round event logs %d shards: %s", par, ev.Shards, line)
			}
		}
		if rounds == 0 {
			t.Fatalf("-par %d: no round events", par)
		}
	}
}

// TestMscplaceBudgetE2E drives a budget-weighted run against the real
// mscplace binary: the knapsack budget and length cost model must show up
// on stdout, in the placement JSON, and in the telemetry run record —
// which must also pass the shared schema validator.
func TestMscplaceBudgetE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	dir := t.TempDir()
	inst := filepath.Join(dir, "inst.json")
	placement := filepath.Join(dir, "placement.json")
	trace := filepath.Join(dir, "trace.jsonl")
	runTool(t, "mscgen", "-kind", "rgg", "-n", "40", "-m", "8", "-pt", "0.12",
		"-k", "2", "-seed", "3", "-out", inst)
	bin := buildTool(t, dir, "mscplace")

	cmd := exec.Command(bin, "-in", inst, "-alg", "sandwich",
		"-budget", "2", "-cost-model", "length", "-out", placement, "-jsonl", trace)
	rawOut, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("mscplace -budget failed: %v\n%s", err, rawOut)
	}
	out := string(rawOut)
	if !strings.Contains(out, "B=2, cost model length") || !strings.Contains(out, "budget spent") {
		t.Fatalf("budgeted run output missing budget report:\n%s", out)
	}

	// The placement JSON carries the budget triple alongside the shortcuts.
	praw, err := os.ReadFile(placement)
	if err != nil {
		t.Fatal(err)
	}
	var pdoc struct {
		Sigma     int        `json:"maintained_pairs"`
		Budget    float64    `json:"budget"`
		CostModel string     `json:"cost_model"`
		CostSpent float64    `json:"cost_spent"`
		Shortcuts [][2]int32 `json:"shortcuts"`
	}
	if err := json.Unmarshal(praw, &pdoc); err != nil {
		t.Fatal(err)
	}
	if pdoc.Budget != 2 || pdoc.CostModel != "length" {
		t.Fatalf("placement JSON budget fields wrong: %+v", pdoc)
	}
	if pdoc.CostSpent <= 0 || pdoc.CostSpent > pdoc.Budget+1e-9 {
		t.Fatalf("cost_spent %v out of (0, %v]", pdoc.CostSpent, pdoc.Budget)
	}

	// The telemetry run record carries the same triple and the stream passes
	// the shared schema validator.
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ValidateJSONL(f); err != nil {
		f.Close()
		t.Fatalf("budgeted trace fails schema validation: %v", err)
	}
	f.Close()
	traw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var gotRun bool
	for _, line := range strings.Split(strings.TrimSpace(string(traw)), "\n") {
		var rec struct {
			Event     string   `json:"event"`
			Budget    *float64 `json:"budget"`
			CostModel *string  `json:"cost_model"`
			CostSpent *float64 `json:"cost_spent"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line not valid JSON: %v\n%s", err, line)
		}
		if rec.Event != "run" {
			continue
		}
		gotRun = true
		if rec.Budget == nil || rec.CostModel == nil || rec.CostSpent == nil {
			t.Fatalf("run record missing budget fields: %s", line)
		}
		if *rec.Budget != 2 || *rec.CostModel != "length" {
			t.Fatalf("run record budget = %v cost_model = %v, want 2 / length", *rec.Budget, *rec.CostModel)
		}
		if *rec.CostSpent != pdoc.CostSpent {
			t.Fatalf("run record cost_spent %v != placement cost_spent %v", *rec.CostSpent, pdoc.CostSpent)
		}
	}
	if !gotRun {
		t.Fatal("no run record emitted for budgeted run")
	}

	// The same instance solved under -k uses the cardinality output format:
	// the two modes are distinguishable at a glance.
	plain := runTool(t, "mscplace", "-in", inst, "-alg", "sandwich")
	if strings.Contains(plain, "budget spent") {
		t.Fatalf("cardinality run leaked budget report:\n%s", plain)
	}
}

// TestMscsweepEndToEnd drives the sweep orchestrator against real
// binaries: a 2×2 matrix (two solvers × two seeds) generates instances,
// fans mscplace across worker processes, and aggregates the kept JSONL
// records into a trajectory. Every kept record file must pass the
// telemetry schema validator, and the trajectory must self-diff with
// zero regressions.
func TestMscsweepEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	dir := t.TempDir()
	for _, tool := range []string{"mscgen", "mscplace", "mscsweep"} {
		buildTool(t, dir, tool)
	}
	matrix := filepath.Join(dir, "matrix.json")
	if err := os.WriteFile(matrix, []byte(`{
		"families": ["rgg"], "n": [40], "m": [8], "p_t": [0.12], "k": [2],
		"solvers": ["greedy", "sandwich"], "seeds": [1, 2], "quick": true
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	records := filepath.Join(dir, "records")
	traj := filepath.Join(dir, "BENCH_e2e.json")

	sweepBin := filepath.Join(dir, "mscsweep")
	cmd := exec.Command(sweepBin, "-matrix", matrix, "-tools", dir,
		"-keep", records, "-out", traj, "-host", "e2e", "-workers", "2")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("mscsweep failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "4 runs -> 2 scenarios") {
		t.Fatalf("sweep summary unexpected:\n%s", out)
	}

	// Every kept per-run record file is a schema-valid telemetry stream.
	kept, err := filepath.Glob(filepath.Join(records, "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 4 {
		t.Fatalf("kept %d record files, want 4: %v", len(kept), kept)
	}
	for _, path := range kept {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		_, err = telemetry.ValidateJSONL(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}

	// mscsweep validates its own trajectory output.
	if out, err := exec.Command(sweepBin, "-validate", traj).CombinedOutput(); err != nil {
		t.Fatalf("trajectory validation failed: %v\n%s", err, out)
	}

	// A trajectory diffed against itself gates clean with zero findings.
	out, err = exec.Command(sweepBin, "-diff", traj, traj).CombinedOutput()
	if err != nil {
		t.Fatalf("self-diff tripped the gate: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "0 regression(s)") {
		t.Fatalf("self-diff not clean:\n%s", out)
	}

	// An injected counter regression must trip the gate with a typed,
	// named finding and a non-zero exit.
	raw, err := os.ReadFile(traj)
	if err != nil {
		t.Fatal(err)
	}
	worse := regexp.MustCompile(`("counters\.dijkstra_runs": \{\n\s*"median": )(\d+)`).
		ReplaceAllString(string(raw), "${1}9999999")
	if worse == string(raw) {
		t.Fatalf("failed to inject regression into trajectory:\n%s", raw)
	}
	worsePath := filepath.Join(dir, "BENCH_worse.json")
	if err := os.WriteFile(worsePath, []byte(worse), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(sweepBin, "-diff", traj, worsePath).CombinedOutput()
	if err == nil {
		t.Fatalf("gate passed a massive counter regression:\n%s", out)
	}
	if !strings.Contains(string(out), "REGRESSION") || !strings.Contains(string(out), "counters.dijkstra_runs") {
		t.Fatalf("gate failure does not name the finding:\n%s", out)
	}
}

// TestMscsweepGateReportOnce diffs the committed baseline against a copy
// with one injected counter regression: the gate fails, and its diff
// report appears exactly once in the output.
func TestMscsweepGateReportOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go toolchain")
	}
	raw, err := os.ReadFile("../BENCH_ci.json")
	if err != nil {
		t.Fatal(err)
	}
	worse := regexp.MustCompile(`("counters\.dijkstra_runs": \{\n\s*"median": )(\d+)`).
		ReplaceAllString(string(raw), "${1}9999999")
	if worse == string(raw) {
		t.Fatal("failed to inject a regression into BENCH_ci.json")
	}
	worsePath := filepath.Join(t.TempDir(), "BENCH_worse.json")
	if err := os.WriteFile(worsePath, []byte(worse), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runToolErr(t, "mscsweep", "-diff", "BENCH_ci.json", worsePath)
	if !strings.Contains(out, "REGRESSION") {
		t.Fatalf("gate failure does not name the regression:\n%s", out)
	}
	if n := strings.Count(out, "scenario-metric pairs"); n != 1 {
		t.Fatalf("diff report header printed %d times, want 1:\n%s", n, out)
	}
}
