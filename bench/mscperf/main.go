// Command mscperf is the repository's benchmark. It generates instances
// with this tree's mscgen, solves them the way mscplace does, and reports
// end-to-end metrics (tracing off, one child process per solve) and
// per-layer metrics (a traced child that times every call the solvers make
// into the layers' public functions). It checks every output.
//
// Usage (from the repository root, through bench/run.sh, or with go run
// from the bench module):
//
//	mscperf -seed 1 -out results/                 # one set: all workloads, both legs
//	mscperf -workload paper-aea -seed 3 -trace 0  # one workload, end-to-end leg only
//	mscperf -compare parent/results.json change/results.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; metrics holds the metrics
// BENCHMARK.json lists for the legs that ran.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
)

// defaultSeconds is each leg's time budget per workload, as BENCHMARK.json
// sets run_seconds.
const defaultSeconds = 15

func main() {
	if mode := os.Getenv(childEnv); mode != "" {
		os.Exit(childMain(mode))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run parses the command line and runs one invocation. It returns 0 when
// every output was correct, 1 when a check failed, and 2 when the
// benchmark could not run (no result line is printed then).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mscperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run only this workload (default: every workload, one set)")
		seed    = fs.Int64("seed", 1, "benchmark seed; it picks every generated instance")
		seconds = fs.Float64("seconds", defaultSeconds, "time budget of each leg per workload; at least one rep or pass always runs")
		legs    = fs.Int("trace", -1, "legs to run: 0 = end-to-end only (tracing off), 1 = traced leg only, -1 = both")
		out     = fs.String("out", "", "append this set to DIR/results.json (a JSON array) and write DIR/trace-<workload>.jsonl")
		compare = fs.Bool("compare", false, "compare two results files: mscperf -compare PARENT.json CHANGE.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "mscperf: unexpected arguments %q\n", fs.Args())
		return 2
	}
	o := options{workloads: workloads, seed: *seed, seconds: *seconds, legs: *legs, log: stderr}
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "mscperf:", err)
			return 2
		}
		o.workloads = []workload{w}
	}
	set, err := runSet(ctx, o)
	if err != nil {
		fmt.Fprintln(stderr, "mscperf:", err)
		return 2
	}
	if *out != "" {
		if err := writeSet(*out, set); err != nil {
			fmt.Fprintln(stderr, "mscperf:", err)
			return 2
		}
	}
	printSet(stdout, set)
	line, correct := resultLine(set, o)
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

// printSet prints every metric of every workload by name with its unit,
// then the checks.
func printSet(w io.Writer, set *setResult) {
	for _, wr := range set.Workloads {
		fmt.Fprintf(w, "== %s (seed %d, %d instances)\n", wr.Name, set.Seed, len(wr.Inputs))
		for _, m := range allMetrics() {
			v, ok := wr.Metrics[m.Name]
			switch {
			case !ok:
				continue
			case v.Value == nil:
				fmt.Fprintf(w, "  %-32s %14s %-6s\n", m.Name, "null", m.Unit)
			default:
				fmt.Fprintf(w, "  %-32s %14.6g %-6s [q1 %.6g, q3 %.6g, n=%d]\n", m.Name, *v.Value, m.Unit, *v.Q1, *v.Q3, v.N)
			}
		}
		for _, name := range sortedKeys(wr.Checks) {
			c := wr.Checks[name]
			fmt.Fprintf(w, "  check %-26s %d ran, %d failed\n", name, c.Ran, c.Failed)
		}
		for _, p := range wr.Problems {
			fmt.Fprintf(w, "  problem: %s\n", p)
		}
	}
}

// resultLine renders the closing JSON object: the metrics BENCHMARK.json
// lists for the legs that ran, named "<workload>/<metric>" when the set
// has more than one workload.
func resultLine(set *setResult, o options) ([]byte, bool) {
	type value struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, wr := range set.Workloads {
		res.Correct = res.Correct && wr.correct()
		res.Attempted += wr.Attempted
		res.Failed += wr.Failed
		for _, m := range allMetrics() {
			if !m.Listed || (m.Layer && !o.traced()) || (!m.Layer && !o.e2e()) {
				continue
			}
			key := m.Name
			if len(set.Workloads) > 1 {
				key = wr.Name + "/" + m.Name
			}
			v := wr.Metrics[m.Name].Value
			if v == nil || math.IsNaN(*v) || math.IsInf(*v, 0) {
				// A listed metric is a number on every workload; anything
				// else means the run went wrong.
				res.Correct, v = false, nil
			}
			res.Metrics[key] = value{Value: v, Unit: m.Unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // only finite numbers and strings are encoded
	}
	return line, res.Correct
}

// writeSet appends the set to dir/results.json and writes each
// workload's spans to dir/trace-<workload>.jsonl.
func writeSet(dir string, set *setResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "results.json")
	sets, err := readSets(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	sets = append(sets, *set)
	data, err := json.MarshalIndent(sets, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	for _, wr := range set.Workloads {
		if wr.spans == "" {
			continue
		}
		name := filepath.Join(dir, "trace-"+wr.Name+".jsonl")
		if err := os.WriteFile(name, []byte(wr.spans), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func readSets(path string) ([]setResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sets []setResult
	if err := json.Unmarshal(data, &sets); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sets, nil
}

// sortedKeys returns the keys of m in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
