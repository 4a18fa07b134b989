// Command mscbench regenerates the tables and figures of the paper's
// evaluation (§VII) and prints them as aligned text (or CSV).
//
// Usage:
//
//	mscbench -exp table1              # Table I on the RG graph
//	mscbench -exp all -seed 7         # everything, custom seed
//	mscbench -exp fig3 -csv           # Fig. 3 series as CSV
//	mscbench -exp fig1 -svg out/      # also write Fig. 1 SVG renderings
//	mscbench -exp fig5a -quick        # reduced-scale smoke run
//	mscbench -exp table1 -quick -jsonl out.jsonl   # machine-readable run records
//	mscbench -validate out.jsonl      # schema-check a JSONL record file
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"msc/internal/cli"
	"msc/internal/core"
	"msc/internal/experiments"
	"msc/internal/shortestpath"
	"msc/internal/telemetry"
	"msc/internal/viz"
)

func main() { cli.Run("mscbench", run) }

// validIDs lists every runnable experiment, in suite order. "all" expands
// to exactly this list.
var validIDs = []string{"table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5a", "fig5b", "ext1", "ext2", "ext3", "ext4"}

// resolveIDs expands and validates a comma-separated -exp value. Unknown
// ids fail fast — before any experiment runs — with the full valid set, so
// a typo can never masquerade as a clean empty run. Repeated ids (given
// twice, or once plus via "all") run once, keeping first-occurrence order:
// each experiment owns its id in the output, so a duplicate would double
// the suite's wall time and emit ambiguous duplicate records.
func resolveIDs(exp string) ([]string, error) {
	known := make(map[string]bool, len(validIDs))
	for _, id := range validIDs {
		known[id] = true
	}
	var ids []string
	seen := make(map[string]bool, len(validIDs))
	add := func(id string) {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	for _, id := range strings.Split(exp, ",") {
		id = strings.TrimSpace(id)
		switch {
		case id == "all":
			for _, v := range validIDs {
				add(v)
			}
		case known[id]:
			add(id)
		default:
			return nil, fmt.Errorf("unknown experiment %q: valid ids are %s, all", id, strings.Join(validIDs, ", "))
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("no experiment ids given: valid ids are %s, all", strings.Join(validIDs, ", "))
	}
	return ids, nil
}

func run(ctx context.Context) (retErr error) {
	_ = ctx // suite experiments run to completion; records stay comparable
	var (
		exp      = flag.String("exp", "all", "experiment id(s), comma-separated: "+strings.Join(validIDs, "|")+"|all")
		seed     = flag.Int64("seed", 1, "random seed (equal seeds reproduce runs exactly)")
		quick    = flag.Bool("quick", false, "reduced-scale smoke run")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned text")
		svg      = flag.String("svg", "", "directory to write fig1 SVG renderings into")
		par      = flag.Int("par", 0, "candidate-scan workers: 1 = serial, 0 = GOMAXPROCS (results are identical either way)")
		budgetF  = flag.Float64("budget", 0, "knapsack budget B replacing the cardinality budget k on every instance; prices come from -cost-model (0 = cardinality placement)")
		distB    = cli.AddDistBackendFlag(flag.CommandLine)
		survM    = cli.AddSurviveFlag(flag.CommandLine)
		costM    = cli.AddCostModelFlag(flag.CommandLine)
		jsonl    = flag.String("jsonl", "", "write machine-readable run records as JSON lines to this file")
		validate = flag.String("validate", "", "validate a JSONL run-record file against the telemetry schema and exit")
		version  = flag.Bool("version", false, "print version and exit")
	)
	prof := cli.AddProfileFlags(flag.CommandLine)
	opsF := cli.AddOpsFlags(flag.CommandLine)
	flag.Parse()
	if *version {
		fmt.Println(cli.Version("mscbench"))
		return nil
	}
	if *validate != "" {
		return validateFile(*validate)
	}
	opts, err := suiteOptions(*budgetF, *distB, *survM, *costM)
	if err != nil {
		return err
	}

	ids, err := resolveIDs(*exp)
	if err != nil {
		return err
	}
	if err := refuseDynamic(ids, opts); err != nil {
		return err
	}
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer stopProf()
	plane, err := opsF.Start("mscbench")
	if err != nil {
		return err
	}
	defer func() {
		if cerr := plane.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "mscbench: ops:", cerr)
		}
	}()
	defer plane.Recover()

	cfg := experiments.Config{Seed: *seed, Quick: *quick, Options: opts, Parallelism: *par}
	var jsonlSink *telemetry.JSONLSink
	if *jsonl != "" {
		f, err := os.Create(*jsonl)
		if err != nil {
			return err
		}
		defer f.Close()
		jsonlSink = telemetry.NewJSONL(f)
		// A sink write that failed silently poisons BENCH aggregation;
		// surface the sticky error as a nonzero exit.
		defer func() {
			if err := jsonlSink.Err(); err != nil && retErr == nil {
				retErr = fmt.Errorf("jsonl: %w", err)
			}
		}()
	}
	// One sink feeds the experiments: the plane's fanout when ops is on
	// (JSONL attached), the bare JSONL sink otherwise. Typed-nil sinks
	// never reach the interface.
	var sink telemetry.Sink
	if jsonlSink != nil {
		sink = jsonlSink
	}
	if plane != nil {
		plane.Attach(sink)
		sink = plane.Sink()
	}
	cfg.Sink = sink
	for _, id := range ids {
		before := telemetry.Global().Snapshot()
		start := time.Now()
		if err := runOne(cfg, id, *csv, *svg); err != nil {
			return err
		}
		elapsed := time.Since(start)
		if sink != nil {
			// A whole-experiment record on top of the per-solver records
			// Config.Sink emits: no single σ applies, so Sigma is −1 by
			// schema convention.
			sink.Emit(telemetry.RunRecord{
				Name:        id,
				Algorithm:   "experiment",
				Seed:        *seed,
				Workers:     *par,
				DistBackend: *distB,
				Survive:     *survM,
				Quick:       *quick,
				Budget:      *budgetF,
				CostModel:   benchCostModel(opts),
				Sigma:       -1,
				SigmaWorst:  -1,
				WallMS:      float64(elapsed.Nanoseconds()) / 1e6,

				RowBytesResident: shortestpath.RowBytesResident(),
				Counters:         telemetry.Global().Snapshot().Sub(before),
			})
		}
		fmt.Printf("[%s took %v]\n\n", id, elapsed.Round(time.Millisecond))
	}
	return nil
}

// suiteOptions parses the instance flags into the one core.Options value
// every experiment builds from. It refuses flag combinations the suite
// cannot honour, before any experiment runs.
func suiteOptions(budget float64, distB, survM, costM string) (core.Options, error) {
	opts := core.Options{Budget: budget}
	var err error
	if opts.DistBackend, err = core.ParseDistBackend(distB); err != nil {
		return opts, err
	}
	if opts.Survive, err = core.ParseSurvivability(survM); err != nil {
		return opts, err
	}
	if opts.CostModel, err = core.ParseCostModel(costM); err != nil {
		return opts, err
	}
	switch {
	case opts.CostModel == core.CostTable:
		// A per-candidate table needs one price vector per instance; the
		// suite builds many instances, so only the shared models apply.
		return opts, fmt.Errorf(`-cost-model table needs a per-instance price table (use mscplace -cost-table); mscbench supports unit and length`)
	case budget < 0:
		return opts, fmt.Errorf("-budget must be non-negative, got %v", budget)
	case budget == 0 && opts.CostModel != core.CostModelAuto:
		return opts, fmt.Errorf("-cost-model %s prices a knapsack budget; pass -budget too", opts.CostModel)
	}
	return opts, nil
}

// dynamicIDs are the experiments that place on dynamic problems, whose
// objective sums the fault-free σ of cardinality time instances.
var dynamicIDs = map[string]bool{"fig5a": true, "fig5b": true, "ext2": true, "ext3": true}

// refuseDynamic refuses -survive and -budget for the dynamic experiments
// among ids (dynamic.NewProblem refuses such instances), before any
// experiment runs.
func refuseDynamic(ids []string, opts core.Options) error {
	if (opts.Survive == core.SurviveAuto || opts.Survive == core.SurviveNone) && opts.Budget == 0 {
		return nil
	}
	for _, id := range ids {
		if dynamicIDs[id] {
			return fmt.Errorf("-exp %s places on a dynamic problem, which supports neither -survive nor -budget", id)
		}
	}
	return nil
}

// benchCostModel names the cost model of a budgeted suite run ("" for
// cardinality runs, the resolved model otherwise — auto prices unit).
func benchCostModel(opts core.Options) string {
	if opts.Budget == 0 {
		return ""
	}
	if opts.CostModel == core.CostModelAuto {
		return string(core.CostUnit)
	}
	return string(opts.CostModel)
}

// validateFile schema-checks a JSONL record file and prints the per-kind
// line counts. An empty file is an error: CI points this at freshly
// emitted records, where zero lines means the emitter is broken.
func validateFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	counts, err := telemetry.ValidateJSONL(f)
	if err != nil {
		return fmt.Errorf("validate %s: %w", path, err)
	}
	total := 0
	kinds := make([]string, 0, len(counts))
	for kind, n := range counts {
		total += n
		kinds = append(kinds, kind)
	}
	if total == 0 {
		return fmt.Errorf("validate %s: no events found", path)
	}
	sort.Strings(kinds)
	fmt.Printf("%s: %d events OK", path, total)
	for _, kind := range kinds {
		fmt.Printf(" %s=%d", kind, counts[kind])
	}
	fmt.Println()
	return nil
}

func runOne(cfg experiments.Config, id string, csv bool, svgDir string) error {
	emitTable := func(t *experiments.Table) {
		if csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.Format())
		}
	}
	emitFigs := func(figs ...*experiments.Figure) {
		for _, f := range figs {
			if csv {
				fmt.Print(f.CSV())
			} else {
				fmt.Println(f.Format())
			}
		}
	}
	switch id {
	case "table1":
		emitTable(cfg.Table1())
	case "table2":
		emitTable(cfg.Table2())
	case "fig1":
		res := cfg.Fig1()
		fmt.Printf("Fig 1: placement comparison (k=%d, p_t=%.2f)\n", res.K, res.Pt)
		fmt.Printf("  AA:     %v\n", res.AA)
		fmt.Printf("  Random: %v\n\n", res.Random)
		if err := viz.WriteASCII(os.Stdout, res.SceneAA); err != nil {
			return err
		}
		if err := viz.WriteASCII(os.Stdout, res.SceneRandom); err != nil {
			return err
		}
		if svgDir != "" {
			if err := writeSVGs(res, svgDir); err != nil {
				return err
			}
		}
	case "fig2":
		emitFigs(cfg.Fig2()...)
	case "fig3":
		emitFigs(cfg.Fig3()...)
	case "fig4":
		emitFigs(cfg.Fig4()...)
	case "fig5a":
		emitFigs(cfg.Fig5a())
	case "fig5b":
		emitFigs(cfg.Fig5b())
	case "ext1":
		emitFigs(cfg.Ext1()...)
	case "ext2":
		emitFigs(cfg.Ext2())
	case "ext3":
		emitFigs(cfg.Ext3())
	case "ext4":
		emitFigs(cfg.Ext4())
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	return nil
}

func writeSVGs(res experiments.Fig1Result, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, item := range []struct {
		name  string
		scene viz.Scene
	}{
		{"fig1_aa.svg", res.SceneAA},
		{"fig1_random.svg", res.SceneRandom},
	} {
		f, err := os.Create(filepath.Join(dir, item.name))
		if err != nil {
			return err
		}
		if err := viz.WriteSVG(f, item.scene, viz.SVGOptions{}); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", filepath.Join(dir, item.name))
	}
	return nil
}
