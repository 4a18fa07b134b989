// Command mscplace computes a shortcut placement for a problem instance
// produced by mscgen (or hand-written in the same JSON format).
//
// Usage:
//
//	mscplace -in instance.json -alg sandwich
//	mscplace -in instance.json -alg aea -iters 800 -seed 7
//	mscplace -in instance.json -alg cn        # common-node special case
//
// The placement is printed one shortcut per line plus a σ summary, and
// optionally written back as JSON with -out.
//
// Runs are supervised: -deadline bounds wall-clock time, SIGINT/SIGTERM
// request a graceful stop, and in both cases the best placement found so
// far is still printed (and recorded in -jsonl with its stop reason).
// For the evolutionary algorithms, -checkpoint snapshots the run
// periodically and -resume continues a checkpointed run bit-identically.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"msc"
	"msc/internal/cli"
	"msc/internal/obs"
)

func main() { cli.Run("mscplace", run) }

type output struct {
	Algorithm  string     `json:"algorithm"`
	K          int        `json:"k"`
	Pt         float64    `json:"p_t"`
	Sigma      int        `json:"maintained_pairs"`
	TotalPairs int        `json:"total_pairs"`
	Shortcuts  [][2]int32 `json:"shortcuts"`
	// RatioBound is the sandwich algorithm's data-dependent guarantee
	// factor σ(F_σ)/ν(F_σ)·(1−1/e); zero for other algorithms.
	RatioBound float64 `json:"ratio_bound,omitempty"`
	// Survive and SigmaWorst report the survivability mode and the
	// worst-case σ⁻ over its single-failure scenarios; omitted under the
	// fault-free objective.
	Survive    string `json:"survive,omitempty"`
	SigmaWorst *int   `json:"sigma_worst,omitempty"`
	// Budget, CostModel, and CostSpent report a budget-weighted run: the
	// knapsack budget B, the cost model pricing the candidates, and the
	// total price of the placement; omitted for cardinality runs.
	Budget    float64 `json:"budget,omitempty"`
	CostModel string  `json:"cost_model,omitempty"`
	CostSpent float64 `json:"cost_spent,omitempty"`
}

func run(ctx context.Context) (retErr error) {
	var (
		in       = flag.String("in", "", "instance JSON (required)")
		alg      = flag.String("alg", "sandwich", "algorithm: sandwich|greedy|mu|nu|ea|aea|random|cn")
		k        = flag.Int("k", 0, "override shortcut budget (default: instance's)")
		pt       = flag.Float64("pt", 0, "override threshold p_t (default: instance's)")
		iters    = flag.Int("iters", 500, "iterations r (ea, aea)")
		seed     = flag.Int64("seed", 1, "random seed (ea, aea, random)")
		outP     = flag.String("out", "", "also write the result as JSON to this path")
		report   = flag.Bool("report", false, "print a per-pair diagnostic table")
		refine   = flag.Bool("refine", false, "apply local-search swap refinement to the placement")
		par      = flag.Int("par", 0, "candidate-scan workers: 1 = serial, 0 = GOMAXPROCS (placements are identical either way)")
		budgetF  = flag.Float64("budget", 0, "knapsack budget B replacing the cardinality budget k; shortcut prices come from -cost-model (0 = cardinality placement)")
		costTab  = flag.String("cost-table", "", "per-pair shortcut price table JSON for -cost-model table")
		distB    = cli.AddDistBackendFlag(flag.CommandLine)
		survM    = cli.AddSurviveFlag(flag.CommandLine)
		costM    = cli.AddCostModelFlag(flag.CommandLine)
		jsonl    = flag.String("jsonl", "", "write per-round telemetry events and a run record as JSON lines to this file")
		deadline = flag.Duration("deadline", 0, "wall-clock budget for the solver; on expiry the best-so-far placement is emitted (0 = none)")
		ckpt     = flag.String("checkpoint", "", "write resumable run snapshots as JSON lines to this file (ea, aea)")
		ckptEach = flag.Int("checkpoint-every", 25, "snapshot cadence in iterations for -checkpoint (0 = final state only)")
		resume   = flag.String("resume", "", "resume an ea/aea run from the last checkpoint in this file; -iters is the total budget")
		version  = flag.Bool("version", false, "print version and exit")
	)
	prof := cli.AddProfileFlags(flag.CommandLine)
	opsF := cli.AddOpsFlags(flag.CommandLine)
	flag.Parse()
	if *version {
		fmt.Println(cli.Version("mscplace"))
		return nil
	}
	backend, err := msc.ParseDistBackend(*distB)
	if err != nil {
		return err
	}
	survive, err := msc.ParseSurvivability(*survM)
	if err != nil {
		return err
	}
	costModel, err := msc.ParseCostModel(*costM)
	if err != nil {
		return err
	}
	budgeted := *budgetF != 0 || costModel != msc.CostModelAuto || *costTab != ""
	if budgeted && *alg == "cn" {
		return fmt.Errorf("-alg cn solves the cardinality common-node case; it does not support -budget")
	}
	if *costTab != "" && costModel != msc.CostModelAuto && costModel != msc.CostTable {
		return fmt.Errorf("-cost-table conflicts with -cost-model %s", costModel)
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer stopProf()
	plane, err := opsF.Start("mscplace")
	if err != nil {
		return err
	}
	defer func() {
		if cerr := plane.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "mscplace: ops:", cerr)
		}
	}()
	// On a solver panic (a shard panic re-raised by ParallelFor), dump the
	// flight recorder before the crash surfaces.
	defer plane.Recover()

	var jsonlSink *msc.JSONLSink
	if *jsonl != "" {
		tf, err := os.Create(*jsonl)
		if err != nil {
			return err
		}
		defer tf.Close()
		jsonlSink = msc.NewJSONLSink(tf)
	}
	// The solver gets ONE sink: the ops plane's fanout when the plane is up
	// (with the JSONL file attached to it), the bare JSONL sink otherwise.
	// A typed-nil *JSONLSink must never reach the interface, so the
	// interface value is only assigned from non-nil concrete sinks.
	var sink msc.TelemetrySink
	if jsonlSink != nil {
		sink = jsonlSink
	}
	if plane != nil {
		plane.Attach(sink)
		sink = plane.Sink()
	}
	if sink != nil {
		// Any sink implies round-level clock reads already, so also feed the
		// obs histograms — RunRecord.ShardImbalance works without -ops.
		obs.SetEnabled(true)
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	doc, g, err := msc.ReadInstanceGraph(f)
	if err != nil {
		return err
	}
	ps, err := doc.PairSet()
	if err != nil {
		return err
	}
	if ps == nil {
		return fmt.Errorf("instance carries no important pairs")
	}
	budget := doc.Budget
	if *k > 0 {
		budget = *k
	}
	if budget <= 0 && budgeted {
		// Under -budget the knapsack budget B replaces cardinality k; the
		// instance still validates k ≥ 1, so default it.
		budget = 1
	}
	if budget <= 0 {
		return fmt.Errorf("no shortcut budget: set one in the instance or pass -k")
	}
	threshold := doc.FailureThreshold
	if *pt > 0 {
		threshold = *pt
	}
	if threshold <= 0 {
		return fmt.Errorf("no threshold: set one in the instance or pass -pt")
	}
	instOpts := &msc.InstanceOptions{AllowTrivial: true, DistBackend: backend, Survive: survive}
	if budgeted {
		instOpts.Budget = *budgetF
		instOpts.CostModel = costModel
		if *costTab != "" {
			tf, err := os.Open(*costTab)
			if err != nil {
				return err
			}
			ct, err := msc.ReadCostTable(tf)
			tf.Close()
			if err != nil {
				return err
			}
			// Expand the per-pair table into the dense per-candidate price
			// vector the instance validates against its universe.
			costs := make([]float64, msc.NumCandidatesFor(g.N()))
			for u := int32(0); u < int32(g.N()); u++ {
				for v := u + 1; v < int32(g.N()); v++ {
					costs[msc.CandidateIndexFor(g.N(), msc.Edge{U: u, V: v})] = ct.Cost(u, v)
				}
			}
			instOpts.Costs = costs
			instOpts.CostModel = msc.CostTable
		}
	}
	// The run record's counters cover the instance build (the baseline's
	// endpoint balls); its wall_ms is the solve alone.
	before := msc.CountersSnapshot()
	inst, err := msc.NewInstance(g, ps, msc.NewThreshold(threshold), budget, instOpts)
	if err != nil {
		return err
	}
	// Under a survivability mode placements carry a second figure of merit:
	// the worst-case σ⁻ over the instance's single-failure scenarios.
	survivable := inst.Survive() != msc.SurviveNone
	sigmaWorst := func(sel []int) int { return inst.SigmaWorst(sel) }
	rng := msc.NewRand(*seed)

	// A typed-nil sink must never reach an interface-typed option (it
	// would defeat the solvers' nil fast path), so options are built only
	// when tracing is on. -par reaches every solver entry explicitly.
	solverOpts := []msc.Option{msc.WithContext(ctx), msc.WithDeadline(*deadline), msc.Parallelism(*par)}
	eaOpts := msc.EAOptions{Iterations: *iters, Context: ctx, Deadline: *deadline, Parallelism: *par}
	aeaOpts := msc.DefaultAEAOptions()
	aeaOpts.Iterations = *iters
	aeaOpts.Context = ctx
	aeaOpts.Deadline = *deadline
	aeaOpts.Parallelism = *par
	lsOpts := msc.LocalSearchOptions{Context: ctx, Deadline: *deadline, Parallelism: *par}
	if sink != nil {
		solverOpts = append(solverOpts, msc.WithSink(sink))
		eaOpts.Sink = sink
		aeaOpts.Sink = sink
		lsOpts.Sink = sink
	}

	evolutionary := *alg == "ea" || *alg == "aea"
	if (*ckpt != "" || *resume != "") && !evolutionary {
		return fmt.Errorf("-checkpoint/-resume require -alg ea or aea, got %q", *alg)
	}
	if *resume != "" {
		rf, err := os.Open(*resume)
		if err != nil {
			return err
		}
		cp, err := msc.LastCheckpoint(rf)
		rf.Close()
		if err != nil {
			return fmt.Errorf("resume %s: %w", *resume, err)
		}
		if cp.Algorithm != *alg {
			return fmt.Errorf("resume %s: checkpoint is from -alg %s, not %s", *resume, cp.Algorithm, *alg)
		}
		if cp.Round > *iters {
			return fmt.Errorf("resume %s: checkpoint at iteration %d exceeds -iters %d", *resume, cp.Round, *iters)
		}
		eaOpts.Resume = cp
		aeaOpts.Resume = cp
	}
	if *ckpt != "" {
		// Checkpoints write crash-safely: each snapshot atomically replaces
		// the file, so a kill mid-write can never tear the stream a later
		// -resume depends on.
		ckptSink := msc.NewAtomicJSONLSink(*ckpt)
		defer func() {
			if err := ckptSink.Err(); err != nil && retErr == nil {
				retErr = fmt.Errorf("checkpoint: %w", err)
			}
		}()
		eaOpts.CheckpointSink = ckptSink
		aeaOpts.CheckpointSink = ckptSink
		eaOpts.CheckpointEvery = *ckptEach
		aeaOpts.CheckpointEvery = *ckptEach
	}
	imbBefore := obs.ShardImbalance.Snapshot()
	start := time.Now()

	var pl msc.Placement
	var ratio float64
	switch *alg {
	case "sandwich":
		res := msc.Sandwich(inst, solverOpts...)
		pl, ratio = res.Best, res.ApproxFactor
	case "greedy":
		pl = msc.GreedySigma(inst, solverOpts...)
	case "mu":
		pl = msc.GreedyMu(inst)
	case "nu":
		pl = msc.GreedyNu(inst)
	case "ea":
		pl = msc.EA(inst, eaOpts, rng).Best
	case "aea":
		pl = msc.AEA(inst, aeaOpts, rng).Best
	case "random":
		var rerr error
		pl, rerr = msc.RandomPlacement(inst, *iters, rng, solverOpts...)
		if rerr != nil {
			return rerr
		}
	case "cn":
		res, err := msc.SolveCommonNode(inst)
		if err != nil {
			return err
		}
		pl = res.Placement
	default:
		return fmt.Errorf("unknown algorithm %q", *alg)
	}

	if *refine {
		refined := msc.LocalSearch(inst, pl.Selection, lsOpts)
		// Survivable placements compare lexicographically by (σ⁻, σ): a swap
		// that hardens the worst failure scenario wins even at equal σ.
		improved := refined.Sigma > pl.Sigma
		if survivable {
			w := inst.MaxSigma() + 1
			improved = sigmaWorst(refined.Selection)*w+refined.Sigma > sigmaWorst(pl.Selection)*w+pl.Sigma
		}
		if improved {
			fmt.Printf("refinement: σ %d -> %d\n", pl.Sigma, refined.Sigma)
			pl = refined
		}
	}

	declaredWorst := -1
	if survivable {
		declaredWorst = sigmaWorst(pl.Selection)
	}
	costSpent := 0.0
	if budgeted {
		costSpent = inst.CostOf(pl.Selection)
	}
	if sink != nil {
		sink.Emit(msc.RunRecord{
			ShardImbalance:   obs.ShardImbalance.Snapshot().Sub(imbBefore).Mean(),
			Name:             *alg,
			Algorithm:        *alg,
			Seed:             *seed,
			Workers:          *par,
			DistBackend:      *distB,
			Survive:          string(inst.Survive()),
			N:                inst.N(),
			Pairs:            ps.Len(),
			Candidates:       inst.NumCandidates(),
			K:                budget,
			Pt:               threshold,
			Budget:           inst.Budget(),
			CostSpent:        costSpent,
			CostModel:        string(inst.CostModel()),
			Sigma:            pl.Sigma,
			MaxSigma:         inst.MaxSigma(),
			SigmaWorst:       declaredWorst,
			WallMS:           float64(time.Since(start).Nanoseconds()) / 1e6,
			RowBytesResident: msc.RowBytesResident(),
			Counters:         msc.CountersSnapshot().Sub(before),
			StopReason:       string(pl.Stop.Reason),
		})
	}
	// A silently failed telemetry file is worse than no file: surface the
	// sticky write error as a nonzero exit after the human-readable output.
	defer func() {
		if jsonlSink == nil || retErr != nil {
			return
		}
		if err := jsonlSink.Err(); err != nil {
			retErr = fmt.Errorf("jsonl: %w", err)
		}
	}()

	fmt.Printf("algorithm:  %s\n", *alg)
	switch pl.Stop.Reason {
	case msc.StopDeadline, msc.StopCanceled:
		fmt.Printf("stopped:    %s after %d rounds (best-so-far placement follows)\n",
			pl.Stop.Reason, pl.Stop.Rounds)
	}
	if budgeted {
		fmt.Printf("maintained: %d / %d pairs (p_t=%.3g, B=%g, cost model %s)\n",
			pl.Sigma, ps.Len(), threshold, inst.Budget(), inst.CostModel())
		fmt.Printf("cost:       %g / %g budget spent\n", costSpent, inst.Budget())
	} else {
		fmt.Printf("maintained: %d / %d pairs (p_t=%.3g, k=%d)\n", pl.Sigma, ps.Len(), threshold, budget)
	}
	if survivable {
		fmt.Printf("worst-case: %d / %d pairs through any single %s failure\n",
			declaredWorst, ps.Len(), inst.Survive())
	}
	if ratio > 0 {
		fmt.Printf("guarantee:  ≥ %.3f × optimal\n", ratio)
	}
	for _, e := range pl.Edges {
		fmt.Printf("shortcut:   %s -- %s\n", g.Label(e.U), g.Label(e.V))
	}
	if *report {
		fmt.Println()
		fmt.Print(msc.FormatReport(msc.Report(inst, pl.Selection)))
	}

	if *outP != "" {
		res := output{
			Algorithm:  *alg,
			K:          budget,
			Pt:         threshold,
			Sigma:      pl.Sigma,
			TotalPairs: ps.Len(),
			RatioBound: ratio,
		}
		if survivable {
			res.Survive = string(inst.Survive())
			res.SigmaWorst = &declaredWorst
		}
		if budgeted {
			res.Budget = inst.Budget()
			res.CostModel = string(inst.CostModel())
			res.CostSpent = costSpent
		}
		for _, e := range pl.Edges {
			res.Shortcuts = append(res.Shortcuts, [2]int32{e.U, e.V})
		}
		of, err := os.Create(*outP)
		if err != nil {
			return err
		}
		defer of.Close()
		enc := json.NewEncoder(of)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	}
	return nil
}
