package core

import (
	"math"
	"time"

	"msc/internal/telemetry"
)

// SandwichResult reports the approximation algorithm AA of §V-B: the best
// of three greedy arms together with the data-dependent approximation
// bound of Eq. (5).
type SandwichResult struct {
	// Best is argmax_{F ∈ {FMu, FSigma, FNu}} σ(F).
	Best Placement
	// FMu, FSigma, FNu are the three greedy arms.
	FMu, FSigma, FNu Placement
	// Ratio is σ(F_σ)/ν(F_σ), the computable factor of the bound: AA is
	// guaranteed at least Ratio · (1 − 1/e) of the optimum (the paper's
	// practical form of Eq. (5); Tables I and II report this Ratio).
	Ratio float64
	// ApproxFactor is Ratio · (1 − 1/e) on cardinality problems. On
	// budgeted problems the μ/ν arms run the knapsack weighted greedy,
	// whose guarantee is ½(1 − 1/e) (Khuller–Moss–Naor), so the factor is
	// Ratio · ½(1 − 1/e).
	ApproxFactor float64
	// NuAtFSigma is ν(F_σ), kept for diagnostics.
	NuAtFSigma float64
}

// Sandwich runs the approximation algorithm (AA): greedy placements for the
// lower bound μ, the objective σ itself, and the upper bound ν, returning
// the one that maintains the most social pairs. Per Eq. (5),
//
//	σ(F_app) ≥ (σ(F_σ)/ν(F_σ)) · (1 − 1/e) · σ(F*).
//
// The run's options (e.g. Parallelism, WithSink) apply to the F_σ arm, the
// only arm with a sharded candidate scan; the μ/ν arms run the serial
// coverage greedy of internal/maxcover over structures built from the
// pair endpoints' d_t-balls, the same balls the σ search reads (see
// Instance.buildBounds). With a sink attached, the F_σ arm emits its
// per-round trace and Sandwich itself emits one closing SandwichEvent
// summarizing the three arms and the bound.
func Sandwich(p Problem, opts ...Option) SandwichResult {
	run, release := RunOptions{}.resolve(opts...)
	defer release()
	start := time.Now()
	res := SandwichResult{
		FMu: GreedyMu(p),
		// The F_σ arm runs under this run itself: resolved, its deadline
		// is already part of its context, so the clock keeps running.
		FSigma: GreedySigma(p, run),
		FNu:    GreedyNu(p),
	}
	// The winner is the arm of largest objective: under a survivability
	// mode that is (σ⁻, σ) lexicographically, so an arm that keeps more
	// pairs through the worst single failure beats one that only looks
	// better fault-free. Each arm's σ is reused; only σ⁻ is evaluated.
	armValue := func(pl Placement) int { return objectiveAt(p, pl.Selection, pl.Sigma) }
	res.Best = res.FMu
	best, bestVal := "mu", armValue(res.FMu)
	if v := armValue(res.FSigma); v > bestVal {
		res.Best, best, bestVal = res.FSigma, "sigma", v
	}
	if v := armValue(res.FNu); v > bestVal {
		res.Best, best, bestVal = res.FNu, "nu", v
	}
	res.NuAtFSigma = p.Nu(res.FSigma.Selection)
	if res.NuAtFSigma > 0 {
		res.Ratio = float64(res.FSigma.Sigma) / res.NuAtFSigma
	} else {
		res.Ratio = 1 // ν ≥ σ ≥ 0; ν == 0 forces σ == 0 too
	}
	res.ApproxFactor = res.Ratio * (1 - 1/math.E)
	if _, budgeted := asBudgeted(p); budgeted {
		res.ApproxFactor /= 2 // the weighted-greedy arms only carry ½(1−1/e)
	}
	// The μ/ν arms run the coverage greedy open-loop, so only the F_σ arm
	// observes cancellation; its stop reason describes the whole run,
	// re-attached with the winning arm's σ.
	res.Best.Stop = StopInfo{
		Reason: res.FSigma.Stop.Reason,
		Rounds: res.FSigma.Stop.Rounds,
		Sigma:  res.Best.Sigma,
	}
	if run.Sink != nil {
		_, bestWorst := splitObjective(p, bestVal)
		run.Sink.Emit(telemetry.SandwichEvent{
			SigmaMu:      res.FMu.Sigma,
			SigmaSigma:   res.FSigma.Sigma,
			SigmaNu:      res.FNu.Sigma,
			Best:         best,
			Sigma:        res.Best.Sigma,
			SigmaWorst:   bestWorst,
			Ratio:        res.Ratio,
			ApproxFactor: res.ApproxFactor,
			NuAtFSigma:   res.NuAtFSigma,
			ElapsedNS:    time.Since(start).Nanoseconds(),
		})
	}
	return res
}
