package core

import (
	"fmt"

	"msc/internal/telemetry"
	"msc/internal/xrand"
)

// Checkpoint/resume for the randomized solvers. A telemetry.CheckpointEvent
// is a complete snapshot of an EA/AEA run at an iteration boundary: RNG
// stream position (seed + draw count), population in archive order, best
// feasible solution, and iteration count. Both solvers draw randomness only
// through the counted xrand stream and mutate no other cross-iteration
// state, so restore-and-continue replays the straight-through run bit for
// bit (locked by checkpoint_test.go).
//
// Durability is the sink's job: point CheckpointSink at a
// telemetry.AtomicJSONLSink (mscplace -checkpoint does) so a crash
// mid-snapshot can never tear the stream — the file on disk is always the
// previous or the new complete snapshot sequence, and LastCheckpoint
// never sees a partial line.

// emitCheckpoint sends sink, when non-nil, the snapshot of an alg run
// ("ea" or "aea") after rounds completed iterations: the rng's stream
// position, the population in order, the best solution, and evals (EA's
// evaluation count; AEA passes 0).
func emitCheckpoint(sink telemetry.Sink, alg string, rounds int, rng *xrand.Rand, pop []eaSol, best eaSol, evals int) {
	if sink == nil {
		return
	}
	seed, draws := rng.State()
	cp := telemetry.CheckpointEvent{
		Algorithm:   alg,
		Round:       rounds,
		Seed:        seed,
		Draws:       draws,
		Population:  make([]telemetry.CheckpointSolution, len(pop)),
		Best:        best.snapshot(),
		Evaluations: evals,
	}
	for i, s := range pop {
		cp.Population[i] = s.snapshot()
	}
	sink.Emit(cp)
}

func (s eaSol) snapshot() telemetry.CheckpointSolution {
	return telemetry.CheckpointSolution{Selection: append([]int(nil), s.sel...), Sigma: s.sigma}
}

// resumeFrom restores an alg run from cp: it validates cp (checkResume),
// positions rng at cp's stream position, and returns cp's population and
// best solution, their costs left zero.
func resumeFrom(alg string, cp *telemetry.CheckpointEvent, iterations int, rng *xrand.Rand) (pop []eaSol, best eaSol) {
	checkResume(alg, cp, iterations)
	rng.Restore(cp.Seed, cp.Draws)
	pop = make([]eaSol, len(cp.Population))
	for i, s := range cp.Population {
		pop[i] = eaSol{sel: append([]int(nil), s.Selection...), sigma: s.Sigma}
	}
	return pop, eaSol{sel: append([]int(nil), cp.Best.Selection...), sigma: cp.Best.Sigma}
}

// checkResume validates that a checkpoint belongs to the named algorithm
// and fits the iteration budget. Violations are programmer/CLI errors, so
// the solvers panic; mscplace validates first and reports typed errors.
func checkResume(alg string, cp *telemetry.CheckpointEvent, iterations int) {
	if cp.Algorithm != alg {
		panic(fmt.Sprintf("core: resume checkpoint belongs to %q, not %q", cp.Algorithm, alg))
	}
	if cp.Round > iterations {
		panic(fmt.Sprintf("core: resume checkpoint at round %d exceeds the %d-iteration budget", cp.Round, iterations))
	}
}

// checkpointDue reports whether a checkpoint should be emitted after
// `done` completed iterations out of `total`, with cadence `every`
// (0 = final iteration only).
func checkpointDue(done, total, every int) bool {
	if done == total {
		return true
	}
	return every > 0 && done%every == 0
}
