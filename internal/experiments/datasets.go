package experiments

import (
	"fmt"

	"msc/internal/core"
	"msc/internal/gen/rgg"
	"msc/internal/gen/social"
	"msc/internal/graph"
	"msc/internal/shortestpath"
	"msc/internal/telemetry"
	"msc/internal/xrand"
)

// Config selects the experiment scale and seed.
type Config struct {
	// Seed drives every random draw; equal seeds reproduce runs exactly.
	Seed int64
	// Quick shrinks instance sizes and iteration counts so the whole
	// suite runs in seconds — used by tests; benchmarks and cmd/mscbench
	// use the paper-scale defaults.
	Quick bool
	// Sink, when non-nil, receives a telemetry RunRecord per solver run an
	// experiment performs (currently the Table I/II grid cells). Results
	// are identical with and without a sink.
	Sink telemetry.Sink
	// Options are the instance options every experiment builds from
	// (backend, survivability, budget, cost model). Each experiment sets
	// its own AllowTrivial, Table, ExcludePairEndpoints and PairWeights.
	Options core.Options
	// Parallelism is the worker count of every solver run (run); 1 is
	// serial, <= 0 selects GOMAXPROCS. Results are identical either way.
	Parallelism int
}

func (c Config) rng(stream int64) *xrand.Rand {
	// Independent deterministic stream per use-site.
	return xrand.New(c.Seed*1_000_003 + stream)
}

// Paper-scale workload parameters (§VII-A), with the substitutions recorded
// in DESIGN.md. The failure coefficients are the calibration knobs that
// make the paper's p_t sweeps non-degenerate on our synthetic substrates.
const (
	rggRadius          = 0.18
	rggFailAtRadius    = 0.08
	socialFailAtRadius = 0.45
	mobilityRadius     = 700.0
	mobilityFailAtR    = 0.25
)

// dataset bundles a graph with its distance table so multiple thresholds
// reuse one APSP computation.
type dataset struct {
	name  string
	g     *graph.Graph
	table *shortestpath.Table
}

func (c Config) rggDataset() dataset {
	n := 100
	radius := rggRadius
	if c.Quick {
		// Smaller graphs need a larger radius to stay connected.
		n, radius = 40, 0.27
	}
	g, err := rgg.Generate(rgg.Config{
		N:                n,
		Radius:           radius,
		FailureAtRadius:  rggFailAtRadius,
		RequireConnected: true,
	}, c.rng(1))
	if err != nil {
		panic(fmt.Sprintf("experiments: rgg dataset: %v", err))
	}
	return dataset{name: "RG", g: g, table: shortestpath.NewTable(g, 0)}
}

func (c Config) socialDataset() dataset {
	cfg := social.DefaultConfig()
	cfg.FailureAtRadius = socialFailAtRadius
	if c.Quick {
		cfg.Users = 50
		cfg.Venues = 5
	}
	net, err := social.Generate(cfg, c.rng(2))
	if err != nil {
		panic(fmt.Sprintf("experiments: social dataset: %v", err))
	}
	return dataset{name: "Gowalla", g: net.Graph, table: shortestpath.NewTable(net.Graph, 0)}
}

// options returns Config.Options for one instance over table, with the
// fields the experiments own reset: AllowTrivial is on (sweeps include k
// close to m), and callers set ExcludePairEndpoints and PairWeights.
func (c Config) options(table shortestpath.DistanceSource) *core.Options {
	o := c.Options
	o.AllowTrivial, o.Table = true, table
	o.ExcludePairEndpoints, o.PairWeights = false, nil
	return &o
}

// run is the run control every solver call gets: an Option to the
// option-taking solvers, the embedded RunOptions of the EA/AEA options.
func (c Config) run() core.RunOptions { return core.RunOptions{Parallelism: c.Parallelism} }
