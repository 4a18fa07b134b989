// Command mscgen generates MSC problem instances and mobility traces as
// files for the other tools.
//
// Usage:
//
//	mscgen -kind rgg -n 100 -m 17 -pt 0.11 -k 6 -out instance.json
//	mscgen -kind social -m 63 -pt 0.23 -k 6 -out gowalla.json
//	mscgen -kind mobility -n 90 -steps 30 -out trace.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"

	"msc"
	"msc/internal/cli"
)

func main() { cli.Run("mscgen", run) }

func run(ctx context.Context) error {
	_ = ctx // generation is fast; no supervision points needed
	var (
		kind    = flag.String("kind", "rgg", "workload: rgg|social|mobility")
		n       = flag.Int("n", 100, "node count (rgg, mobility)")
		m       = flag.Int("m", 17, "important social pairs to sample (rgg, social)")
		pt      = flag.Float64("pt", 0.11, "failure-probability threshold p_t")
		k       = flag.Int("k", 6, "shortcut budget recorded in the instance")
		seed    = flag.Int64("seed", 1, "random seed")
		out     = flag.String("out", "", "output path (default stdout)")
		steps   = flag.Int("steps", 30, "time instances (mobility)")
		radius  = flag.Float64("radius", 0, "RGG connection radius (0 = auto-scale with n)")
		users   = flag.Int("users", 0, "social user count (0 = the paper's 134-user Gowalla subgraph; larger values scale venues and area at constant density)")
		version = flag.Bool("version", false, "print version and exit")
	)
	opsF := cli.AddOpsFlags(flag.CommandLine)
	flag.Parse()
	if *version {
		fmt.Println(cli.Version("mscgen"))
		return nil
	}
	if !(*pt > 0 && *pt < 1) {
		return fmt.Errorf("-pt %v: want a failure probability in (0, 1)", *pt)
	}
	if *kind == "rgg" || *kind == "social" {
		if *m < 1 {
			return fmt.Errorf("-m %d: want at least one pair", *m)
		}
		if *k < 0 {
			return fmt.Errorf("-k %d: want a non-negative shortcut budget", *k)
		}
	}
	plane, err := opsF.Start("mscgen")
	if err != nil {
		return err
	}
	defer func() {
		if cerr := plane.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "mscgen: ops:", cerr)
		}
	}()
	defer plane.Recover()

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	rng := msc.NewRand(*seed)

	switch *kind {
	case "rgg":
		r := *radius
		if r <= 0 {
			// ~1.6× the RGG connectivity threshold sqrt(ln n / (π n)),
			// which keeps RequireConnected reliable at any n.
			r = 1.6 * math.Sqrt(math.Log(float64(*n))/(math.Pi*float64(*n)))
		}
		g, err := msc.GenerateRGG(msc.RGGConfig{
			N:                *n,
			Radius:           r,
			FailureAtRadius:  0.08,
			RequireConnected: true,
		}, rng)
		if err != nil {
			return err
		}
		return writeInstance(w, g, *m, *pt, *k, rng)
	case "social":
		cfg := msc.DefaultSocialConfig()
		if *users > 0 {
			cfg = msc.ScaledSocialConfig(*users)
		}
		net, err := msc.GenerateSocial(cfg, rng)
		if err != nil {
			return err
		}
		return writeInstance(w, net.Graph, *m, *pt, *k, rng)
	case "mobility":
		cfg := msc.DefaultMobilityConfig()
		cfg.Nodes = *n
		cfg.Steps = *steps
		tr, err := msc.GenerateMobilityTrace(cfg, rng)
		if err != nil {
			return err
		}
		return tr.WriteCSV(w)
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
}

// exhaustiveSamplerMaxN is the node count below which writeInstance
// samples pairs exhaustively from a dense table. It keeps the instances
// of existing seeds byte-stable.
const exhaustiveSamplerMaxN = 512

// writeInstance samples threshold-violating pairs and streams the
// instance to w. The sampler follows the node count: small networks keep
// the dense table and the exhaustive sampler (every violating pair
// enumerable, byte-stable output for existing seeds); from
// exhaustiveSamplerMaxN the exhaustive ~n²/2 scan is the bottleneck, so
// rejection sampling over point queries takes over, backed by
// bounded-reach sparse rows — each trial touches one d_t-ball row instead
// of a dense row. A pair violates d_t exactly when its ball misses the
// partner, so the draws are the ones full rows would give.
func writeInstance(w *os.File, g *msc.Graph, m int, pt float64, k int, rng *msc.Rand) error {
	thr := msc.NewThreshold(pt)
	var (
		ps  *msc.PairSet
		err error
	)
	if g.N() < exhaustiveSamplerMaxN {
		ps, err = msc.SampleViolatingPairs(msc.NewDistanceTable(g), thr, m, rng)
	} else {
		table, terr := msc.NewBoundedDistanceTable(g, msc.BoundedTableOptions{Reach: thr.D})
		if terr != nil {
			return terr
		}
		ps, err = msc.SampleViolatingPairsRandom(table, thr, m, rng)
	}
	if err != nil {
		return err
	}
	return msc.StreamInstanceJSON(w, g, ps, pt, k)
}
