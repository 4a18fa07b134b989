// Command mscsim validates a placement by Monte-Carlo delivery simulation:
// it samples independent link failures and reports, per important pair,
// how often the best path delivered — checking the MSC guarantee (failure
// ≤ p_t for maintained pairs) against actual packet luck.
//
// Usage:
//
//	mscsim -in instance.json -placement placement.json -trials 20000
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"msc"
	"msc/internal/cli"
)

func main() { cli.Run("mscsim", run) }

func run(ctx context.Context) error {
	_ = ctx // simulation batches are short; no supervision points needed
	var (
		in      = flag.String("in", "", "instance JSON (required)")
		place   = flag.String("placement", "", "placement JSON from mscplace -out (optional: empty = no shortcuts)")
		trials  = flag.Int("trials", 10000, "simulation trials")
		seed    = flag.Int64("seed", 1, "random seed")
		version = flag.Bool("version", false, "print version and exit")
	)
	opsF := cli.AddOpsFlags(flag.CommandLine)
	flag.Parse()
	if *version {
		fmt.Println(cli.Version("mscsim"))
		return nil
	}
	plane, err := opsF.Start("mscsim")
	if err != nil {
		return err
	}
	defer func() {
		if cerr := plane.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "mscsim: ops:", cerr)
		}
	}()
	defer plane.Recover()
	if *in == "" {
		return fmt.Errorf("-in is required")
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
	var shortcuts []msc.Edge
	if *place != "" {
		pf, err := os.Open(*place)
		if err != nil {
			return err
		}
		defer pf.Close()
		var pdoc struct {
			Shortcuts [][2]int32 `json:"shortcuts"`
		}
		if err := json.NewDecoder(pf).Decode(&pdoc); err != nil {
			return fmt.Errorf("decode placement: %w", err)
		}
		for _, s := range pdoc.Shortcuts {
			shortcuts = append(shortcuts, msc.Edge{U: s[0], V: s[1]})
		}
	}
	nw, err := msc.NewSimNetwork(g, shortcuts)
	if err != nil {
		return err
	}
	results, err := msc.SimulateDelivery(nw, ps.Pairs(), *trials, msc.NewRand(*seed))
	if err != nil {
		return err
	}
	pt := doc.FailureThreshold
	fmt.Printf("%d trials, %d shortcuts, p_t=%.3g\n\n", *trials, len(shortcuts), pt)
	fmt.Printf("%-12s %-10s %-10s %-10s %s\n", "pair", "best-path", "predicted", "any-path", "meets p_t")
	ok := 0
	for _, r := range results {
		meets := pt > 0 && r.PredictedBestPath >= 1-pt
		if meets {
			ok++
		}
		fmt.Printf("{%d, %d}%-6s %-10.4f %-10.4f %-10.4f %v\n",
			r.Pair.U, r.Pair.W, "", r.BestPath, r.PredictedBestPath, r.AnyPath, meets)
	}
	if pt > 0 {
		fmt.Printf("\nmaintained: %d/%d pairs meet the failure bound analytically\n", ok, len(results))
	}
	return nil
}
