// Command mscviz renders a problem instance (and optionally a placement
// produced by mscplace) as SVG or an ASCII sketch.
//
// Usage:
//
//	mscviz -in instance.json -placement placement.json -out picture.svg
//	mscviz -in instance.json -ascii
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

func main() { cli.Run("mscviz", run) }

type placementFile struct {
	Shortcuts [][2]int32 `json:"shortcuts"`
	Sigma     int        `json:"maintained_pairs"`
}

func run(ctx context.Context) error {
	_ = ctx // rendering is fast; no supervision points needed
	var (
		in      = flag.String("in", "", "instance JSON (required)")
		place   = flag.String("placement", "", "placement JSON from mscplace -out")
		out     = flag.String("out", "", "SVG output path (default stdout)")
		ascii   = flag.Bool("ascii", false, "emit an ASCII sketch instead of SVG")
		title   = flag.String("title", "", "picture title")
		width   = flag.Int("width", 720, "SVG width in pixels")
		version = flag.Bool("version", false, "print version and exit")
	)
	opsF := cli.AddOpsFlags(flag.CommandLine)
	flag.Parse()
	if *version {
		fmt.Println(cli.Version("mscviz"))
		return nil
	}
	plane, err := opsF.Start("mscviz")
	if err != nil {
		return err
	}
	defer func() {
		if cerr := plane.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "mscviz: ops:", cerr)
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
	sc := msc.Scene{Graph: g, Pairs: ps, Title: *title}
	if *place != "" {
		pf, err := os.Open(*place)
		if err != nil {
			return err
		}
		defer pf.Close()
		var pl placementFile
		if err := json.NewDecoder(pf).Decode(&pl); err != nil {
			return fmt.Errorf("decode placement: %w", err)
		}
		for _, s := range pl.Shortcuts {
			sc.Shortcuts = append(sc.Shortcuts, msc.Edge{U: s[0], V: s[1]})
		}
		if sc.Title == "" {
			sc.Title = fmt.Sprintf("%d shortcuts, %d pairs maintained", len(sc.Shortcuts), pl.Sigma)
		}
	}
	w := os.Stdout
	if *out != "" {
		of, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer of.Close()
		w = of
	}
	if *ascii {
		return msc.WriteSceneASCII(w, sc)
	}
	return msc.WriteSceneSVG(w, sc, msc.SVGOptions{Width: *width})
}
