package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"msc"
)

// placement is the JSON document mscplace -out writes, for the fields the
// benchmark's workloads produce (no budget). The timed child writes the
// same document, so the two are compared field by field.
type placement struct {
	Algorithm  string     `json:"algorithm"`
	K          int        `json:"k"`
	Pt         float64    `json:"p_t"`
	Sigma      int        `json:"maintained_pairs"`
	TotalPairs int        `json:"total_pairs"`
	Shortcuts  [][2]int32 `json:"shortcuts"`
	RatioBound float64    `json:"ratio_bound,omitempty"`
	Survive    string     `json:"survive,omitempty"`
	SigmaWorst *int       `json:"sigma_worst,omitempty"`
}

// childTimes is what the timed child prints: its three phases in ns.
type childTimes struct {
	SetupNS int64 `json:"setup_ns"`
	SolveNS int64 `json:"solve_ns"`
	EmitNS  int64 `json:"emit_ns"`
}

// loaded is an instance document read and converted the way mscplace does.
type loaded struct {
	doc msc.InstanceDocument
	g   *msc.Graph
	ps  *msc.PairSet
}

func readInstance(path string) (msc.InstanceDocument, error) {
	f, err := os.Open(path)
	if err != nil {
		return msc.InstanceDocument{}, err
	}
	defer f.Close()
	doc, err := msc.ReadInstanceJSON(f)
	if err != nil {
		return msc.InstanceDocument{}, fmt.Errorf("read %s: %w", path, err)
	}
	return doc, nil
}

func (l *loaded) convert() error {
	g, err := l.doc.Graph()
	if err != nil {
		return err
	}
	ps, err := l.doc.PairSet()
	if err != nil {
		return err
	}
	if ps == nil {
		return fmt.Errorf("instance carries no important pairs")
	}
	l.g, l.ps = g, ps
	return nil
}

// newInstance builds the instance with mscplace's options: the job's
// distance backend and survivability mode, every other option at its
// default.
func (l *loaded) newInstance(j job) (*msc.Instance, error) {
	orAuto := func(s string) string {
		if s == "" {
			return "auto"
		}
		return s
	}
	backend, err := msc.ParseDistBackend(orAuto(j.Backend))
	if err != nil {
		return nil, err
	}
	survive, err := msc.ParseSurvivability(orAuto(j.Survive))
	if err != nil {
		return nil, err
	}
	return msc.NewInstance(l.g, l.ps, msc.NewThreshold(l.doc.FailureThreshold), l.doc.Budget,
		&msc.InstanceOptions{AllowTrivial: true, DistBackend: backend, Survive: survive})
}

// solve runs the job's solver on p with mscplace's options and returns
// the placement and the sandwich guarantee factor (0 for other solvers).
func solve(p msc.Problem, j job) (msc.Placement, float64, error) {
	ctx := context.Background()
	opts := []msc.Option{msc.WithContext(ctx), msc.WithDeadline(0)}
	switch j.Alg {
	case "sandwich":
		res := msc.Sandwich(p, opts...)
		return res.Best, res.ApproxFactor, nil
	case "greedy":
		return msc.GreedySigma(p, opts...), 0, nil
	case "aea":
		o := msc.DefaultAEAOptions()
		o.Iterations = j.Iters
		o.Context = ctx
		return msc.AEA(p, o, msc.NewRand(j.Seed)).Best, 0, nil
	}
	return msc.Placement{}, 0, fmt.Errorf("unsupported algorithm %q", j.Alg)
}

// encodePlacement renders the placement document exactly as mscplace -out
// does, σ⁻ included under a survivability mode.
func encodePlacement(inst *msc.Instance, l *loaded, j job, pl msc.Placement, ratio float64) ([]byte, error) {
	res := placement{
		Algorithm:  j.Alg,
		K:          l.doc.Budget,
		Pt:         l.doc.FailureThreshold,
		Sigma:      pl.Sigma,
		TotalPairs: l.ps.Len(),
		RatioBound: ratio,
	}
	if inst.Survive() != msc.SurviveNone {
		worst := inst.SigmaWorst(pl.Selection)
		res.Survive = string(inst.Survive())
		res.SigmaWorst = &worst
	}
	for _, e := range pl.Edges {
		res.Shortcuts = append(res.Shortcuts, [2]int32{e.U, e.V})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// runChild is the timed child: mscplace's facade sequence for one job,
// split by clock reads into set-up (open, parse, graph, pairs, instance),
// solve and emit (encode and write the placement).
func runChild(j job) (childTimes, error) {
	t0 := time.Now()
	l := &loaded{}
	var err error
	if l.doc, err = readInstance(j.In); err != nil {
		return childTimes{}, err
	}
	if err := l.convert(); err != nil {
		return childTimes{}, err
	}
	inst, err := l.newInstance(j)
	if err != nil {
		return childTimes{}, err
	}
	t1 := time.Now()
	pl, ratio, err := solve(inst, j)
	if err != nil {
		return childTimes{}, err
	}
	t2 := time.Now()
	body, err := encodePlacement(inst, l, j, pl, ratio)
	if err != nil {
		return childTimes{}, err
	}
	if err := os.WriteFile(j.Out, body, 0o644); err != nil {
		return childTimes{}, err
	}
	t3 := time.Now()
	return childTimes{SetupNS: t1.Sub(t0).Nanoseconds(), SolveNS: t2.Sub(t1).Nanoseconds(), EmitNS: t3.Sub(t2).Nanoseconds()}, nil
}
