package main

import (
	"fmt"
	"strconv"
)

// workload is one family of inputs: how mscgen makes its instances and
// how mscplace solves them. One pass solves every instance once.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Gen holds the mscgen flags besides -seed and -out.
	Gen []string `json:"gen"`
	// Instances is the number of instances per pass. Instance i of
	// benchmark seed S is generated with seed (S-1)·Instances + i + 1, so
	// distinct benchmark seeds never share an instance.
	Instances int    `json:"instances"`
	Alg       string `json:"alg"`               // mscplace -alg: sandwich, greedy or aea
	Iters     int    `json:"iters,omitempty"`   // mscplace -iters (aea)
	Survive   string `json:"survive,omitempty"` // mscplace -survive; "" keeps the default
	Backend   string `json:"backend,omitempty"` // mscplace -dist-backend; "" keeps the default
}

// workloads are the benchmark's input families. Each layer the solvers
// use does most of its work in one of them and little in another, and all
// three distance backends run: dense (below 512 nodes) and lazy by the
// automatic choice, bounded by flag, since the automatic switch at 10⁵
// nodes would make one run longer than the time a run may take.
// Several small instances per pass, rather than one large one, keep the
// seed-to-seed spread of the summed times small.
var workloads = []workload{
	{
		Name:      "paper-sandwich",
		Why:       "the paper's AA at paper scale on the lazy backend: mu/nu coverage build and the coverage-greedy arms dominate the solve",
		Gen:       []string{"-kind", "rgg", "-n", "520", "-m", "100", "-k", "10", "-pt", "0.11"},
		Instances: 10,
		Alg:       "sandwich",
	},
	{
		Name:      "paper-aea",
		Why:       "AEA on the dense table: the gains scan, fresh searches and RemoveAt rebuilds dominate, with both cores busy",
		Gen:       []string{"-kind", "rgg", "-n", "400", "-m", "80", "-k", "8", "-pt", "0.11"},
		Instances: 4,
		Alg:       "aea",
		Iters:     80,
	},
	{
		Name:      "social-survive",
		Why:       "survivable greedy on a Gowalla-style social graph: per-scenario clones and row merges put most of the solve in Add",
		Gen:       []string{"-kind", "social", "-users", "500", "-m", "60", "-k", "6", "-pt", "0.23"},
		Instances: 32,
		Alg:       "greedy",
		Survive:   "shortcut",
	},
	{
		Name:      "scale-greedy",
		Why:       "greedy at 2x10^4 nodes on the bounded backend: JSON parsing, graph build and landmarks dominate set-up and time",
		Gen:       []string{"-kind", "rgg", "-n", "20000", "-m", "128", "-k", "8", "-pt", "0.11"},
		Instances: 3,
		Alg:       "greedy",
		Backend:   "bounded",
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// genSeed returns the generator seed of instance i under benchmark seed s.
func (w workload) genSeed(s int64, i int) int64 {
	return (s-1)*int64(w.Instances) + int64(i) + 1
}

// job is one instance solve: the input file and the solver settings, as
// the timed child and the real mscplace both receive them.
type job struct {
	In      string `json:"in"`
	Out     string `json:"out"`
	Alg     string `json:"alg"`
	Iters   int    `json:"iters,omitempty"`
	Seed    int64  `json:"seed"`
	Survive string `json:"survive,omitempty"`
	Backend string `json:"backend,omitempty"`
}

func (w workload) job(in, out string, seed int64) job {
	return job{In: in, Out: out, Alg: w.Alg, Iters: w.Iters, Seed: seed, Survive: w.Survive, Backend: w.Backend}
}

// mscplaceArgs returns the mscplace command line that solves j; the
// default -par 0 and every other default are left alone.
func (j job) mscplaceArgs() []string {
	args := []string{"-in", j.In, "-alg", j.Alg, "-seed", strconv.FormatInt(j.Seed, 10), "-out", j.Out}
	if j.Iters > 0 {
		args = append(args, "-iters", strconv.Itoa(j.Iters))
	}
	if j.Survive != "" {
		args = append(args, "-survive", j.Survive)
	}
	if j.Backend != "" {
		args = append(args, "-dist-backend", j.Backend)
	}
	return args
}
