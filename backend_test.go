package msc_test

import (
	"math"
	"reflect"
	"testing"

	"msc"
)

// backendCell is one solver run of TestDefaultTableMatchesDense.
type backendCell struct {
	name  string
	opts  msc.InstanceOptions
	solve func(p msc.Problem, seed int64) (msc.Placement, float64)
}

var (
	sandwichCell = func(p msc.Problem, _ int64) (msc.Placement, float64) {
		res := msc.Sandwich(p)
		return res.Best, res.ApproxFactor
	}
	greedyCell = func(p msc.Problem, _ int64) (msc.Placement, float64) {
		return msc.GreedySigma(p), 0
	}
)

func aeaCell(iters int) func(msc.Problem, int64) (msc.Placement, float64) {
	return func(p msc.Problem, seed int64) (msc.Placement, float64) {
		o := msc.DefaultAEAOptions()
		o.Iterations = iters
		return msc.AEA(p, o, msc.NewRand(seed)).Best, 0
	}
}

// genInstance draws pairs the way mscgen does: exhaustively from a dense
// table below 512 nodes, by rejection over a bounded table from 512.
func genInstance(t *testing.T, g *msc.Graph, m int, pt float64, rng *msc.Rand) *msc.PairSet {
	t.Helper()
	thr := msc.NewThreshold(pt)
	var (
		ps  *msc.PairSet
		err error
	)
	if g.N() < 512 {
		ps, err = msc.SampleViolatingPairs(msc.NewDistanceTable(g), thr, m, rng)
	} else {
		table, terr := msc.NewBoundedDistanceTable(g, msc.BoundedTableOptions{Reach: thr.D})
		if terr != nil {
			t.Fatal(terr)
		}
		ps, err = msc.SampleViolatingPairsRandom(table, thr, m, rng)
	}
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// genRGG is mscgen -kind rgg with its default radius.
func genRGG(t *testing.T, n, m int, pt float64, seed int64) (*msc.Graph, *msc.PairSet) {
	t.Helper()
	rng := msc.NewRand(seed)
	g, err := msc.GenerateRGG(msc.RGGConfig{
		N:                n,
		Radius:           1.6 * math.Sqrt(math.Log(float64(n))/(math.Pi*float64(n))),
		FailureAtRadius:  0.08,
		RequireConnected: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return g, genInstance(t, g, m, pt, rng)
}

// genSocial is mscgen -kind social -users users.
func genSocial(t *testing.T, users, m int, pt float64, seed int64) (*msc.Graph, *msc.PairSet) {
	t.Helper()
	rng := msc.NewRand(seed)
	net, err := msc.GenerateSocial(msc.ScaledSocialConfig(users), rng)
	if err != nil {
		t.Fatal(err)
	}
	return net.Graph, genInstance(t, net.Graph, m, pt, rng)
}

// TestDefaultTableMatchesDense: every instance built without a supplied
// table runs on the bounded d_t-ball table. On the CI cells (sandwich,
// AEA and length-priced budgeted greedy at n = 600, node-mode survivable
// greedy at n = 250) and on the paper-aea (n = 400) and social-survive
// (500 users) benchmark families, it must place exactly what an instance
// over a supplied dense table places: the same shortcuts, σ, guarantee
// factor, σ⁻ and price.
func TestDefaultTableMatchesDense(t *testing.T) {
	if testing.Short() {
		t.Skip("solves paper-scale instances")
	}
	type family struct {
		name  string
		gen   func(t *testing.T) (*msc.Graph, *msc.PairSet)
		pt    float64
		k     int
		cells []backendCell
	}
	rgg := func(n, m int, pt float64, seed int64) func(*testing.T) (*msc.Graph, *msc.PairSet) {
		return func(t *testing.T) (*msc.Graph, *msc.PairSet) { return genRGG(t, n, m, pt, seed) }
	}
	families := []family{
		{"rgg600", rgg(600, 40, 0.11, 1), 0.11, 4, []backendCell{
			{"sandwich", msc.InstanceOptions{}, sandwichCell},
			{"aea", msc.InstanceOptions{}, aeaCell(20)},
			{"length", msc.InstanceOptions{Budget: 4, CostModel: msc.CostLength}, greedyCell},
		}},
		{"rgg250", rgg(250, 40, 0.11, 1), 0.11, 4, []backendCell{
			{"node", msc.InstanceOptions{Survive: msc.SurviveNode}, greedyCell},
		}},
		{"paper-aea", rgg(400, 80, 0.11, 1), 0.11, 8, []backendCell{
			{"aea", msc.InstanceOptions{}, aeaCell(80)},
		}},
		{"social-survive", func(t *testing.T) (*msc.Graph, *msc.PairSet) { return genSocial(t, 500, 60, 0.23, 1) }, 0.23, 6, []backendCell{
			{"greedy", msc.InstanceOptions{Survive: msc.SurviveShortcut}, greedyCell},
		}},
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			g, ps := fam.gen(t)
			dense := msc.NewDistanceTable(g)
			for _, cell := range fam.cells {
				t.Run(cell.name, func(t *testing.T) {
					type result struct {
						pl     msc.Placement
						factor float64
						worst  int
						cost   float64
					}
					var res [2]result
					for i, table := range []msc.DistanceSource{nil, dense} {
						opts := cell.opts
						opts.AllowTrivial, opts.Table = true, table
						inst, err := msc.NewInstance(g, ps, msc.NewThreshold(fam.pt), fam.k, &opts)
						if err != nil {
							t.Fatal(err)
						}
						if i == 0 {
							if _, ok := inst.Table().(*msc.BoundedDistanceTable); !ok {
								t.Fatalf("default instance runs on %T, want the bounded table", inst.Table())
							}
						}
						pl, factor := cell.solve(inst, 1)
						r := result{pl: pl, factor: factor, worst: -1, cost: inst.CostOf(pl.Selection)}
						if inst.Survive() != msc.SurviveNone {
							r.worst = inst.SigmaWorst(pl.Selection)
						}
						res[i] = r
					}
					def, den := res[0], res[1]
					if !reflect.DeepEqual(def.pl.Edges, den.pl.Edges) || def.pl.Sigma != den.pl.Sigma {
						t.Errorf("placements differ: default σ=%d %v, dense σ=%d %v", def.pl.Sigma, def.pl.Edges, den.pl.Sigma, den.pl.Edges)
					}
					if def.factor != den.factor || def.worst != den.worst || def.cost != den.cost {
						t.Errorf("figures differ: default (factor %v, σ⁻ %d, cost %v), dense (%v, %d, %v)",
							def.factor, def.worst, def.cost, den.factor, den.worst, den.cost)
					}
					if len(def.pl.Edges) == 0 {
						t.Errorf("empty placement: the cell checks nothing")
					}
				})
			}
		})
	}
}
