package social

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"msc/internal/xrand"
)

func TestGenerateDefault(t *testing.T) {
	net, err := Generate(DefaultConfig(), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph
	if g.N() != 134 {
		t.Fatalf("users = %d, want 134", g.N())
	}
	// The paper's subgraph has ~1.9k edges; clustered check-ins should
	// produce the same order of magnitude.
	if g.M() < 400 || g.M() > 4000 {
		t.Fatalf("edges = %d, outside plausible range", g.M())
	}
	if len(net.VenueOf) != g.N() {
		t.Fatal("venue assignment size mismatch")
	}
	solo := 0
	for _, v := range net.VenueOf {
		if v == -1 {
			solo++
		} else if v < 0 || v >= len(net.VenueCenters) {
			t.Fatalf("venue index %d out of range", v)
		}
	}
	if solo == 0 || solo == g.N() {
		t.Fatalf("solo users = %d, want a strict fraction", solo)
	}
}

func TestScaledConfig(t *testing.T) {
	if got, want := ScaledConfig(134), DefaultConfig(); got != want {
		t.Fatalf("ScaledConfig(134) = %+v, want DefaultConfig %+v", got, want)
	}
	if got, want := ScaledConfig(0), DefaultConfig(); got != want {
		t.Fatalf("ScaledConfig(0) = %+v, want DefaultConfig %+v", got, want)
	}
	big := ScaledConfig(13400) // 100× the paper's subgraph
	def := DefaultConfig()
	if big.Users != 13400 {
		t.Fatalf("users = %d", big.Users)
	}
	if big.Venues != 100*def.Venues {
		t.Fatalf("venues = %d, want %d (linear in users)", big.Venues, 100*def.Venues)
	}
	if got, want := big.AreaMeters, def.AreaMeters*10; math.Abs(got-want) > 1e-9 {
		t.Fatalf("area side = %v, want %v (√scale)", got, want)
	}
	// Physical constants stay fixed at any scale.
	if big.ConnectRadiusMeters != def.ConnectRadiusMeters ||
		big.VenueScatterMeters != def.VenueScatterMeters ||
		big.SoloFraction != def.SoloFraction ||
		big.FailureAtRadius != def.FailureAtRadius {
		t.Fatalf("physical constants drifted: %+v", big)
	}
	if tiny := ScaledConfig(3); tiny.Venues < 1 {
		t.Fatalf("tiny scale lost all venues: %+v", tiny)
	}
}

func TestScaledConfigGenerates(t *testing.T) {
	// A 5× city must still generate: same density, bigger downtown.
	cfg := ScaledConfig(670)
	net, err := Generate(cfg, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if net.Graph.N() != 670 {
		t.Fatalf("users = %d", net.Graph.N())
	}
	if len(net.VenueCenters) != cfg.Venues {
		t.Fatalf("venues = %d, want %d", len(net.VenueCenters), cfg.Venues)
	}
	// Density preserved ⇒ degree stays in the defaults' ballpark rather
	// than growing with n.
	if avg := 2 * float64(net.Graph.M()) / 670; avg < 4 || avg > 120 {
		t.Fatalf("average degree %.1f outside the constant-density band", avg)
	}
}

func TestGenerateClusteringStructure(t *testing.T) {
	// Users at the same venue should be far better connected than users at
	// different venues — the property §VII-D's explanation depends on.
	net, err := Generate(DefaultConfig(), xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph
	sameEdges, crossEdges := 0, 0
	samePairs, crossPairs := 0, 0
	n := g.N()
	for u := 0; u < n; u++ {
		for w := u + 1; w < n; w++ {
			vu, vw := net.VenueOf[u], net.VenueOf[w]
			if vu < 0 || vw < 0 {
				continue
			}
			_, has := g.EdgeLength(int32(u), int32(w))
			if vu == vw {
				samePairs++
				if has {
					sameEdges++
				}
			} else {
				crossPairs++
				if has {
					crossEdges++
				}
			}
		}
	}
	sameDensity := float64(sameEdges) / float64(samePairs)
	crossDensity := float64(crossEdges) / float64(crossPairs)
	if sameDensity < 10*crossDensity {
		t.Fatalf("intra-venue density %v not ≫ cross-venue %v", sameDensity, crossDensity)
	}
}

func TestGenerateValidation(t *testing.T) {
	rng := xrand.New(1)
	cfg := DefaultConfig()
	cfg.Users = 1
	if _, err := Generate(cfg, rng); !errors.Is(err, ErrUsers) {
		t.Fatalf("err = %v", err)
	}
	cfg = DefaultConfig()
	cfg.Venues = 0
	if _, err := Generate(cfg, rng); !errors.Is(err, ErrVenues) {
		t.Fatalf("err = %v", err)
	}
	cfg = DefaultConfig()
	cfg.SoloFraction = 1.5
	if _, err := Generate(cfg, rng); !errors.Is(err, ErrFraction) {
		t.Fatalf("err = %v", err)
	}
}

const sampleCheckins = `
0	2010-10-01T19:00:00Z	30.2672	-97.7431	101
0	2010-10-01T20:00:00Z	30.2680	-97.7440	102
1	2010-10-01T19:30:00Z	30.2700	-97.7400	103
2	2010-09-30T19:30:00Z	30.2700	-97.7400	103
3	2010-10-01T19:30:00Z	40.7128	-74.0060	200
4	2010-10-01T23:59:00Z	30.2600	-97.7500	104
`

func TestParseCheckinsFilter(t *testing.T) {
	got, err := ParseCheckins(strings.NewReader(sampleCheckins), AustinEvening)
	if err != nil {
		t.Fatal(err)
	}
	// User 2 is out of the time window, user 3 is in New York.
	if len(got) != 3 {
		t.Fatalf("kept %d users, want 3 (%v)", len(got), got)
	}
	// User 0's later check-in wins.
	if got[0].Location != 102 {
		t.Fatalf("user 0 kept location %d, want the latest (102)", got[0].Location)
	}
}

func TestParseCheckinsMalformed(t *testing.T) {
	if _, err := ParseCheckins(strings.NewReader("0 only three fields\n"), CheckinFilter{}); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := ParseCheckins(strings.NewReader("0\tnot-a-time\t1\t2\t3\n"), CheckinFilter{}); err == nil {
		t.Fatal("expected time parse error")
	}
}

func TestParseFriendships(t *testing.T) {
	in := "0\t1\n1\t0\n2\t3\n4\t4\n"
	fr, err := ParseFriendships(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	// (0,1) deduped, (4,4) self loop dropped.
	if len(fr) != 2 {
		t.Fatalf("friendships = %d, want 2", len(fr))
	}
	if _, ok := fr[[2]int64{0, 1}]; !ok {
		t.Fatal("missing canonical (0,1)")
	}
}

func TestLoadEndToEnd(t *testing.T) {
	edges := "0\t1\n0\t4\n1\t4\n"
	loaded, err := Load(
		strings.NewReader(sampleCheckins),
		strings.NewReader(edges),
		AustinEvening, 2000, 0.4,
	)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Graph.N() != 3 {
		t.Fatalf("nodes = %d, want 3", loaded.Graph.N())
	}
	// Users 0 and 1 are ~100 m apart: connected at radius 2000 m.
	if loaded.Graph.M() == 0 {
		t.Fatal("no proximity edges")
	}
	// Friendships restricted to loaded users {0, 1, 4} → node ids
	// {0, 1, 2}: all three of (0,1), (0,4), (1,4) survive.
	if len(loaded.Friends) != 3 {
		t.Fatalf("friends = %v", loaded.Friends)
	}
	for _, f := range loaded.Friends {
		if f[0] >= f[1] || int(f[1]) >= loaded.Graph.N() {
			t.Fatalf("friend pair %v not canonical node ids", f)
		}
	}
}

func TestHaversine(t *testing.T) {
	// Austin to Dallas ≈ 290 km.
	d := HaversineMeters(30.2672, -97.7431, 32.7767, -96.7970)
	if d < 250000 || d > 330000 {
		t.Fatalf("Austin-Dallas = %v m", d)
	}
	if HaversineMeters(10, 20, 10, 20) != 0 {
		t.Fatal("self distance nonzero")
	}
}

func TestAustinEveningWindow(t *testing.T) {
	in := AustinEvening
	if !in.From.Before(in.To) {
		t.Fatal("window inverted")
	}
	if in.To.Sub(in.From) != 6*time.Hour {
		t.Fatalf("window = %v, want 6h", in.To.Sub(in.From))
	}
}
