package mobility

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"msc/internal/geom"
	"msc/internal/netbuild"
	"msc/internal/xrand"
)

func TestGenerateShape(t *testing.T) {
	cfg := DefaultConfig()
	tr, err := Generate(cfg, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if tr.N() != 90 || tr.T() != 30 {
		t.Fatalf("n=%d T=%d", tr.N(), tr.T())
	}
	groups := map[int]int{}
	for _, g := range tr.GroupOf {
		groups[g]++
	}
	if len(groups) != 7 {
		t.Fatalf("groups = %d, want 7", len(groups))
	}
	for t0 := range tr.Positions {
		for v, p := range tr.Positions[t0] {
			if !cfg.Area.Contains(p) {
				t.Fatalf("t=%d node %d escaped the area: %v", t0, v, p)
			}
		}
	}
}

func TestGroupCohesion(t *testing.T) {
	// Group members must stay within MemberRadius of their group's
	// centroid-ish reference; we allow 2× slack for the clamped boundary.
	cfg := DefaultConfig()
	tr, err := Generate(cfg, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < tr.T(); step += 5 {
		centers := make(map[int]geom.Point)
		counts := make(map[int]int)
		for v, p := range tr.Positions[step] {
			g := tr.GroupOf[v]
			centers[g] = centers[g].Add(p)
			counts[g]++
		}
		for g := range centers {
			centers[g] = centers[g].Scale(1 / float64(counts[g]))
		}
		for v, p := range tr.Positions[step] {
			if d := p.Dist(centers[tr.GroupOf[v]]); d > 2.5*cfg.MemberRadius {
				t.Fatalf("t=%d node %d strayed %v from its squad", step, v, d)
			}
		}
	}
}

func TestTopologyChurn(t *testing.T) {
	// Consecutive snapshots should differ (nodes move) but not be
	// unrecognizable; compare edge sets of snapshots far apart.
	tr, err := Generate(DefaultConfig(), xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	fm := netbuild.FailureModel{Radius: 700, FailureAtRadius: 0.2}
	first, err := tr.Snapshot(0, fm)
	if err != nil {
		t.Fatal(err)
	}
	last, err := tr.Snapshot(tr.T()-1, fm)
	if err != nil {
		t.Fatal(err)
	}
	if first.M() == 0 || last.M() == 0 {
		t.Fatal("degenerate snapshots")
	}
	same := 0
	for _, e := range first.Edges() {
		if _, ok := last.EdgeLength(e.U, e.V); ok {
			same++
		}
	}
	if same == first.M() {
		t.Fatal("topology did not change over 30 steps")
	}
}

// unitSquare is the [0,1]² area the validation cases run in.
var unitSquare = geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}

func TestGenerateValidation(t *testing.T) {
	rng := xrand.New(1)
	bad := []Config{
		{Groups: 0, Nodes: 10, Steps: 5, Area: unitSquare},
		{Groups: 2, Nodes: 1, Steps: 5, Area: unitSquare},
		{Groups: 2, Nodes: 10, Steps: 0, Area: unitSquare},
		{Groups: 2, Nodes: 10, Steps: 5, Area: unitSquare, LeaderSpeedMin: 5, LeaderSpeedMax: 1},
	}
	wants := []error{ErrGroups, ErrNodes, ErrSteps, ErrSpeed}
	for i, cfg := range bad {
		if _, err := Generate(cfg, rng); !errors.Is(err, wants[i]) {
			t.Errorf("case %d: err = %v, want %v", i, err, wants[i])
		}
	}
}

func TestSnapshotsAndBounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 20
	cfg.Steps = 4
	tr, err := Generate(cfg, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	fm := netbuild.FailureModel{Radius: 800, FailureAtRadius: 0.2}
	gs, err := tr.Snapshots(fm)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 4 {
		t.Fatalf("snapshots = %d", len(gs))
	}
	if _, err := tr.Snapshot(-1, fm); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := tr.Snapshot(4, fm); err == nil {
		t.Fatal("expected range error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 12
	cfg.Groups = 3
	cfg.Steps = 5
	tr, err := Generate(cfg, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != tr.N() || back.T() != tr.T() || back.StepSeconds != tr.StepSeconds {
		t.Fatalf("shape changed: n=%d T=%d step=%v", back.N(), back.T(), back.StepSeconds)
	}
	for step := range tr.Positions {
		for v := range tr.Positions[step] {
			a, b := tr.Positions[step][v], back.Positions[step][v]
			// WriteCSV rounds to millimeters.
			if math.Abs(a.X-b.X) > 0.001 || math.Abs(a.Y-b.Y) > 0.001 {
				t.Fatalf("position drift at t=%d v=%d: %v vs %v", step, v, a, b)
			}
		}
	}
	for v := range tr.GroupOf {
		if back.GroupOf[v] != tr.GroupOf[v] {
			t.Fatal("group assignment lost")
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",                               // empty
		"t,node,group,x,y\n",             // header only
		"0,0,0,1.0\n",                    // four fields
		"x,0,0,1.0,2.0\n",                // bad t
		"0,0,0,1.0,2.0\n0,0,0,1.0,2.0\n", // duplicate cell
		"1,0,0,1.0,2.0\n",                // missing t=0 record
	}
	for i, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: expected error for %q", i, in)
		}
	}
}

func TestDeterministic(t *testing.T) {
	a, _ := Generate(DefaultConfig(), xrand.New(9))
	b, _ := Generate(DefaultConfig(), xrand.New(9))
	for step := range a.Positions {
		for v := range a.Positions[step] {
			if a.Positions[step][v] != b.Positions[step][v] {
				t.Fatal("same seed, different trace")
			}
		}
	}
}

// ReadCSV is the reader side of the WriteCSV round trip: it decodes a
// trace written by WriteCSV. Records may arrive in any order as long as
// every (t, node) cell is present exactly once.
func ReadCSV(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	tr := &Trace{StepSeconds: 1}
	type rec struct {
		t, node, group int
		p              geom.Point
	}
	var recs []rec
	maxT, maxNode := -1, -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "#"):
			if v, ok := strings.CutPrefix(line, "# step_seconds="); ok {
				s, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
				if err != nil {
					return nil, fmt.Errorf("mobility: line %d: step_seconds: %w", lineNo, err)
				}
				tr.StepSeconds = s
			}
			continue
		case strings.HasPrefix(line, "t,"):
			continue // header
		}
		fields := strings.Split(line, ",")
		if len(fields) != 5 {
			return nil, fmt.Errorf("mobility: line %d: want 5 fields, got %d", lineNo, len(fields))
		}
		t, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("mobility: line %d: t: %w", lineNo, err)
		}
		node, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("mobility: line %d: node: %w", lineNo, err)
		}
		group, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("mobility: line %d: group: %w", lineNo, err)
		}
		x, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return nil, fmt.Errorf("mobility: line %d: x: %w", lineNo, err)
		}
		y, err := strconv.ParseFloat(fields[4], 64)
		if err != nil {
			return nil, fmt.Errorf("mobility: line %d: y: %w", lineNo, err)
		}
		if t < 0 || node < 0 {
			return nil, fmt.Errorf("mobility: line %d: negative index", lineNo)
		}
		recs = append(recs, rec{t: t, node: node, group: group, p: geom.Point{X: x, Y: y}})
		if t > maxT {
			maxT = t
		}
		if node > maxNode {
			maxNode = node
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("mobility: read trace: %w", err)
	}
	if maxT < 0 || maxNode < 0 {
		return nil, fmt.Errorf("mobility: empty trace")
	}
	steps, nodes := maxT+1, maxNode+1
	tr.Positions = make([][]geom.Point, steps)
	seen := make([][]bool, steps)
	for t := range tr.Positions {
		tr.Positions[t] = make([]geom.Point, nodes)
		seen[t] = make([]bool, nodes)
	}
	tr.GroupOf = make([]int, nodes)
	for _, rc := range recs {
		if seen[rc.t][rc.node] {
			return nil, fmt.Errorf("mobility: duplicate record for t=%d node=%d", rc.t, rc.node)
		}
		seen[rc.t][rc.node] = true
		tr.Positions[rc.t][rc.node] = rc.p
		tr.GroupOf[rc.node] = rc.group
	}
	for t := range seen {
		for v := range seen[t] {
			if !seen[t][v] {
				return nil, fmt.Errorf("mobility: missing record for t=%d node=%d", t, v)
			}
		}
	}
	return tr, nil
}
