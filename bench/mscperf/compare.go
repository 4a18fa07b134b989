package main

import (
	"fmt"
	"io"
	"math"
	"reflect"
)

// minPairs is the fewest parent/change pairs -compare accepts.
const minPairs = 10

// verdict is the -compare outcome for one metric on one workload.
type verdict string

const (
	gain         verdict = "gain"
	noRegression verdict = "no regression"
	regression   verdict = "regression"
	unresolved   verdict = "unresolved"
)

// judge compares a metric's per-set medians of the parent and the change,
// set i of one paired with set i of the other:
//
//   - gain: the change is better in at least 9 of 10 pairs (ties count
//     for neither side) and its median is better by more than the
//     parent's interquartile range;
//   - unresolved: the parent's own spread is wider than the bound, unless
//     every change set reads better than every parent set;
//   - regression: the change's median is worse than the parent's by more
//     than the bound, which is Rel of the parent's median but at least
//     Floor;
//   - no regression otherwise.
func judge(m metricDef, parent, change []float64) (v verdict, wins int) {
	better := func(x, y float64) bool {
		if m.Higher {
			return x > y
		}
		return x < y
	}
	for i := range parent {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	p, c := summarize(parent), summarize(change)
	iqr := p.Q3 - p.Q1
	gainBy := c.Median - p.Median
	if !m.Higher {
		gainBy = -gainBy
	}
	bound := math.Max(m.Rel*math.Abs(p.Median), m.Floor)
	allBetter := true
	for _, x := range change {
		for _, y := range parent {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case 10*wins >= 9*len(parent) && gainBy > iqr:
		return gain, wins
	case iqr > bound && !allBetter:
		return unresolved, wins
	case -gainBy > bound:
		return regression, wins
	}
	return noRegression, wins
}

// runCompare reads the sets of a parent and a change results file and
// judges every end-to-end metric on every workload. It returns 1 when any
// pair regresses or is unresolved, 2 when the files cannot be compared.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "mscperf: -compare takes two results files: PARENT.json CHANGE.json")
		return 2
	}
	parent, err := readSets(args[0])
	if err == nil {
		var change []setResult
		if change, err = readSets(args[1]); err == nil {
			var rows []compareRow
			if rows, err = compareSets(parent, change); err == nil {
				return printCompare(stdout, rows)
			}
		}
	}
	fmt.Fprintln(stderr, "mscperf:", err)
	return 2
}

type compareRow struct {
	workload, metric string
	unit             string
	parent, change   summary
	wins, pairs      int
	verdict          verdict
}

// compareSets pairs the sets and judges each (workload, metric). The two
// sides must have the same number of sets, at least minPairs, and every
// set must have generated identical inputs: a changed generator changes
// the workload, not the metric.
func compareSets(parent, change []setResult) ([]compareRow, error) {
	if len(parent) != len(change) || len(parent) < minPairs {
		return nil, fmt.Errorf("need two equal runs of at least %d sets (ABAB pairs), got %d and %d", minPairs, len(parent), len(change))
	}
	ref := parent[0]
	for _, s := range append(append([]setResult(nil), parent...), change...) {
		if len(s.Workloads) != len(ref.Workloads) {
			return nil, fmt.Errorf("sets ran different workloads")
		}
		for k, w := range s.Workloads {
			if w.Name != ref.Workloads[k].Name || !reflect.DeepEqual(w.Inputs, ref.Workloads[k].Inputs) {
				return nil, fmt.Errorf("%s: inputs differ between sets (seed or generator changed)", w.Name)
			}
		}
	}
	var rows []compareRow
	for k, w := range ref.Workloads {
		for _, m := range e2eMetrics {
			var a, b []float64
			for i := range parent {
				pv, cv := parent[i].Workloads[k].Metrics[m.Name].Value, change[i].Workloads[k].Metrics[m.Name].Value
				if pv == nil || cv == nil {
					break
				}
				a, b = append(a, *pv), append(b, *cv)
			}
			if len(a) != len(parent) {
				continue // not applicable on this workload
			}
			v, wins := judge(m, a, b)
			rows = append(rows, compareRow{workload: w.Name, metric: m.Name, unit: m.Unit,
				parent: summarize(a), change: summarize(b), wins: wins, pairs: len(a), verdict: v})
		}
	}
	return rows, nil
}

func printCompare(w io.Writer, rows []compareRow) int {
	code := 0
	fmt.Fprintf(w, "%-16s %-12s %-28s %-28s %-6s %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-12s %-28s %-28s %-6s %s\n", r.workload, r.metric,
			fmt.Sprintf("%.4g [%.4g, %.4g] %s", r.parent.Median, r.parent.Q1, r.parent.Q3, r.unit),
			fmt.Sprintf("%.4g [%.4g, %.4g] %s", r.change.Median, r.change.Q1, r.change.Q3, r.unit),
			fmt.Sprintf("%d/%d", r.wins, r.pairs), r.verdict)
		if r.verdict == regression || r.verdict == unresolved {
			code = 1
		}
	}
	return code
}
