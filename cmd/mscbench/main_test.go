package main

import (
	"reflect"
	"strings"
	"testing"

	"msc/internal/core"
)

func TestResolveIDs(t *testing.T) {
	cases := []struct {
		name    string
		exp     string
		want    []string
		wantErr string
	}{
		{"single id", "table1", []string{"table1"}, ""},
		{"comma list keeps given order", "fig3,table1", []string{"fig3", "table1"}, ""},
		{"whitespace trimmed", " table1 , fig2 ", []string{"table1", "fig2"}, ""},
		{"all expands to suite order", "all", validIDs, ""},
		{"duplicate id runs once", "table1,table1", []string{"table1"}, ""},
		{"duplicate keeps first occurrence order", "fig2,table1,fig2,table1", []string{"fig2", "table1"}, ""},
		{"id then all does not repeat it", "fig3,all", append([]string{"fig3"}, removeID(validIDs, "fig3")...), ""},
		{"all then id does not repeat it", "all,table2", validIDs, ""},
		{"all twice is one suite", "all,all", validIDs, ""},
		{"unknown id fails fast", "table1,bogus", nil, `unknown experiment "bogus"`},
		{"empty element fails", "table1,,fig1", nil, `unknown experiment ""`},
		{"empty value fails", "", nil, `unknown experiment ""`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := resolveIDs(tc.exp)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error = %v, want containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("resolveIDs(%q) = %v, want %v", tc.exp, got, tc.want)
			}
		})
	}
}

func removeID(ids []string, drop string) []string {
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		if id != drop {
			out = append(out, id)
		}
	}
	return out
}

// TestSuiteOptions: every instance flag lands in the one core.Options
// value the experiments build from, and the combinations the suite cannot
// honour are refused.
func TestSuiteOptions(t *testing.T) {
	got, err := suiteOptions(2, "bounded", "shortcut", "length")
	if err != nil {
		t.Fatal(err)
	}
	want := core.Options{Budget: 2, DistBackend: core.BackendBounded,
		Survive: core.SurviveShortcut, CostModel: core.CostLength}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("suiteOptions = %+v, want %+v", got, want)
	}
	for _, tc := range []struct {
		budget       float64
		distB, costM string
		wantErr      string
	}{
		{0, "auto", "length", "pass -budget too"},
		{0, "auto", "unit", "pass -budget too"},
		{2, "auto", "table", "per-instance price table"},
		{-1, "auto", "auto", "non-negative"},
		{0, "sparse", "auto", "unknown distance backend"},
		{0, "lazy", "auto", "unknown distance backend"},
	} {
		if _, err := suiteOptions(tc.budget, tc.distB, "auto", tc.costM); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("suiteOptions(budget=%v, %s, %s) error = %v, want %q", tc.budget, tc.distB, tc.costM, err, tc.wantErr)
		}
	}
	if _, err := suiteOptions(2, "bounded", "auto", "unit"); err != nil {
		t.Errorf("unit pricing on the bounded backend refused: %v", err)
	}
}

// TestRefuseDynamic: the dynamic experiments sum fault-free cardinality
// time instances, so -survive and -budget are refused for them up front
// and left to the other experiments.
func TestRefuseDynamic(t *testing.T) {
	for _, tc := range []struct {
		ids     []string
		opts    core.Options
		wantErr bool
	}{
		{[]string{"table1", "fig5a"}, core.Options{}, false},
		{[]string{"table1", "fig5a"}, core.Options{Survive: core.SurviveNone}, false},
		{[]string{"table1", "fig4"}, core.Options{Survive: core.SurviveShortcut, Budget: 2}, false},
		{[]string{"table1", "ext2"}, core.Options{Survive: core.SurviveShortcut}, true},
		{[]string{"fig5b"}, core.Options{Budget: 2}, true},
		{[]string{"ext3"}, core.Options{Survive: core.SurviveNode}, true},
	} {
		if err := refuseDynamic(tc.ids, tc.opts); (err != nil) != tc.wantErr {
			t.Errorf("refuseDynamic(%v, %+v) = %v, want error %v", tc.ids, tc.opts, err, tc.wantErr)
		}
	}
}
