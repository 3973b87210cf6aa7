package experiments

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"humo/internal/core"
)

// tinyEnv returns a minimal environment for fast structural tests.
func tinyEnv() *Env {
	e := NewEnv(ScaleSmall, 2, 11)
	return e
}

func TestIDsRegistered(t *testing.T) {
	want := []string{
		"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"table1", "table2", "table3", "table4", "table5", "table6", "table7",
		"ablation-window", "ablation-subset", "ablation-allsamp", "ablation-eps",
		"ablation-human-error", "riskcost", "crowdcost", "correctcost",
	}
	ids := IDs()
	have := make(map[string]bool, len(ids))
	for _, id := range ids {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
	// IDs are sorted.
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Errorf("IDs not sorted at %d: %q >= %q", i, ids[i-1], ids[i])
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run(tinyEnv(), "nope"); !errors.Is(err, ErrUnknownExperiment) {
		t.Errorf("unknown id error = %v", err)
	}
}

func TestTableFprint(t *testing.T) {
	tbl := &Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"hello"},
	}
	var sb strings.Builder
	tbl.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== x: demo ==", "a    bb", "333  4", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig5Analytic(t *testing.T) {
	tables, err := Run(tinyEnv(), "fig5")
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	if len(tbl.Rows) < 20 {
		t.Fatalf("fig5 has %d rows", len(tbl.Rows))
	}
	// At v = 0.55 all curves are at 0.475.
	for _, row := range tbl.Rows {
		if row[0] != "0.55" {
			continue
		}
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil || v < 0.474 || v > 0.476 {
				t.Errorf("fig5 midpoint cell %q, want ~0.475", cell)
			}
		}
	}
}

func TestFig4Shapes(t *testing.T) {
	tables, err := Run(tinyEnv(), "fig4")
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("fig4 returned %d tables, want 2 (DS, AB)", len(tables))
	}
	counts := func(tbl *Table) []int {
		out := make([]int, len(tbl.Rows))
		for i, row := range tbl.Rows {
			n, err := strconv.Atoi(row[1])
			if err != nil {
				t.Fatalf("bad count %q", row[1])
			}
			out[i] = n
		}
		return out
	}
	ds := counts(tables[0])
	ab := counts(tables[1])
	sumRange := func(xs []int, lo, hi int) int {
		s := 0
		for i := lo; i < hi && i < len(xs); i++ {
			s += xs[i]
		}
		return s
	}
	// DS: matches concentrate in the upper half of the similarity axis.
	if hi, lo := sumRange(ds, 10, 20), sumRange(ds, 0, 10); hi <= lo {
		t.Errorf("DS distribution not high-concentrated: low=%d high=%d", lo, hi)
	}
	// AB: a substantial share of matches below similarity 0.5.
	if lo := sumRange(ab, 0, 10); lo == 0 {
		t.Error("AB has no matches below similarity 0.5")
	}
}

func TestTable1ShapeDSBeatsAB(t *testing.T) {
	tables, err := Run(tinyEnv(), "table1")
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	if len(tbl.Rows) != 2 {
		t.Fatalf("table1 rows = %d", len(tbl.Rows))
	}
	f1 := func(row []string) float64 {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad f1 %q", row[3])
		}
		return v
	}
	dsF1, abF1 := f1(tbl.Rows[0]), f1(tbl.Rows[1])
	if dsF1 <= abF1 {
		t.Errorf("Table I shape broken: DS f1 %.3f should exceed AB f1 %.3f", dsF1, abF1)
	}
}

func TestTable2BaseMeetsRequirements(t *testing.T) {
	tables, err := Run(tinyEnv(), "table2")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		level, err := strconv.ParseFloat(strings.TrimPrefix(row[0], "a=b="), 64)
		if err != nil {
			t.Fatalf("bad requirement cell %q", row[0])
		}
		for col := 1; col <= 4; col++ {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil {
				t.Fatalf("bad cell %q", row[col])
			}
			if v < level {
				t.Errorf("BASE missed requirement %.2f: %s = %v (row %v)", level, tables[0].Header[col], v, row)
			}
		}
	}
}

func TestFig6Structure(t *testing.T) {
	tables, err := Run(tinyEnv(), "fig6")
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("fig6 tables = %d", len(tables))
	}
	for _, tbl := range tables {
		if len(tbl.Rows) != len(qualityGrid) {
			t.Errorf("%s rows = %d, want %d", tbl.Title, len(tbl.Rows), len(qualityGrid))
		}
		for _, row := range tbl.Rows {
			for _, cell := range row[1:] {
				v, err := strconv.ParseFloat(cell, 64)
				if err != nil || v <= 0 || v > 100 {
					t.Errorf("cost cell %q out of (0,100]", cell)
				}
			}
		}
	}
}

func TestCorrectCostStructure(t *testing.T) {
	tables, err := Run(tinyEnv(), "correctcost")
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	if len(tbl.Rows) != 4 {
		t.Fatalf("correctcost rows = %d, want one per requirement level", len(tbl.Rows))
	}
	if len(tbl.Header) != 11 {
		t.Fatalf("correctcost header = %v", tbl.Header)
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Header) {
			t.Fatalf("row %v width != header", row)
		}
		// Cost columns are percentages of the workload.
		for _, col := range []int{1, 2, 3, 6, 7, 8} {
			v, err := strconv.ParseFloat(row[col], 64)
			if err != nil || v <= 0 || v > 100 {
				t.Errorf("cost cell %s=%q out of (0,100]", tbl.Header[col], row[col])
			}
		}
	}
	// On DS the reference SVM is decent (Table I): the corrected regime must
	// beat the hybrid search's human cost at the 0.90 requirement.
	row := tbl.Rows[2]
	saved, err := strconv.ParseFloat(row[4], 64)
	if err != nil {
		t.Fatal(err)
	}
	if saved <= 0 {
		t.Errorf("DS saved %% = %v at a=b=0.90, want positive (row %v)", saved, row)
	}
}

func TestRunMethodUnknown(t *testing.T) {
	e := tinyEnv()
	b, err := e.dsBundle()
	if err != nil {
		t.Fatal(err)
	}
	req := core.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
	if _, err := runMethod(b, "NOPE", req, 1); err == nil {
		t.Error("unknown method should fail")
	}
}

func TestAvgRunsBaseDeterministicSingleRun(t *testing.T) {
	e := tinyEnv()
	b, err := e.dsBundle()
	if err != nil {
		t.Fatal(err)
	}
	req := core.Requirement{Alpha: 0.8, Beta: 0.8, Theta: 0.9}
	avg, err := e.avgRuns(b, methodBase, req, 50)
	if err != nil {
		t.Fatal(err)
	}
	if avg.costPct <= 0 || avg.costPct > 100 {
		t.Errorf("BASE cost %% = %v", avg.costPct)
	}
	if avg.successPct != 0 && avg.successPct != 100 {
		t.Errorf("deterministic BASE success %% = %v, want 0 or 100", avg.successPct)
	}
}
