package experiments

import (
	"strconv"
	"testing"
)

// TestCrowdCostHeadline pins the crowdcost headline: on the seeded DS-like
// bundle the CrowdER-style pipeline meets the same quality requirement as
// the flat batcher (success 100%) with strictly fewer HITs, and the saving
// is the exact figure below — the table is bit-identical for every worker
// count, so these cells are stable.
func TestCrowdCostHeadline(t *testing.T) {
	tables, err := Run(tinyEnv(), "crowdcost")
	if err != nil {
		t.Fatal(err)
	}
	tbl := tables[0]
	if len(tbl.Rows) != 3 {
		t.Fatalf("crowdcost rows = %d, want 3", len(tbl.Rows))
	}
	rows := make(map[string][]string, len(tbl.Rows))
	for _, row := range tbl.Rows {
		rows[row[0]] = row
	}

	// DS columns: 1 flat HITs, 2 crowd HITs, 3 HITs saved %, 4 votes
	// saved %, 5 success %.
	cell := func(row []string, col int) float64 {
		t.Helper()
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			t.Fatalf("bad cell %q: %v", row[col], err)
		}
		return v
	}
	for _, level := range []string{"a=b=0.90", "a=b=0.95"} {
		row := rows[level]
		if row == nil {
			t.Fatalf("crowdcost has no %s row", level)
		}
		flat, crowd := cell(row, 1), cell(row, 2)
		if crowd >= flat {
			t.Errorf("%s: crowd HITs %.1f not strictly below flat %.1f", level, crowd, flat)
		}
		if row[5] != "100" {
			t.Errorf("%s: crowd success %s%%, want 100 (same requirement met as flat)", level, row[5])
		}
	}

	// Every cell, DS and AB at all three levels. If a legitimate change to
	// the generator, the search, or the crowd pipeline moves these, re-pin
	// them — but understand which stage moved first.
	want := [][]string{
		{"a=b=0.80", "116.0", "126.0", "-8.62", "-20.82", "100", "1480.0", "790.5", "46.59", "41.41", "0"},
		{"a=b=0.90", "181.0", "146.0", "19.34", "10.30", "100", "1820.0", "1023.5", "43.76", "37.91", "0"},
		{"a=b=0.95", "241.0", "206.0", "14.52", "5.28", "100", "2110.0", "1104.5", "47.65", "41.97", "0"},
	}
	checkCells(t, tbl, want)
	if len(tbl.Notes) != 1 {
		t.Errorf("crowdcost notes = %q, want only the legend (flat and crowd success equal everywhere)", tbl.Notes)
	}
}

// checkCells compares every cell of tbl against want, row by row.
func checkCells(t *testing.T, tbl *Table, want [][]string) {
	t.Helper()
	if len(tbl.Rows) != len(want) {
		t.Fatalf("%s rows = %d, want %d", tbl.ID, len(tbl.Rows), len(want))
	}
	for r, row := range want {
		if len(tbl.Rows[r]) != len(row) {
			t.Errorf("%s row %d has %d cells, want %d: %v", tbl.ID, r, len(tbl.Rows[r]), len(row), tbl.Rows[r])
			continue
		}
		for c, w := range row {
			if got := tbl.Rows[r][c]; got != w {
				t.Errorf("%s row %d (%s) cell %d (%s) = %q, want %q",
					tbl.ID, r, row[0], c, tbl.Header[c], got, w)
			}
		}
	}
}
