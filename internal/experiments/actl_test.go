package experiments

import "testing"

// TestActlTablesPinned pins every cell of the HUMO-vs-ACTL tables V and VI
// at the tiny environment. The ACTL probes and the hybrid runs are seeded
// per repetition, so the tables are exact.
func TestActlTablesPinned(t *testing.T) {
	want := map[string][][]string{
		"table5": {
			{"0.75", "0.8933", "0.9980", "21.19", "11.71", "n/a"},
			{"0.80", "0.8933", "0.9980", "21.19", "11.71", "n/a"},
			{"0.85", "0.9658", "0.9873", "21.19", "11.82", "n/a"},
			{"0.90", "0.9980", "0.9765", "26.69", "11.82", "6.9052"},
			{"0.95", "1.0000", "0.0000", "30.35", "9.46", "0.2089"},
		},
		"table6": {
			{"0.75", "0.8962", "0.6731", "6.85", "3.30", "0.1593"},
			{"0.80", "0.9500", "0.6154", "12.00", "3.24", "0.2618"},
			{"0.85", "0.9538", "0.5577", "14.15", "3.19", "0.2765"},
			{"0.90", "0.9538", "0.5577", "14.15", "3.19", "0.2765"},
			{"0.95", "0.9731", "0.0000", "19.30", "3.20", "0.1655"},
		},
	}
	e := tinyEnv()
	for id, rows := range want {
		tables, err := Run(e, id)
		if err != nil {
			t.Fatal(err)
		}
		checkCells(t, tables[0], rows)
	}
}
