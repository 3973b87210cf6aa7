package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the smoke test
// checks the program against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type runLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func runTiny(t *testing.T, workload, trace string, seed string) (string, runLine) {
	t.Helper()
	var out bytes.Buffer
	args := []string{"--workload", workload, "--seed", seed, "--seconds", "1", "--trace", trace, "--scale", "tiny", "--out", t.TempDir()}
	if err := run(args, &out); err != nil {
		t.Fatalf("%s trace %s: %v\n%s", workload, trace, err, out.String())
	}
	text := strings.TrimSpace(out.String())
	last := text[strings.LastIndexByte(text, '\n')+1:]
	var rl runLine
	if err := json.Unmarshal([]byte(last), &rl); err != nil {
		t.Fatalf("%s trace %s: last line is not the result object: %v\n%s", workload, trace, err, last)
	}
	return text, rl
}

// TestSmoke runs every workload at a tiny scale, untraced and traced, and
// checks the contract of the output: every declared metric is printed by
// name with its unit, the failed share is zero, and the metric set matches
// BENCHMARK.json.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	declared := func(defs []metricDef) map[string]string {
		m := map[string]string{}
		for _, d := range defs {
			m[d.name] = d.unit
		}
		return m
	}
	e2e, layers := declared(endToEnd), declared(perLayer)
	if len(bf.EndToEnd) != len(e2e) || len(bf.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, the program %d and %d",
			len(bf.EndToEnd), len(bf.PerLayer), len(e2e), len(layers))
	}
	for _, m := range bf.EndToEnd {
		if e2e[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: BENCHMARK.json unit %q, program %q", m.Name, m.Unit, e2e[m.Name])
		}
	}
	for _, m := range bf.PerLayer {
		if layers[m.Name] != m.Unit {
			t.Errorf("per-layer %s: BENCHMARK.json unit %q, program %q", m.Name, m.Unit, layers[m.Name])
		}
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not in the program", w.Name)
		}
	}

	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				text, rl := runTiny(t, name, trace, "3")
				want := e2e
				if trace == "1" {
					want = layers
				}
				if !rl.Correct || rl.Failed != 0 || rl.Attempted < 1 {
					t.Errorf("correct %v, failed %d of %d\n%s", rl.Correct, rl.Failed, rl.Attempted, text)
				}
				if !regexp.MustCompile(`(?m)^failed_share ` + name + ` 0\.000000 `).MatchString(text) {
					t.Errorf("no zero failed share printed\n%s", text)
				}
				if len(rl.Metrics) != len(want) {
					t.Errorf("%d metrics in the result, want %d", len(rl.Metrics), len(want))
				}
				for m, unit := range want {
					got, ok := rl.Metrics[m]
					if !ok || got["unit"] != unit {
						t.Errorf("metric %s: got %v, want unit %s", m, got, unit)
						continue
					}
					if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m) + ` +\S+ ` + regexp.QuoteMeta(unit) + ` `).MatchString(text) {
						t.Errorf("metric %s is not printed with its unit", m)
					}
					if v, _ := got["value"].(float64); trace == "0" && v == 0 {
						t.Errorf("end-to-end metric %s reads 0", m)
					}
				}
			})
		}
	}
}

// TestDeterminism pins the library workloads' determinism contract across
// runs: the same seed gives the same output digest.
func TestDeterminism(t *testing.T) {
	for _, name := range []string{"pipeline_lsh", "search_mix"} {
		digest := regexp.MustCompile(`(?m)^digest (\S+)$`)
		a, _ := runTiny(t, name, "0", "5")
		b, _ := runTiny(t, name, "0", "5")
		da, db := digest.FindStringSubmatch(a), digest.FindStringSubmatch(b)
		if da == nil || db == nil || da[1] != db[1] {
			t.Errorf("%s: digests %v and %v differ across runs with one seed", name, da, db)
		}
	}
}

// TestSelfTimes pins the attribution arithmetic: self time is a span's
// duration minus the union of its children. Children that overlap (as two
// siblings do here) make an op's self times sum past its wall time, which
// attribute reports as a failed check.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "blocking.generate", Start: 10, End: 60, Parent: 0},
		{Name: "core.workload", Start: 50, End: 70, Parent: 0}, // overlaps its sibling
		{Name: "session.hybrid.next", Start: 20, End: 30, Parent: 1},
	}
	got := selfTimes(spans)
	want := []int64{40, 40, 20, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s self %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}
