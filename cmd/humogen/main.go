// Command humogen generates ER workloads.
//
// In dataset mode (the default) it generates the paper's evaluation
// datasets and prints their characteristics: workload sizes, matching-pair
// counts and the similarity distribution of matching pairs (Fig. 4), or
// the logistic match-proportion curves of Fig. 5:
//
//	humogen -dataset ds [-seed S] [-buckets N]
//	humogen -dataset ab
//	humogen -dataset logistic -n 100000 -tau 14 -sigma 0.1
//
// In generate mode (selected by -a/-b) it runs the high-throughput
// candidate-generation pipeline over two CSV tables and writes the scored
// workload to disk, ready for cmd/humo (-candidates) or a humod session
// (workload_file):
//
//	humogen -a products_a.csv -b products_b.csv \
//	        -spec "name:jaccard,description:cosine" \
//	        -block token -min-shared 2 -threshold 0.3 -workers 0 \
//	        -out workload.csv -cands candidates.csv
//
// At million-record scale, -block lsh swaps the inverted-index join for a
// banded MinHash join (-rows R -bands B) that only verifies colliding
// pairs:
//
//	humogen -a huge_a.csv -b huge_b.csv -spec "name:jaccard" \
//	        -block lsh -rows 2 -bands 32 -threshold 0.3 -out workload.csv
//
// -out receives the `pair_id,similarity` CSV with the workload fingerprint
// embedded as a leading `# fingerprint: ...` comment, and -cands the full
// `pair_id,record_a,record_b,similarity` candidates file. Generation is
// deterministic: the same tables and flags produce byte-identical outputs
// at any -workers value.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"humo"
	"humo/internal/cliutil"
	"humo/internal/datagen"
	"humo/internal/dataio"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("humogen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataset = fs.String("dataset", "ds", "dataset mode: ds, ab or logistic")
		seed    = fs.Int64("seed", 0, "dataset mode: override generator seed (0 = dataset default)")
		buckets = fs.Int("buckets", 20, "dataset mode: histogram buckets over the similarity axis")
		n       = fs.Int("n", 100000, "logistic: number of pairs")
		tau     = fs.Float64("tau", 14, "logistic: curve steepness")
		sigma   = fs.Float64("sigma", 0.1, "logistic: per-subset irregularity")

		aPath     = fs.String("a", "", "generate mode: CSV file of the first table (header row = attributes)")
		bPath     = fs.String("b", "", "generate mode: CSV file of the second table")
		spec      = fs.String("spec", "", "generate mode: attribute specs name:kind[,name:kind...]")
		blockMode = fs.String("block", "token", "generate mode: cross, token, sorted or lsh")
		blockAttr = fs.String("block-attr", "", "generate mode: blocking attribute (default: first spec attribute)")
		minShared = fs.Int("min-shared", 1, "generate mode: token blocking minimum shared tokens")
		window    = fs.Int("window", 10, "generate mode: sorted blocking window size")
		rows      = fs.Int("rows", 2, "generate mode: lsh sketch depth per band (candidates share at least this many tokens)")
		bands     = fs.Int("bands", 32, "generate mode: lsh band count (more bands, higher recall)")
		threshold = fs.Float64("threshold", 0.1, "generate mode: keep pairs with similarity >= threshold (in [0,1))")
		workers   = fs.Int("workers", 0, "generate mode: worker goroutines (<= 0 = all cores; output is identical at any count)")
		outPath   = fs.String("out", "", "generate mode: where to write the pair_id,similarity workload CSV (required)")
		candsPath = fs.String("cands", "", "generate mode: also write the full candidates CSV here (optional)")
		version   = fs.Bool("version", false, "print version information and exit")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, cliutil.VersionString("humogen"))
		return 0
	}
	if *aPath != "" || *bPath != "" {
		return runGenerate(stdout, stderr, genArgs{
			aPath: *aPath, bPath: *bPath, spec: *spec,
			block: *blockMode, blockAttr: *blockAttr,
			minShared: *minShared, window: *window, rows: *rows, bands: *bands,
			threshold: *threshold,
			workers:   *workers, outPath: *outPath, candsPath: *candsPath,
		})
	}
	return runDataset(stdout, stderr, *dataset, *seed, *buckets, *n, *tau, *sigma)
}

type genArgs struct {
	aPath, bPath, spec, block, blockAttr    string
	minShared, window, rows, bands, workers int
	threshold                               float64
	outPath, candsPath                      string
}

// runGenerate is the table-to-workload pipeline around humo.GenerateWorkload.
func runGenerate(stdout, stderr io.Writer, a genArgs) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "humogen:", err)
		return 1
	}
	usage := func(err error) int {
		fmt.Fprintln(stderr, "humogen:", err)
		return 2
	}
	if a.aPath == "" || a.bPath == "" || a.spec == "" || a.outPath == "" {
		return usage(fmt.Errorf("generate mode needs -a, -b, -spec and -out"))
	}
	if err := cliutil.ValidateThreshold(a.threshold); err != nil {
		return usage(err)
	}
	mode, err := humo.ParseBlockingMode(a.block)
	if err != nil {
		return usage(err)
	}
	specs, err := cliutil.ParseAttributeSpecs(a.spec)
	if err != nil {
		return usage(err)
	}
	ta, err := readTable(a.aPath, "a")
	if err != nil {
		return fail(err)
	}
	tb, err := readTable(a.bPath, "b")
	if err != nil {
		return fail(err)
	}

	start := time.Now()
	g, err := humo.GenerateWorkload(context.Background(), ta, tb, humo.GenConfig{
		Specs:          specs,
		Block:          mode,
		BlockAttribute: a.blockAttr,
		MinShared:      a.minShared,
		Window:         a.window,
		Rows:           a.rows,
		Bands:          a.bands,
		Threshold:      a.threshold,
		Workers:        a.workers,
	})
	if err != nil {
		return fail(err)
	}
	elapsed := time.Since(start)

	// The fingerprint rides inside the workload CSV: one atomic write, no
	// kill window between data and identity.
	if err := dataio.WriteFileAtomic(a.outPath, func(w io.Writer) error {
		return dataio.WritePairsFingerprinted(w, g.CorePairs(), g.Fingerprint)
	}); err != nil {
		return fail(err)
	}
	if a.candsPath != "" {
		if err := dataio.WriteFileAtomic(a.candsPath, func(w io.Writer) error {
			return dataio.WriteCandidates(w, g.Candidates)
		}); err != nil {
			return fail(err)
		}
	}
	fmt.Fprintf(stdout, "generated %d candidate pairs from %dx%d records in %v\n",
		len(g.Candidates), ta.Len(), tb.Len(), elapsed.Round(time.Millisecond))
	fmt.Fprintf(stdout, "workload (fingerprint %s) written to %s\n", g.Fingerprint, a.outPath)
	return 0
}

func readTable(path, name string) (*humo.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataio.ReadTable(f, name)
}

// runDataset is the paper-dataset mode (the seed behavior, unchanged).
func runDataset(stdout, stderr io.Writer, dataset string, seed int64, buckets, n int, tau, sigma float64) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "humogen:", err)
		return 1
	}
	var (
		pairs []humo.LabeledPair
		name  string
	)
	switch dataset {
	case "ds":
		cfg := humo.DefaultDSConfig()
		if seed != 0 {
			cfg.Seed = seed
		}
		d, err := humo.DSLike(cfg)
		if err != nil {
			return fail(err)
		}
		pairs, name = d.Pairs, "DS (simulated DBLP-Scholar)"
		fmt.Fprintf(stdout, "tables: %s %d records, %s %d records\n", d.A.Name, d.A.Len(), d.B.Name, d.B.Len())
	case "ab":
		cfg := humo.DefaultABConfig()
		if seed != 0 {
			cfg.Seed = seed
		}
		d, err := humo.ABLike(cfg)
		if err != nil {
			return fail(err)
		}
		pairs, name = d.Pairs, "AB (simulated Abt-Buy)"
		fmt.Fprintf(stdout, "tables: %s %d records, %s %d records\n", d.A.Name, d.A.Len(), d.B.Name, d.B.Len())
	case "logistic":
		cfg := humo.LogisticConfig{N: n, Tau: tau, Sigma: sigma, Seed: seed}
		p, err := humo.Logistic(cfg)
		if err != nil {
			return fail(err)
		}
		pairs, name = p, fmt.Sprintf("logistic(tau=%g, sigma=%g)", tau, sigma)
	default:
		fmt.Fprintf(stderr, "humogen: unknown dataset %q (want ds, ab or logistic)\n", dataset)
		return 2
	}

	matches := datagen.MatchCount(pairs)
	fmt.Fprintf(stdout, "%s: %d pairs, %d matching (%.3f%%)\n", name, len(pairs), matches, 100*float64(matches)/float64(len(pairs)))
	hist, err := datagen.Histogram(pairs, 0, 1, buckets)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, "matching-pair distribution over similarity (Fig. 4 series):")
	maxH := 1
	for _, h := range hist {
		if h > maxH {
			maxH = h
		}
	}
	for b, h := range hist {
		lo := float64(b) / float64(buckets)
		hi := float64(b+1) / float64(buckets)
		bar := ""
		for i := 0; i < 50*h/maxH; i++ {
			bar += "#"
		}
		fmt.Fprintf(stdout, "  [%.2f,%.2f) %6d %s\n", lo, hi, h, bar)
	}
	return 0
}
