// Command humo resolves two CSV tables end to end with quality guarantees,
// driving the human-in-the-loop through a resumable resolution session.
//
// The pipeline blocks and scores candidate pairs (humo.GenerateWorkload:
// -block cross/token/sorted/lsh, fanned out over -workers goroutines with
// deterministic output; or -candidates to load a humogen-generated
// candidates CSV instead), then starts the requested optimization as a
// humo.Session. Whenever the optimizer needs human answers, the session
// surfaces a batch of pair ids:
//
//   - By default, the batch is written to the -pending CSV (with both
//     records side by side) and humo exits with status 3. Review the file,
//     append your answers to the label file (pair_id,label with label
//     match/unmatch), and re-run the same command: the session restores
//     from the label file, replays deterministically (seeds are fixed), and
//     surfaces the next batch — or finishes. To size one review round
//     honestly, the queue also includes the pairs a continued search would
//     need under worst-case answers for the not-yet-reviewed ones.
//   - With -interactive, batches are labeled live on stdin instead: each
//     pair is shown with both records and answered with m(atch)/u(nmatch).
//     Answers are persisted to the label file after every batch, so an
//     interrupted session resumes where it stopped.
//
// The final resolution is written to -out only when every human answer came
// from a real review — results never contain guessed labels — and the run
// reports the human cost (distinct pairs reviewed) of the resolution.
//
// Risk-corrected machine labels: with -method correct, a machine classifier
// labels every candidate pair up front (-classifier svm trains a linear SVM
// on the answers already in -labels; fellegi fits an unsupervised
// Fellegi-Sunter model to the similarity distribution; file loads a
// pre-scored pair_id,label,score CSV via -classifier-file), and the human
// effort goes into verifying the classifier's riskiest labels until the
// corrected label set is certified to meet -alpha/-beta at confidence
// -theta. -anytime caps the verification labels, like it does for -method
// risk. Verified pairs are attributed source "human" in the results.
//
// Streaming mode: with -append, humo does not resolve anything locally.
// Instead the -a/-b CSVs are uploaded to a running humod server
// (POST /v1/workloads/{name}/records), which journals the rows, grows the
// named live workload's candidate set incrementally, and extends every
// session resolving that workload in place:
//
//	humo -append -server http://127.0.0.1:8080 -workload orders -a new-rows.csv
//
// Example:
//
//	humo -a dblp.csv -b scholar.csv \
//	     -spec "title:jaccard,authors:jaccard,venue:jarowinkler" \
//	     -block token -block-attr title -min-shared 2 -threshold 0.2 \
//	     -alpha 0.9 -beta 0.9 -theta 0.9 -method hybrid \
//	     -labels labels.csv -pending pending.csv -out results.csv
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"

	"humo"
	"humo/internal/blocking"
	"humo/internal/cliutil"
	"humo/internal/dataio"
	"humo/internal/records"
	"humo/internal/serve"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// Exit codes: 0 resolution written, 1 runtime error, 2 usage error,
// 3 human review needed (pending file written).
const (
	exitOK     = 0
	exitError  = 1
	exitUsage  = 2
	exitReview = 3
)

// fail reports a runtime error on stderr and returns exitError; usageErr
// does the same for exitUsage.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "humo:", err)
	return exitError
}

func usageErr(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "humo:", err)
	return exitUsage
}

// run is the whole CLI, parameterized over its streams so tests can drive
// the pending -> answer -> resume loop end to end in-process.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("humo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		aPath       = fs.String("a", "", "CSV file of the first table (header row = attributes)")
		bPath       = fs.String("b", "", "CSV file of the second table")
		spec        = fs.String("spec", "", "attribute specs: name:kind[,name:kind...]; kinds: jaccard, jarowinkler, levenshtein, cosine")
		blockMode   = fs.String("block", "cross", "candidate generation: cross, token, sorted or lsh")
		blockAttr   = fs.String("block-attr", "", "token/sorted/lsh blocking attribute (default: first spec attribute)")
		minShared   = fs.Int("min-shared", 1, "token blocking: minimum shared tokens")
		window      = fs.Int("window", 10, "sorted blocking: window size")
		rows        = fs.Int("rows", 2, "lsh blocking: sketch depth per band (candidates share at least this many tokens)")
		bands       = fs.Int("bands", 32, "lsh blocking: band count (more bands, higher recall)")
		workers     = fs.Int("workers", 0, "candidate generation worker goroutines (<= 0 = all cores; results are identical at any count)")
		candsPath   = fs.String("candidates", "", "pre-generated candidates CSV (humogen -cands output); skips blocking and scoring")
		threshold   = fs.Float64("threshold", 0.1, "keep candidate pairs with aggregated similarity >= threshold (in [0,1))")
		alpha       = fs.Float64("alpha", 0.9, "required precision, in (0,1]")
		beta        = fs.Float64("beta", 0.9, "required recall, in (0,1]")
		theta       = fs.Float64("theta", 0.9, "confidence level, in (0,1)")
		method      = fs.String("method", "hybrid", "optimizer: base, allsampling, sampling, hybrid, budgeted, risk or correct")
		budget      = fs.Int("budget", 0, "manual-inspection budget (pairs) for -method budgeted")
		subsetSize  = fs.Int("subset", 0, "unit-subset size (0 = default 200)")
		labelsIn    = fs.String("labels", "", "CSV of human answers collected so far (pair_id,label); rewritten with new answers in -interactive mode")
		pending     = fs.String("pending", "pending.csv", "where to write pairs awaiting human review")
		outPath     = fs.String("out", "results.csv", "where to write the final resolution")
		seed        = fs.Int64("seed", 1, "seed for all sampling decisions (keep fixed across review rounds)")
		interactive = fs.Bool("interactive", false, "label pending pairs live on stdin instead of exiting for a file review round")
		anytime     = fs.Int("anytime", 0, "-method risk/correct: stop the label schedule after at most this many labels (0 = run to convergence)")
		classifier  = fs.String("classifier", "", "-method correct: machine classifier — svm (linear SVM trained on the -labels answers), fellegi (unsupervised Fellegi-Sunter fit) or file (pre-scored labels CSV)")
		classFile   = fs.String("classifier-file", "", "-classifier file: scored-label CSV (pair_id,label,score) to correct")
		appendMode  = fs.Bool("append", false, "append the -a/-b records to a live humod workload (-server, -workload) instead of resolving locally")
		serverURL   = fs.String("server", "", "with -append: humod base URL, e.g. http://127.0.0.1:8080")
		workload    = fs.String("workload", "", "with -append: name of the server-built workload to append to")
		version     = fs.Bool("version", false, "print version information and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitOK
		}
		return exitUsage
	}
	if *version {
		fmt.Fprintln(stdout, cliutil.VersionString("humo"))
		return exitOK
	}
	if *appendMode {
		return runAppend(*serverURL, *workload, *aPath, *bPath, stdout, stderr)
	}
	if *aPath == "" || *bPath == "" || *spec == "" {
		return usageErr(stderr, errors.New("-a, -b and -spec are required; see -help"))
	}
	// Fail bad numeric flags here, with a message naming the flag, instead
	// of letting ErrBadRequirement surface after blocking and scoring.
	if err := cliutil.ValidateRequirement(*alpha, *beta, *theta); err != nil {
		return usageErr(stderr, err)
	}
	if err := cliutil.ValidateThreshold(*threshold); err != nil {
		return usageErr(stderr, err)
	}
	for _, c := range []struct {
		name string
		v    int
	}{{"-min-shared", *minShared}, {"-budget", *budget}, {"-subset", *subsetSize}, {"-window", *window}, {"-rows", *rows}, {"-bands", *bands}, {"-anytime", *anytime}} {
		if err := cliutil.ValidateNonNegative(c.name, c.v); err != nil {
			return usageErr(stderr, err)
		}
	}
	m, err := humo.ParseMethod(*method)
	if err != nil {
		return usageErr(stderr, err)
	}
	if m == humo.MethodBudgeted && *budget == 0 {
		return usageErr(stderr, errors.New("-method budgeted needs a positive -budget"))
	}
	if *anytime > 0 && m != humo.MethodRisk && m != humo.MethodCorrect {
		return usageErr(stderr, errors.New("-anytime applies to -method risk or correct only"))
	}
	switch *classifier {
	case "", "svm", "fellegi", "file":
	default:
		return usageErr(stderr, fmt.Errorf("unknown -classifier %q (want svm, fellegi or file)", *classifier))
	}
	if m == humo.MethodCorrect && *classifier == "" {
		return usageErr(stderr, errors.New("-method correct needs a -classifier (svm, fellegi or file)"))
	}
	if *classifier != "" && m != humo.MethodCorrect {
		return usageErr(stderr, errors.New("-classifier applies to -method correct only"))
	}
	if *classifier == "file" && *classFile == "" {
		return usageErr(stderr, errors.New("-classifier file needs a -classifier-file CSV"))
	}
	if *classFile != "" && *classifier != "file" {
		return usageErr(stderr, errors.New("-classifier-file applies to -classifier file only"))
	}

	mode, err := humo.ParseBlockingMode(*blockMode)
	if err != nil {
		return usageErr(stderr, err)
	}
	ta, err := readTable(*aPath, "a")
	if err != nil {
		return fail(stderr, err)
	}
	tb, err := readTable(*bPath, "b")
	if err != nil {
		return fail(stderr, err)
	}
	specs, err := cliutil.ParseAttributeSpecs(*spec)
	if err != nil {
		return usageErr(stderr, err)
	}

	var (
		cands []humo.Candidate
		w     *humo.Workload
	)
	if *candsPath != "" {
		// Pre-generated candidates (humogen -cands): skip blocking and
		// scoring entirely; the blocking flags are ignored.
		if cands, err = readCandidates(*candsPath, ta, tb); err != nil {
			return fail(stderr, err)
		}
		pairs := make([]humo.Pair, len(cands))
		for i, c := range cands {
			pairs[i] = humo.Pair{ID: i, Sim: c.Sim}
		}
		if w, err = humo.NewWorkload(pairs, *subsetSize); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "candidates: %d pre-generated pairs from %s\n", len(cands), *candsPath)
	} else {
		g, err := humo.GenerateWorkload(context.Background(), ta, tb, humo.GenConfig{
			Specs:          specs,
			Block:          mode,
			BlockAttribute: *blockAttr,
			MinShared:      *minShared,
			Window:         *window,
			Rows:           *rows,
			Bands:          *bands,
			Threshold:      *threshold,
			Workers:        *workers,
			SubsetSize:     *subsetSize,
		})
		if err != nil {
			return fail(stderr, err)
		}
		cands, w = g.Candidates, g.Workload
		fmt.Fprintf(stdout, "candidates: %d pairs above similarity %.2f\n", len(cands), *threshold)
	}

	known := dataio.Labels{}
	fingerprint := humo.WorkloadFingerprint(w)
	if *labelsIn != "" {
		// Labels are keyed by positional candidate id, which means nothing
		// if the candidate set changes (different -threshold, -spec, -block
		// or edited input tables). A fingerprint embedded in the label file
		// on the first save refuses such a mismatch instead of silently
		// attaching answers to different record pairs.
		if err := guardLabelFile(*labelsIn, fingerprint); err != nil {
			return fail(stderr, err)
		}
		if f, err := os.Open(*labelsIn); err == nil {
			known, err = dataio.ReadLabels(f)
			f.Close()
			if err != nil {
				return fail(stderr, err)
			}
		} else if !os.IsNotExist(err) {
			return fail(stderr, err)
		}
	}

	req := humo.Requirement{Alpha: *alpha, Beta: *beta, Theta: *theta}
	cfg := humo.SessionConfig{
		Method:      m,
		Base:        humo.BaseConfig{StartSubset: -1},
		BudgetPairs: *budget,
		Seed:        *seed,
		Resolve:     true,
		Known:       known,
	}
	switch m {
	case humo.MethodRisk:
		cfg.Risk.BudgetPairs = *anytime
	case humo.MethodCorrect:
		cfg.Correct.BudgetPairs = *anytime
		cfg.Correct.Labels, err = machineLabels(*classifier, *classFile, w, cands, known, fingerprint, *workers, *seed)
		if err != nil {
			return fail(stderr, err)
		}
	}
	sess, err := humo.NewSession(w, req, cfg)
	if err != nil {
		return fail(stderr, err)
	}

	env := &cliEnv{
		sess: sess, w: w, cands: cands, ta: ta, tb: tb,
		known: known, fingerprint: fingerprint,
		labelsPath: *labelsIn, pendingPath: *pending, outPath: *outPath,
		stdout: stdout, stderr: stderr,
	}
	if *interactive {
		return env.interactiveLoop(bufio.NewScanner(stdin))
	}
	return env.reviewRound()
}

// cliEnv bundles what the session-driving loops need.
type cliEnv struct {
	sess        *humo.Session
	w           *humo.Workload
	cands       []blocking.Pair
	ta, tb      *records.Table
	known       dataio.Labels
	fingerprint string
	labelsPath  string
	pendingPath string
	outPath     string
	stdout      io.Writer
	stderr      io.Writer
}

// reviewRound is the non-interactive mode: one run of the session per
// process. If the search needs answers the label file does not hold, the
// full review queue is enumerated (the session's honest batch first, then
// the pairs a continued search would request under worst-case answers for
// the unreviewed ones), written to the pending file, and the process exits
// 3. Only a session that completed without a single guessed answer writes
// results.
func (e *cliEnv) reviewRound() int {
	var queued []int
	seen := make(map[int]struct{})
	pessimist := humo.LabelerFunc(func(ctx context.Context, ids []int) (map[int]bool, error) {
		ans := make(map[int]bool, len(ids))
		for _, id := range ids {
			if _, dup := seen[id]; !dup {
				seen[id] = struct{}{}
				queued = append(queued, id)
			}
			ans[id] = false // worst-case stand-in; never reaches the output
		}
		return ans, nil
	})
	if _, err := e.sess.Run(context.Background(), pessimist); err != nil {
		return fail(e.stderr, err)
	}
	if len(queued) > 0 {
		sort.Ints(queued)
		if err := e.writePending(queued); err != nil {
			return fail(e.stderr, err)
		}
		fmt.Fprintf(e.stdout, "%d pairs need human review; queue written to %s\n", len(queued), e.pendingPath)
		fmt.Fprintf(e.stdout, "append answers to %s (pair_id,label) and re-run the same command, or re-run with -interactive\n", labelOut(e.labelsPath))
		return exitReview
	}
	return e.writeResults()
}

// interactiveLoop labels every surfaced batch live on stdin. Answers are
// merged into the label file after each batch; on EOF the unanswered
// remainder goes to the pending file and the process exits 3, resumable by
// either mode.
func (e *cliEnv) interactiveLoop(in *bufio.Scanner) int {
	ctx := context.Background()
	if e.labelsPath == "" {
		fmt.Fprintln(e.stdout, "note: no -labels file given; interactive answers are used for this run only and cannot be resumed")
	}
	for {
		b, err := e.sess.Next(ctx)
		if err != nil {
			return fail(e.stderr, err)
		}
		if b.Empty() {
			break
		}
		fmt.Fprintf(e.stdout, "review batch: %d pairs (answer m/u, match/unmatch, y/n)\n", len(b.IDs))
		ans := make(map[int]bool, len(b.IDs))
		for _, id := range b.IDs {
			e.printPair(id)
			v, ok := e.promptLabel(in)
			if !ok { // stdin exhausted or failed: persist progress, hand off
				return e.handOff(b, ans, in.Err())
			}
			ans[id] = v
		}
		if err := e.sess.Answer(ans); err != nil {
			return fail(e.stderr, err)
		}
		if err := e.saveLabels(ans); err != nil {
			return fail(e.stderr, err)
		}
	}
	if err := e.sess.Err(); err != nil {
		return fail(e.stderr, err)
	}
	return e.writeResults()
}

// handOff ends an interactive session whose stdin ran dry (scanErr nil) or
// failed (scanErr non-nil): the answers given so far are persisted, the
// unanswered remainder of the batch goes to the pending file, and the
// reported state is honest about whether anything was actually saved.
func (e *cliEnv) handOff(b humo.Batch, ans map[int]bool, scanErr error) int {
	if err := e.sess.Answer(ans); err != nil {
		return fail(e.stderr, err)
	}
	if err := e.saveLabels(ans); err != nil {
		return fail(e.stderr, err)
	}
	var remaining []int
	for _, rid := range b.IDs {
		if _, done := ans[rid]; !done {
			remaining = append(remaining, rid)
		}
	}
	e.sess.Cancel()
	if err := e.writePending(remaining); err != nil {
		return fail(e.stderr, err)
	}
	saved := fmt.Sprintf("%d answers saved to %s", len(ans), e.labelsPath)
	if e.labelsPath == "" {
		saved = fmt.Sprintf("%d answers DISCARDED (no -labels file was given)", len(ans))
	}
	if scanErr != nil {
		fmt.Fprintf(e.stdout, "\n%s, %d pairs still pending (queue written to %s)\n", saved, len(remaining), e.pendingPath)
		return fail(e.stderr, fmt.Errorf("reading stdin: %w", scanErr))
	}
	fmt.Fprintf(e.stdout, "\nstdin closed: %s, %d pairs still pending (queue written to %s)\n",
		saved, len(remaining), e.pendingPath)
	fmt.Fprintf(e.stdout, "re-run the same command to continue from %s\n", labelOut(e.labelsPath))
	return exitReview
}

// printPair shows one candidate pair with both records side by side.
func (e *cliEnv) printPair(id int) {
	c := e.cands[id]
	fmt.Fprintf(e.stdout, "\npair %d  similarity %.4f\n", id, c.Sim)
	fmt.Fprintf(e.stdout, "  a: %s\n", strings.Join(e.ta.Records[c.A].Values, " | "))
	fmt.Fprintf(e.stdout, "  b: %s\n", strings.Join(e.tb.Records[c.B].Values, " | "))
}

// promptLabel reads one answer, re-prompting on unparseable input. ok is
// false once stdin is exhausted.
func (e *cliEnv) promptLabel(in *bufio.Scanner) (v, ok bool) {
	for {
		fmt.Fprint(e.stdout, "match? [m/u] ")
		if !in.Scan() {
			return false, false
		}
		v, err := dataio.ParseLabel(strings.TrimSpace(in.Text()))
		if err != nil {
			fmt.Fprintf(e.stdout, "unrecognized answer %q\n", in.Text())
			continue
		}
		return v, true
	}
}

// saveLabels merges new answers into the known set and rewrites the label
// file (when one was given), so interactive progress survives interruption.
// The rewrite is write-temp-then-rename: a crash mid-save loses at most the
// current batch, never the answers already on disk.
func (e *cliEnv) saveLabels(ans map[int]bool) error {
	for id, v := range ans {
		e.known[id] = v
	}
	if e.labelsPath == "" || len(ans) == 0 {
		return nil
	}
	return dataio.WriteFileAtomic(e.labelsPath, func(w io.Writer) error {
		return dataio.WriteLabelsGuarded(w, e.known, e.fingerprint)
	})
}

// guardLabelFile pins the label file to the candidate set it is collected
// for. The guard is a workload fingerprint embedded in the file itself
// (`# workload: ...`), so label data and guard land in one atomic write —
// there is no sidecar to fall out of sync with the data. The first round
// writes an empty guarded file, so even answers appended by hand are
// protected from the start; while the file holds no answers yet there is
// nothing to protect, and a changed candidate set re-pins instead of
// erroring (blocking flags may be tuned freely before labeling). Legacy
// files guarded by a `.workload` sidecar keep working; a file with neither
// guard but existing labels is adopted (it may predate the guard or be
// hand-built) and re-pinned on the next save.
func guardLabelFile(labelsPath, fingerprint string) error {
	labels, got, err := readLabelGuard(labelsPath)
	if err != nil {
		return err
	}
	if len(labels) == 0 {
		if err := dataio.WriteFileAtomic(labelsPath, func(w io.Writer) error {
			return dataio.WriteLabelsGuarded(w, nil, fingerprint)
		}); err != nil {
			return err
		}
		os.Remove(labelsPath + ".workload") // superseded legacy sidecar
		return nil
	}
	if got != "" && got != fingerprint {
		return fmt.Errorf("label file %s was collected for a different candidate set (workload %s, now %s): blocking inputs changed between review rounds — restore the original -spec/-block/-threshold and tables, or start over with a fresh -labels file", labelsPath, got, fingerprint)
	}
	return nil
}

// readLabelGuard reads a label file's answers and its guard fingerprint,
// falling back to the legacy `.workload` sidecar when no guard is embedded.
func readLabelGuard(labelsPath string) (dataio.Labels, string, error) {
	f, err := os.Open(labelsPath)
	if os.IsNotExist(err) {
		return nil, "", nil
	}
	if err != nil {
		return nil, "", err
	}
	labels, got, err := dataio.ReadLabelsWorkload(f)
	f.Close()
	if err != nil {
		return nil, "", err
	}
	if got == "" {
		if b, err := os.ReadFile(labelsPath + ".workload"); err == nil {
			got = strings.TrimSpace(string(b))
		} else if !os.IsNotExist(err) {
			return nil, "", err
		}
	}
	return labels, got, nil
}

func (e *cliEnv) writePending(ids []int) error {
	f, err := os.Create(e.pendingPath)
	if err != nil {
		return err
	}
	if err := dataio.WritePending(f, ids, e.cands, e.ta, e.tb); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeResults emits the final resolution. It is only reachable when the
// session terminated with every human answer coming from a real review.
func (e *cliEnv) writeResults() int {
	sol := e.sess.Solution()
	labels := e.sess.Labels()
	rows := make([]dataio.ResultRow, e.w.Len())
	hStart, hEnd := humanRange(e.w, sol)
	// Correct sessions have an empty DH by construction; there the human
	// pairs are the ones the corrector actually verified.
	var verified map[int]bool
	if _, ok := e.sess.CorrectProgress(); ok {
		verified = e.sess.Answered()
	}
	for i := 0; i < e.w.Len(); i++ {
		id := e.w.Pair(i).ID
		source := "machine"
		if i >= hStart && i < hEnd {
			source = "human"
		}
		if _, ok := verified[id]; ok {
			source = "human"
		}
		rows[i] = dataio.ResultRow{
			PairID: id,
			A:      e.cands[id].A,
			B:      e.cands[id].B,
			Sim:    e.cands[id].Sim,
			Match:  labels[i],
			Source: source,
		}
	}
	f, err := os.Create(e.outPath)
	if err != nil {
		return fail(e.stderr, err)
	}
	if err := dataio.WriteResults(f, rows); err != nil {
		f.Close()
		return fail(e.stderr, err)
	}
	if err := f.Close(); err != nil {
		return fail(e.stderr, err)
	}
	matches := 0
	for _, r := range rows {
		if r.Match {
			matches++
		}
	}
	cost := e.sess.Cost()
	fmt.Fprintf(e.stdout, "resolution complete: %d matches, %d pairs human-verified (%.2f%%), written to %s\n",
		matches, cost, 100*float64(cost)/float64(e.w.Len()), e.outPath)
	if p, ok := e.sess.RiskProgress(); ok {
		state := "converged"
		if p.BudgetExhausted {
			state = "stopped on the -anytime budget"
		}
		fmt.Fprintf(e.stdout, "risk schedule %s after %d batches (%d scheduled labels)\n",
			state, p.Batches, p.Answered)
	}
	if p, ok := e.sess.CorrectProgress(); ok {
		state := "certified"
		if !p.Certified {
			state = "stopped on the -anytime budget"
		}
		fmt.Fprintf(e.stdout, "correction %s after %d batches: precision >= %.4f, recall >= %.4f (%d of %d machine labels verified, %d declared matches)\n",
			state, p.Batches, p.PrecisionLo, p.RecallLo, p.Verified, p.Verified+p.Remaining, p.DeclaredMatches)
	}
	return exitOK
}

// humanRange returns the half-open sorted-position range of DH.
func humanRange(w *humo.Workload, sol humo.Solution) (int, int) {
	if sol.Empty() {
		return 0, 0
	}
	start, _ := w.SubsetRange(sol.Lo)
	_, end := w.SubsetRange(sol.Hi)
	return start, end
}

// machineLabels builds the -classifier model and labels every workload pair
// with it, producing the machine label set -method correct verifies. The CLI
// aggregates per-attribute similarities at scoring time, so model features
// are the single aggregated similarity; richer feature sets are available
// through the library's Classifier contract.
func machineLabels(kind, file string, w *humo.Workload, cands []humo.Candidate, known dataio.Labels, fingerprint string, workers int, seed int64) ([]humo.CorrectLabel, error) {
	ids := make([]int, w.Len())
	for i := range ids {
		ids[i] = w.Pair(i).ID
	}
	feat := func(id int) ([]float64, error) {
		if id < 0 || id >= len(cands) {
			return nil, fmt.Errorf("pair %d outside the candidate set", id)
		}
		return []float64{cands[id].Sim}, nil
	}
	switch kind {
	case "svm":
		// Train on the human answers collected so far, in ascending-id order
		// so the fit is identical across review rounds with the same labels.
		kids := make([]int, 0, len(known))
		for id := range known {
			kids = append(kids, id)
		}
		sort.Ints(kids)
		xs := make([][]float64, 0, len(kids))
		ys := make([]bool, 0, len(kids))
		pos := 0
		for _, id := range kids {
			x, err := feat(id)
			if err != nil {
				return nil, fmt.Errorf("-labels answer: %w", err)
			}
			xs = append(xs, x)
			ys = append(ys, known[id])
			if known[id] {
				pos++
			}
		}
		if pos == 0 || pos == len(ys) {
			return nil, fmt.Errorf("-classifier svm trains on the -labels answers and needs both classes: %d match / %d unmatch answers on file — collect a first round with another method, or use -classifier fellegi (unsupervised)", pos, len(ys)-pos)
		}
		model, err := humo.TrainSVM(xs, ys, humo.SVMConfig{Seed: seed})
		if err != nil {
			return nil, err
		}
		return humo.ClassifyAll(ids, humo.SVMClassifier{Model: model, Features: feat}, workers)
	case "fellegi":
		feats := make([][]float64, len(ids))
		for i, id := range ids {
			feats[i] = []float64{cands[id].Sim}
		}
		// A symmetric starting prior: with a single aggregated-similarity
		// attribute the default low prior can dominate the (weak) one-
		// attribute likelihood ratio and EM settles on labeling everything
		// unmatch; seeding at 0.5 lets the similarity modes decide.
		model, err := humo.FitFellegi(feats, humo.FellegiConfig{InitialPrior: 0.5})
		if err != nil {
			return nil, err
		}
		return humo.ClassifyAll(ids, humo.FellegiClassifier{Model: model, Features: feat}, workers)
	case "file":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		scored, guard, err := dataio.ReadScoredLabels(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		if guard != "" && guard != fingerprint {
			return nil, fmt.Errorf("classifier file %s was scored for a different candidate set (workload %s, now %s): regenerate the scores for the current -spec/-block/-threshold and tables", file, guard, fingerprint)
		}
		lm := make(humo.LabelMapClassifier, len(scored))
		for id, l := range scored {
			lm[id] = humo.CorrectLabel{ID: id, Match: l.Match, Score: l.Score}
		}
		return lm.Labeled(), nil
	default:
		return nil, fmt.Errorf("unknown -classifier %q", kind)
	}
}

// readCandidates loads a pre-generated candidates CSV and validates its
// record references against the loaded tables.
func readCandidates(path string, ta, tb *records.Table) ([]humo.Candidate, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cands, err := dataio.ReadCandidates(f)
	if err != nil {
		return nil, err
	}
	for i, c := range cands {
		if c.A >= ta.Len() || c.B >= tb.Len() {
			return nil, fmt.Errorf("candidates file %s: pair %d references records (%d,%d) outside tables (%d,%d records) — were these candidates generated from the same -a/-b files?",
				path, i, c.A, c.B, ta.Len(), tb.Len())
		}
	}
	return cands, nil
}

// runAppend is the -append mode: instead of resolving locally, the -a/-b
// rows are POSTed to a humod server's live workload, which journals them,
// grows the candidate set through its delta indexes, and extends running
// sessions in place. Either table may be omitted to append one-sided.
func runAppend(server, workload, aPath, bPath string, stdout, stderr io.Writer) int {
	if server == "" || workload == "" {
		return usageErr(stderr, errors.New("-append needs -server and -workload"))
	}
	if aPath == "" && bPath == "" {
		return usageErr(stderr, errors.New("-append needs records to send: -a and/or -b CSVs"))
	}
	readRows := func(path, name string) ([][]string, error) {
		if path == "" {
			return nil, nil
		}
		t, err := readTable(path, name)
		if err != nil {
			return nil, err
		}
		rows := make([][]string, len(t.Records))
		for i, rec := range t.Records {
			rows[i] = rec.Values
		}
		return rows, nil
	}
	rowsA, err := readRows(aPath, "a")
	if err != nil {
		return fail(stderr, err)
	}
	rowsB, err := readRows(bPath, "b")
	if err != nil {
		return fail(stderr, err)
	}
	body, err := json.Marshal(serve.AppendRequest{RowsA: rowsA, RowsB: rowsB})
	if err != nil {
		return fail(stderr, err)
	}
	url := strings.TrimRight(server, "/") + "/v1/workloads/" + workload + "/records"
	res, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return fail(stderr, err)
	}
	defer res.Body.Close()
	data, err := io.ReadAll(res.Body)
	if err != nil {
		return fail(stderr, err)
	}
	if res.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fail(stderr, fmt.Errorf("server refused the append (status %d): %s", res.StatusCode, e.Error))
		}
		return fail(stderr, fmt.Errorf("server refused the append: status %d", res.StatusCode))
	}
	var info serve.AppendInfo
	if err := json.Unmarshal(data, &info); err != nil {
		return fail(stderr, fmt.Errorf("decoding server response: %w", err))
	}
	fmt.Fprintf(stdout, "appended %d+%d records to %s (epoch %d): %d new candidate pairs, %d total, %d sessions extended\n",
		info.RecordsA, info.RecordsB, workload, info.Epoch, info.NewPairs, info.TotalPairs, info.SessionsExtended)
	fmt.Fprintf(stdout, "workload fingerprint: %s\n", info.Fingerprint)
	return exitOK
}

func readTable(path, name string) (*records.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataio.ReadTable(f, name)
}

func labelOut(path string) string {
	if path == "" {
		return "a labels CSV (pass it with -labels)"
	}
	return path
}
