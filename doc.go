// Package humo implements HUMO, the HUman-and-Machine-cOoperation framework
// for entity resolution with quality guarantees of Chen et al. (ICDE 2018,
// "Enabling Quality Control for Entity Resolution").
//
// # The problem
//
// Given an ER workload — instance pairs scored by a machine metric such as
// aggregated attribute similarity — HUMO enforces user-specified precision
// and recall levels (with a confidence level) by splitting the workload into
// three zones: low-metric pairs machine-labeled unmatch (D-), high-metric
// pairs machine-labeled match (D+), and a middle zone DH whose pairs are
// verified by a human. The optimization problem is minimizing |DH| subject
// to the quality requirement.
//
// # The optimizers
//
// Three searches locate DH's boundaries, trading assumptions for human cost:
//
//   - Base: justified purely by the monotonicity assumption of precision
//     (higher similarity => higher match probability). Meets any requirement
//     with certainty when monotonicity holds, at conservative cost.
//   - AllSampling: samples every unit subset and bounds the match counts of
//     D- and D+ with stratified random-sampling margins (Student-t).
//   - PartialSampling: samples a few subsets, interpolates the
//     match-proportion function with Gaussian-process regression, and bounds
//     region totals from the posterior — usually the cheapest sampling
//     approach.
//   - Hybrid: starts from the partial-sampling solution and re-tightens the
//     boundaries using the better of the monotonicity-based and the
//     sampling-based estimates at every step.
//
// # Risk-aware resolution (r-HUMO)
//
// RiskAware (Method "risk") implements the r-HUMO refinement of the
// follow-up work (Hou et al. 2018): after the partial-sampling fit, the
// human zone is not labeled wholesale but scheduled rarest-risk-first — a
// pair's risk is the (optionally tail-weighted, RiskScheduleConfig.TailProb)
// posterior probability that its machine label would be wrong, exactly the
// pairs whose mislabeling endangers the precision/recall guarantee. After
// every answered batch the per-subset Beta posteriors are re-estimated and
// the certified division recomputed from the combined evidence (stratified
// counts where humans have answered, the Gaussian process elsewhere, hulled
// with the monotonicity envelope of the observed rates); the schedule stops
// the moment the requirement is provably met. RiskConfig.BudgetPairs makes
// the search anytime: the schedule stops at the label budget and settles
// for the currently certified division, which still carries the guarantee
// once its DH is human-labeled. Session surfaces the schedule's state via
// RiskProgress, and humod serves it in the session status.
//
// Risk determinism contract: for a fixed workload, requirement and
// configuration, the same seed plus the same answers yield the same
// schedule — every batch's pair ids in order, and therefore the same
// Solution and human cost — across runs and across ALL worker counts
// (RiskScheduleConfig.Workers trades wall-clock time only; risk scores are
// reduced in ascending subset index order).
// Checkpoint/RestoreSession therefore replay risk sessions bit-identically,
// like every other method.
//
// # Risk-corrected machine labels (c-HUMO)
//
// Correct (Method "correct") inverts the regime of the searches above:
// instead of finding a human zone inside an unlabeled workload, it starts
// from a complete machine labeling — any Classifier implementation; SVM,
// Fellegi and LabelMapClassifier adapt the built-in models and pre-scored
// files, ClassifyAll fans a classifier over the workload deterministically —
// and spends the human budget verifying the labels most likely to be wrong
// (Chen et al. 2018, arXiv:1805.12502). The scored labels are stratified by
// classifier confidence, a Beta posterior over the classifier's error rate
// is maintained per stratum, and verification proceeds riskiest-first in
// batches until the corrected label set provably meets the
// precision/recall requirement — or CorrectConfig.BudgetPairs stops it
// early with the bounds certified so far. Verified pairs carry their human
// answer; everything else keeps its (possibly corrected-by-posterior)
// machine label. Session surfaces the live certificate via
// CorrectProgress, and humod serves it in the session status.
//
// The risk determinism contract holds unchanged: same labels + same seed +
// same answers yield the same verification schedule at any worker count,
// and Checkpoint/RestoreSession replay correct sessions bit-identically —
// the checkpoint fingerprints the machine label set, so a restore against
// a retrained classifier is refused rather than silently mixed.
//
// # Quick example
//
//	pairs := []humo.Pair{ /* id + machine metric per instance pair */ }
//	w, err := humo.NewWorkload(pairs, 0) // 0 = default subset size (200)
//	if err != nil { ... }
//	oracle := humo.NewSimulatedOracle(groundTruth) // or your own Oracle
//	req := humo.Requirement{Alpha: 0.9, Beta: 0.9, Theta: 0.9}
//	sol, err := humo.Hybrid(w, req, oracle, humo.HybridConfig{
//		Sampling: humo.SamplingConfig{Rand: rand.New(rand.NewSource(1))},
//	})
//	if err != nil { ... }
//	labels := sol.Resolve(w, oracle) // final labeling; DH goes to the human
//
// The Oracle interface is the human: any implementation of
// LabelAll(ids []int) []bool works — a simulated ground truth, a review UI,
// or a crowdsourcing connector. The searches hand it whole review batches —
// a unit subset, a per-subset sample, the final DH — one call each, and it
// answers them in the given order. Human cost is the number of distinct
// pairs the oracle is asked about (SimulatedOracle.Cost reads it back).
//
// # Sessions and the Labeler contract
//
// The one-shot searches block inside Oracle.LabelAll, which real human
// backends cannot serve: they answer asynchronously and fallibly. Session runs any of the five searches as a pausable state
// machine instead:
//
//	s, err := humo.NewSession(w, req, humo.SessionConfig{Method: humo.MethodHybrid, Seed: 1})
//	for {
//		batch, err := s.Next(ctx) // coalesced, deduplicated pair ids
//		if err != nil { ... }
//		if batch.Empty() { break }
//		s.Answer(labels)          // partial answers allowed
//	}
//	sol, cost := s.Solution(), s.Cost()
//
// The search runs on an internal goroutine against a channel-backed oracle,
// so the core algorithms are unchanged — and a session driven to completion
// produces the bit-identical Solution and human cost as the one-shot call
// with the same seed. Sessions are cancellable (Cancel), resumable across
// process restarts (Checkpoint/RestoreSession replay the answered-label log
// deterministically), and optionally carry the search through the final DH
// labeling (SessionConfig.Resolve, Session.Labels).
//
// Backends implement the error-aware contract
//
//	type Labeler interface {
//		LabelBatch(ctx context.Context, ids []int) (map[int]bool, error)
//	}
//
// and drive a session with Session.Run, which propagates backend failures
// and ctx cancellation as errors — states an Oracle cannot represent.
// OracleLabeler adapts an Oracle to the Labeler contract,
// so Session.Run is the one path from a Labeler into any search.
//
// # Crowd-scale labeling
//
// CrowdLabeler (internal/crowd) is a Labeler that models a real
// crowdsourcing workforce after CrowdER's cost model (Wang et al., VLDB
// 2012) instead of a perfect per-pair reviewer. A surfaced batch is first
// answered from the transitive closure of earlier answers (a~b plus b~c
// answers a~c for free, and a~b plus a confirmed non-match b!~c answers
// a!~c); the remainder is packed into cluster-based HITs of at most K
// distinct records, so pairs sharing records ride on one task page; each
// packed pair is voted on by several simulated noisy workers, aggregated
// under per-worker Beta accuracy posteriors, and escalated — one extra vote
// at a time — while the posterior confidence sits below the configured
// floor. Conflicts between a direct answer and the closure's inference are
// counted and resolved in favor of the direct answer. ERDataset.CrowdRefs
// exposes the record identities behind generated workloads; humod accepts a
// "crowd" session spec that drives a server-side session through the same
// pipeline, and "humoexp crowdcost" measures the HITs and votes the
// pipeline saves against a flat per-pair batcher at equal quality.
//
// Crowd determinism contract: for a fixed configuration (seed, pool size,
// worker error range, packing and vote knobs) and a fixed sequence of label
// batches, the HITs built, the votes cast, the inferred labels and every
// CrowdStats counter are bit-identical across runs and across all worker
// counts (CrowdLabelerConfig.Workers trades wall-clock time only).
//
// # The humod server
//
// One session is one resolution; a deployment runs many at once, each with
// its own human workforce answering asynchronously. internal/serve provides
// that serving layer and cmd/humod exposes it over an HTTP JSON API:
//
//	POST   /v1/sessions                  create (inline pairs or workload_file)
//	GET    /v1/sessions                  list
//	GET    /v1/sessions/{id}             status / solution / cost
//	GET    /v1/sessions/{id}/next        long-poll the pending batch
//	POST   /v1/sessions/{id}/answers     submit (partial) answers
//	GET    /v1/sessions/{id}/labels      long-poll the answered-label log
//	DELETE /v1/sessions/{id}             cancel and forget
//	POST   /v1/workloads                 build a workload from uploaded tables
//	POST   /v1/workloads/{name}/records  append records to a live workload
//	GET    /metrics                      counters + latency histograms
//
// The serve.Manager owns the sessions (create/get/list/delete, bounded by
// a configurable cap, partitioned by id hash across independent shard lock
// domains) and journals: every answers call is applied to the session and
// fsynced as one delta line appended to the session's journal — on top of
// a base checkpoint rewritten atomically every CompactEvery deltas —
// before it is acknowledged. The recovery guarantee follows from
// Checkpoint/RestoreSession's replay semantics plus the journal replay
// rules (internal/serve): a humod killed at ANY point — between two
// batches, mid-batch, mid-append (a torn journal line is dropped and
// truncated away), mid-compaction — restarts on the same state directory
// with every live session restored, and each resolution completes with the
// bit-identical Solution and human cost of a run that was never
// interrupted. The cmd/humod e2e tests kill a server mid-resolution and
// assert exactly that.
//
// HTTPLabeler closes the loop from the client side: it implements Labeler
// against the labels endpoint, so a local Session.Run can label through a
// remote humod's workforce. Create the remote session as the deterministic
// twin of the local one (same workload, method, knobs and seed): the pairs
// the local search asks for are then exactly the pairs the remote session
// surfaces to its workforce, and both runs land on the same division.
//
// # Generating workloads: GenerateWorkload
//
// Everything above consumes a Workload of pre-scored pairs; GenerateWorkload
// is the high-throughput front end that produces one from two record
// tables:
//
//	g, err := humo.GenerateWorkload(ctx, tableA, tableB, humo.GenConfig{
//		Specs: []humo.AttributeSpec{
//			{Attribute: "name", Kind: humo.KindJaccard},
//			{Attribute: "description", Kind: humo.KindCosine},
//		},
//		Block:     humo.BlockToken, // size- and prefix-filtered inverted index
//		MinShared: 2,
//		Threshold: 0.3,
//		Workers:   0, // all cores
//	})
//	// g.Workload is ready to resolve; g.Candidates[i] holds the record
//	// pair behind workload pair id i; g.Fingerprint pins the output.
//
// The engine (internal/blocking) preprocesses every record exactly once —
// tokens interned into a shared int-id dictionary, sorted token-id sets for
// linear-merge Jaccard, term-frequency vectors with precomputed norms for
// cosine, decoded rune slices and reusable DP buffers for the edit-distance
// measures — so the per-pair hot path neither tokenizes nor allocates.
// BlockToken replaces the quadratic scan with an inverted-index join: with
// a minimum shared-token count k, records with fewer than k tokens are
// dropped outright (size filter), and only each record's df-rarest
// len-k+1 tokens are indexed and probed (prefix filter); surviving
// candidates are verified by merging the full sorted token lists before
// scoring. Scoring fans out over internal/parallel in contiguous record
// shards merged in order.
//
// BlockLSH is the million-record path. The inverted index is exact but its
// cost sums count_A(t)*count_B(t) over tokens — skewed vocabularies make
// hot postings quadratic. BlockLSH keys each record, per band, on its Rows
// smallest token hashes under the band's seeded 64-bit function (bottom-Rows
// MinHash), so a band collision requires the Rows smallest hashes of the
// pair's union to all be shared tokens: probability ~ jaccard^Rows per
// band, 1-(1-s^Rows)^Bands over Bands bands, and pairs sharing fewer than
// Rows tokens never collide at all. Colliding pairs are verified against
// the full sorted token lists — candidates always share at least
// max(MinShared, Rows) tokens — before the same sharded scoring. Hash
// seeds are fixed constants, so LSH output is as deterministic as the
// exact modes; recall against BlockToken at the same threshold is measured
// and pinned by test (>= 0.95 on the seeded short-attribute fixture, 1.0
// on the long-title benchmark fixture).
//
// Determinism contract: for fixed tables and GenConfig, GenerateWorkload
// returns the same candidate pairs with bit-identical similarities — and
// therefore the same workload fingerprint — at any Workers value; the
// worker count changes wall-clock time, never output. This holds for every
// blocking mode including BlockLSH (fixed hash seeds, order-stable merges).
// Distinct Generate calls may also share one Scorer concurrently: the
// scorer is read-only after construction, pinned by a -race test. All-zero
// spec weights select the paper's distinct-value weighting rule (§VIII-A).
// The equivalence tests in internal/blocking hold the whole rebuilt path
// bit-identical to the straightforward map-based reference implementation.
//
// GenerateWorkload is wired into the binaries three ways: cmd/humogen
// (generate mode: -a/-b/-spec/-block/-workers, writing the workload CSV
// with its fingerprint embedded as a leading comment line — one atomic
// artifact — and optionally the full candidates CSV), cmd/humod
// (POST /v1/workloads builds a workload server-side from uploaded tables
// and persists it under -data for sessions to reference by file name), and
// cmd/humo (in-process generation, or -candidates to consume a humogen
// candidates file directly).
//
// # Streaming: live tables, workload deltas, session extension
//
// Production tables are not static. The incremental path keeps a
// resolution live while records arrive:
//
//   - Table.Append grows a record table in versioned snapshots (ids
//     continue the existing numbering; earlier snapshots stay valid).
//   - IncrementalWorkload retains the blocking state a from-scratch
//     generation would rebuild — the inverted token index for BlockToken,
//     the band tables for BlockLSH — and Sync emits only the delta:
//     candidates pairing a new record with an old one or two new records
//     with each other. The union of the initial pairs and every Sync delta
//     is bit-identical (same pair set, same similarity bits, any worker
//     count) to generating from scratch over the final tables, and delta
//     pair ids continue the cumulative numbering, so each epoch's pair
//     list is a strict prefix of the next.
//   - Session.Extend absorbs a candidate delta into a running session
//     without restarting it, re-certifying only the strata the new pairs
//     touch. The delta is sorted alone and merged into the sorted
//     workload (Workload.Extend), never re-sorted with it. Extending a canceled or terminated session returns
//     ErrSessionDone with the answered-label log intact; extending with
//     zero new candidates is a no-op.
//
// Identity under appends is a monotone fingerprint chain, not a single
// hash: element e of IncrementalWorkload.Chain is the workload fingerprint
// after append epoch e, Extend appends to the session's copy of the chain,
// and Checkpoint records it. RestoreSession accepts a checkpoint whose
// workload hash appears anywhere in the current chain — the session
// restores at that epoch and absorbs the missing suffix through Extend —
// and refuses (ErrCheckpointMismatch) one that appears nowhere, so answers
// can never silently reattach to a different candidate set. humod wires
// this through POST /v1/workloads/{name}/records (appends are journaled
// before they are applied and replayed one Sync epoch per journal line on
// restart) and cmd/humo's -append mode.
//
// Package-level generators (Logistic, DSLike, ABLike) reproduce the paper's
// evaluation workloads for benchmarking; cmd/humoexp regenerates every table
// and figure of the paper's evaluation section.
//
// # Module setup
//
// The repository is the single Go module "humo" (see go.mod); a fresh clone
// builds and tests with the standard toolchain and no third-party
// dependencies:
//
//	go build ./... && go test ./...
//
// # Parallelism
//
// The experiment harness and the hot estimation paths fan out on bounded
// worker pools (internal/parallel). Every concurrency knob uses the same
// convention — values <= 0 select GOMAXPROCS — and every parallel path is
// deterministic: repetition seeds are fixed per index and reductions happen
// in index order, so any worker count produces bit-identical results. The
// bound applies per fan-out level (concurrent experiments, repetitions
// within one, risk scoring inside a search), not globally — nested levels can
// briefly oversubscribe, which trades some scheduling overhead for a much
// simpler determinism story.
//
//   - cmd/humoexp -parallel N runs up to N experiments concurrently and
//     fans each experiment's stochastic repetitions out across up to N
//     workers, printing output in command-line order regardless of
//     completion order.
//   - humo.Workers normalizes a knob the way the rest of the package does.
package humo
