package humo

import (
	"context"
	"errors"
	"fmt"

	"humo/internal/blocking"
	"humo/internal/records"
)

// Candidate generation: the front half of the pipeline, turning two record
// tables into the scored instance pairs every optimizer consumes. See
// internal/blocking for the engine; these aliases and GenerateWorkload form
// the stable public surface.

type (
	// Table is a named collection of records over a fixed attribute schema.
	Table = records.Table
	// Record is one relational record of a Table.
	Record = records.Record
	// AttributeSpec maps one attribute of both tables to a similarity
	// measure and an aggregation weight.
	AttributeSpec = blocking.AttributeSpec
	// SimilarityKind selects a per-attribute similarity measure.
	SimilarityKind = blocking.Kind
	// BlockingMode selects a candidate-generation strategy.
	BlockingMode = blocking.Mode
	// Candidate is one scored candidate pair: record positions in the two
	// tables plus the aggregated weighted similarity.
	Candidate = blocking.Pair
)

// Per-attribute similarity measures.
const (
	KindJaccard     = blocking.KindJaccard
	KindJaroWinkler = blocking.KindJaroWinkler
	KindLevenshtein = blocking.KindLevenshtein
	KindCosine      = blocking.KindCosine
)

// Candidate-generation strategies.
const (
	// BlockCross scores every record pair (exact, O(|A|·|B|)).
	BlockCross = blocking.ModeCross
	// BlockToken joins the tables through a size- and prefix-filtered
	// inverted token index — the scalable default.
	BlockToken = blocking.ModeToken
	// BlockSorted is classical sorted-neighborhood blocking.
	BlockSorted = blocking.ModeSorted
	// BlockLSH joins the tables through banded MinHash signatures and only
	// verifies colliding pairs — the sub-quadratic path for 1M+ records.
	BlockLSH = blocking.ModeLSH
)

// ParseSimilarityKind parses a similarity kind name (jaccard, jarowinkler,
// levenshtein, cosine).
func ParseSimilarityKind(s string) (SimilarityKind, error) { return blocking.ParseKind(s) }

// ParseBlockingMode parses a blocking mode name (cross, token, sorted,
// lsh).
func ParseBlockingMode(s string) (BlockingMode, error) { return blocking.ParseMode(s) }

// ErrNoCandidates reports a generation run whose threshold left no
// candidate pairs to resolve.
var ErrNoCandidates = errors.New("humo: no candidate pairs at or above the threshold")

// GenConfig configures GenerateWorkload.
type GenConfig struct {
	// Specs maps attributes to similarity measures. With every Weight zero,
	// weights are derived by the paper's distinct-value rule (§VIII-A);
	// otherwise the given weights are normalized as-is.
	Specs []AttributeSpec
	// Block selects the strategy (default BlockToken).
	Block BlockingMode
	// BlockAttribute is the blocking key of BlockToken, BlockSorted and
	// BlockLSH (default: the first spec's attribute).
	BlockAttribute string
	// MinShared is BlockToken's minimum shared-token count (default 1). It
	// also floors BlockLSH verification: colliding pairs sharing fewer than
	// max(MinShared, Rows) blocking-attribute tokens are dropped before
	// scoring.
	MinShared int
	// Window is BlockSorted's window size (default 10).
	Window int
	// Rows is BlockLSH's sketch depth per band (default 2): a band keys on
	// a record's Rows smallest token hashes, so more rows make a collision
	// more selective, and candidates always share at least Rows
	// blocking-attribute tokens.
	Rows int
	// Bands is BlockLSH's band count (default 32); more bands raise recall
	// at the cost of more verification work. A pair of blocking-attribute
	// Jaccard similarity s becomes a candidate with probability
	// 1-(1-s^Rows)^Bands.
	Bands int
	// Threshold keeps candidates with aggregated similarity >= Threshold.
	Threshold float64
	// Workers bounds the generation fan-out (<= 0 selects GOMAXPROCS).
	// Results are identical at any worker count.
	Workers int
	// SubsetSize is the unit-subset size of the built Workload (0 selects
	// DefaultSubsetSize).
	SubsetSize int
}

// GeneratedWorkload is the product of GenerateWorkload: the scored
// candidate pairs (Workload pair id i refers to Candidates[i]) and the
// ready-to-resolve Workload with its fingerprint.
type GeneratedWorkload struct {
	Candidates  []Candidate
	Workload    *Workload
	Fingerprint string
}

// CorePairs returns the machine-visible instance pairs (id = candidate
// index), the form dataio.WritePairs persists.
func (g *GeneratedWorkload) CorePairs() []Pair {
	out := make([]Pair, len(g.Candidates))
	for i, c := range g.Candidates {
		out[i] = Pair{ID: i, Sim: c.Sim}
	}
	return out
}

// GenerateWorkload blocks and scores the candidate pairs of two record
// tables and builds the resulting Workload — the high-throughput front end
// of the resolution pipeline. Records are preprocessed once (tokens
// interned, norms precomputed), candidates come from the configured
// blocking strategy, and scoring fans out over cfg.Workers goroutines.
//
// Determinism guarantee: for fixed tables and config, GenerateWorkload
// returns the same candidates with bit-identical similarities — and hence
// the same workload fingerprint — at any Workers value. ctx cancels a long
// generation.
func GenerateWorkload(ctx context.Context, ta, tb *Table, cfg GenConfig) (*GeneratedWorkload, error) {
	scorer, opt, err := resolveGen(ta, tb, cfg)
	if err != nil {
		return nil, err
	}
	cands, err := blocking.Generate(ctx, scorer, opt)
	if err != nil {
		return nil, err
	}
	return buildGenerated(cands, cfg.SubsetSize)
}

// resolveGen applies GenConfig's defaulting rules — distinct-value weights
// when every spec weight is zero, then the per-mode option defaults — and
// builds the scorer. It is the one place the config-to-engine translation
// lives, shared by the one-shot and incremental entry points so both see
// exactly the same resolved generation.
func resolveGen(ta, tb *Table, cfg GenConfig) (*blocking.Scorer, blocking.Options, error) {
	specs := cfg.Specs
	if len(specs) == 0 {
		return nil, blocking.Options{}, fmt.Errorf("humo: GenConfig.Specs is required")
	}
	allZero := true
	for _, sp := range specs {
		if sp.Weight != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		var err error
		if specs, err = blocking.DistinctValueSpecs(ta, tb, specs); err != nil {
			return nil, blocking.Options{}, err
		}
	}
	scorer, err := blocking.NewScorer(ta, tb, specs)
	if err != nil {
		return nil, blocking.Options{}, err
	}
	opt := blocking.Options{
		Mode:      cfg.Block,
		Attribute: cfg.BlockAttribute,
		MinShared: cfg.MinShared,
		Window:    cfg.Window,
		Rows:      cfg.Rows,
		Bands:     cfg.Bands,
		Threshold: cfg.Threshold,
		Workers:   cfg.Workers,
	}
	if opt.Mode == "" {
		opt.Mode = BlockToken
	}
	if opt.Attribute == "" {
		opt.Attribute = specs[0].Attribute
	}
	if opt.MinShared == 0 {
		opt.MinShared = 1
	}
	if opt.Window == 0 {
		opt.Window = 10
	}
	if opt.Rows == 0 {
		opt.Rows = 2
	}
	if opt.Bands == 0 {
		opt.Bands = 32
	}
	return scorer, opt, nil
}

// buildGenerated wraps scored candidates into a GeneratedWorkload.
func buildGenerated(cands []Candidate, subsetSize int) (*GeneratedWorkload, error) {
	if len(cands) == 0 {
		return nil, ErrNoCandidates
	}
	g := &GeneratedWorkload{Candidates: cands}
	var err error
	if g.Workload, err = NewWorkload(g.CorePairs(), subsetSize); err != nil {
		return nil, err
	}
	g.Fingerprint = WorkloadFingerprint(g.Workload)
	return g, nil
}

// IncrementalWorkload is the streaming form of GenerateWorkload: built once
// over the current tables, it absorbs later records.Table Append growth
// through Sync, which emits only the delta pairs (new-vs-old and
// new-vs-new candidates) and maintains the cumulative workload plus a
// monotone fingerprint chain — one fingerprint per epoch, each covering the
// cumulative pair set at that point.
//
// Epoch 0 is bit-identical to GenerateWorkload over the same tables and
// config: same candidates, same similarity bits, same fingerprint. Delta
// candidates are appended after all existing ones, so every epoch's pair
// list is a strict prefix of every later epoch's — the property session
// recovery leans on to restore a checkpoint taken at an earlier epoch and
// replay the remaining deltas.
//
// Weights resolved by the distinct-value rule are pinned at construction:
// appends change value-distinctness counts, so re-deriving weights per
// epoch would silently rescore old pairs. Only BlockToken and BlockLSH
// support incremental maintenance, and cosine specs trade away the
// bit-exact equivalence guarantee (see internal/blocking.Incremental).
//
// An IncrementalWorkload is not safe for concurrent use, and Sync must not
// run concurrently with reads of the tables or the generated workload.
type IncrementalWorkload struct {
	inc    *blocking.Incremental
	g      *GeneratedWorkload
	chain  []string
	bounds []int
}

// NewIncrementalWorkload generates the initial workload (bit-identical to
// GenerateWorkload with the same inputs) and retains the blocking state
// future Sync calls maintain. The tables must be the live ones the caller
// will Append to.
func NewIncrementalWorkload(ctx context.Context, ta, tb *Table, cfg GenConfig) (*IncrementalWorkload, error) {
	scorer, opt, err := resolveGen(ta, tb, cfg)
	if err != nil {
		return nil, err
	}
	inc, cands, err := blocking.NewIncremental(ctx, scorer, opt)
	if err != nil {
		return nil, err
	}
	g, err := buildGenerated(cands, cfg.SubsetSize)
	if err != nil {
		return nil, err
	}
	return &IncrementalWorkload{
		inc: inc, g: g,
		chain:  []string{g.Fingerprint},
		bounds: []int{len(g.Candidates)},
	}, nil
}

// Sync absorbs table growth since construction or the previous Sync. It
// returns the delta as core pairs whose IDs continue the cumulative
// candidate numbering (delta pair i refers to Candidates()[id]), appends a
// new epoch to the fingerprint chain, and rebuilds the cumulative
// Generated workload. With no table growth Sync returns nil and appends no
// epoch; growth that yields no new candidates still appends an epoch (the
// chain records that those records were absorbed) and returns an empty
// non-nil slice.
func (iw *IncrementalWorkload) Sync(ctx context.Context) ([]Pair, error) {
	delta, err := iw.inc.Sync(ctx)
	if err != nil || delta == nil { // delta is nil exactly when the tables did not grow
		return nil, err
	}
	base := len(iw.g.Candidates)
	out := make([]Pair, len(delta))
	for i, c := range delta {
		out[i] = Pair{ID: base + i, Sim: c.Sim}
	}
	// Merge the delta into the sorted workload instead of re-sorting the
	// union; the fingerprint still hashes the whole cumulative workload.
	w, err := iw.g.Workload.Extend(out)
	if err != nil {
		return nil, err
	}
	cands := append(iw.g.Candidates, delta...)
	iw.g = &GeneratedWorkload{Candidates: cands, Workload: w, Fingerprint: WorkloadFingerprint(w)}
	iw.chain = append(iw.chain, iw.g.Fingerprint)
	iw.bounds = append(iw.bounds, len(cands))
	return out, nil
}

// Generated returns the cumulative workload as of the latest epoch.
func (iw *IncrementalWorkload) Generated() *GeneratedWorkload { return iw.g }

// Fingerprint returns the latest epoch's workload fingerprint.
func (iw *IncrementalWorkload) Fingerprint() string { return iw.chain[len(iw.chain)-1] }

// Chain returns a copy of the fingerprint chain: element e is the
// fingerprint of the cumulative workload at epoch e.
func (iw *IncrementalWorkload) Chain() []string { return append([]string(nil), iw.chain...) }

// Boundaries returns a copy of the per-epoch cumulative candidate counts:
// element e is how many candidates existed at epoch e, so epoch e's pair
// list is Candidates()[:Boundaries()[e]].
func (iw *IncrementalWorkload) Boundaries() []int { return append([]int(nil), iw.bounds...) }

// Epoch returns the latest epoch number (0 after construction, +1 per
// growth-absorbing Sync).
func (iw *IncrementalWorkload) Epoch() int { return len(iw.chain) - 1 }
