package core

import (
	"fmt"
	"math/rand"

	"humo/internal/correct"
	"humo/internal/risk"
)

// CorrectConfig configures the risk-corrected verification search: the
// machine classifier's labels over the workload plus the stratification and
// schedule knobs of internal/correct.
type CorrectConfig struct {
	// Labels is the classifier's output for the covered subset of the
	// workload's pairs (correct.Assign produces it from any
	// correct.Classifier). Workload pairs without a label are scheduled for
	// unconditional human verification — which is how workload growth stays
	// absorbable: pairs appended after the classifier ran are simply
	// uncovered.
	Labels []correct.Labeled
	// StratumSize and SeedPerStratum shape the confidence strata; 0 selects
	// the internal/correct defaults.
	StratumSize    int
	SeedPerStratum int
	// Schedule tunes the risk scheduler driving the verification order
	// (batch size, prior strength, tail risk, scoring workers).
	Schedule risk.Config
	// BudgetPairs, when positive, is the anytime budget: the correction
	// stops after at most this many human labels even if the requirement is
	// not yet certified. The emitted label set is then the best correction
	// the budget bought; its certificate (the final Progress snapshot)
	// states what was actually achieved.
	BudgetPairs int
	// Rand drives the per-stratum verification-order shuffles; nil selects a
	// fixed-seed source.
	Rand *rand.Rand
	// Progress, when non-nil, is invoked after every re-estimation round
	// (and once on termination) with the current correction state. It is
	// called synchronously from the search; keep it fast.
	Progress func(CorrectProgress)
}

// CorrectProgress is a point-in-time snapshot of a running correction.
type CorrectProgress struct {
	// PrecisionLo and RecallLo are the current certificate: the corrected
	// label set's worst-case precision and recall, each at per-quantity
	// confidence sqrt(theta).
	PrecisionLo, RecallLo float64
	// DeclaredMatches is the number of pairs the corrected set labels match.
	DeclaredMatches int
	// Verified is the number of human answers consumed; Remaining the number
	// of pairs still unverified.
	Verified, Remaining int
	// Batches is the number of completed verification rounds.
	Batches int
	// Certified reports that the requirement is provably met; the corrected
	// label set carries the (alpha, beta, theta) guarantee.
	Certified bool
	// BudgetExhausted reports an anytime stop: the label budget ran out
	// before the requirement certified.
	BudgetExhausted bool
}

// CorrectSearch runs the risk-corrected verification of the third HUMO paper
// (Chen et al., arXiv:1805.12502): instead of partitioning the workload into
// machine and human zones, every pair keeps its machine-classifier label and
// human effort goes riskiest-first — confidence strata whose observed error
// posterior most endangers the precision/recall guarantee are verified
// before confident ones, re-estimating after every batch, until the
// certificate provably meets the requirement (or the anytime budget runs
// out). The returned labels, indexed by sorted pair position like
// Solution.Resolve's, are the corrected label set: human answers where
// verified, classifier labels elsewhere. The Solution carries an empty DH
// (there is no human zone; Method "CORRECT", SampledPairs = human labels
// consumed) and exists for cost accounting and reporting — do not Resolve
// it, the returned labels are the resolution.
//
// Determinism: for a fixed workload, requirement and configuration (Rand
// seeded identically), the schedule — every batch's pair ids in order — and
// the corrected labels are bit-identical across runs and across any
// Schedule.Workers value; worker counts trade wall-clock time only.
func CorrectSearch(w *Workload, req Requirement, o Oracle, cfg CorrectConfig) (Solution, []bool, error) {
	if err := req.Validate(); err != nil {
		return Solution{}, nil, err
	}
	if cfg.BudgetPairs < 0 {
		return Solution{}, nil, fmt.Errorf("%w: negative anytime budget %d", ErrBadWorkload, cfg.BudgetPairs)
	}
	rng := cfg.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	universe := make([]int, w.Len())
	for i := range universe {
		universe[i] = w.Pair(i).ID
	}
	cor, err := correct.New(universe, cfg.Labels, correct.Config{
		StratumSize:    cfg.StratumSize,
		SeedPerStratum: cfg.SeedPerStratum,
		Schedule:       cfg.Schedule,
		Rand:           rng,
	})
	if err != nil {
		return Solution{}, nil, err
	}

	batches := 0
	exhausted := false
	var cert correct.Certificate
	report := func(done bool) {
		if cfg.Progress == nil {
			return
		}
		cfg.Progress(CorrectProgress{
			PrecisionLo:     cert.PrecisionLo,
			RecallLo:        cert.RecallLo,
			DeclaredMatches: cert.DeclaredMatches,
			Verified:        cert.Verified,
			Remaining:       cert.Remaining,
			Batches:         batches,
			Certified:       done && !exhausted,
			BudgetExhausted: exhausted,
		})
	}
	for {
		if cert, err = cor.Certify(req.Theta); err != nil {
			return Solution{}, nil, err
		}
		if cert.PrecisionLo >= req.Alpha && cert.RecallLo >= req.Beta {
			break
		}
		limit := 0
		if cfg.BudgetPairs > 0 {
			limit = cfg.BudgetPairs - cor.Answered()
			if limit <= 0 {
				exhausted = true
				break
			}
		}
		ids := cor.NextBatch(limit)
		if len(ids) == 0 {
			// Everything is verified; the next Certify is exact and meets any
			// requirement, so re-enter the loop once more.
			continue
		}
		for i, match := range o.LabelAll(ids) {
			cor.Observe(ids[i], match)
		}
		batches++
		report(false)
	}
	report(true)

	labels := make([]bool, w.Len())
	for i := range labels {
		labels[i] = cor.Label(w.Pair(i).ID)
	}
	// Lo=0, Hi=-1 is the canonical empty DH: the corrected set has no human
	// zone, every pair carries a final label already.
	return Solution{Method: "CORRECT", Lo: 0, Hi: -1, SampledPairs: cor.Answered()}, labels, nil
}
