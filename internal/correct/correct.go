// Package correct implements risk-corrected machine labeling, the third
// refinement of the HUMO line (Chen et al., arXiv:1805.12502): instead of
// partitioning a workload into machine and human zones up front, take the
// labels of an arbitrary machine classifier and spend a limited human budget
// where a risk analysis says the machine is most likely wrong, until the
// corrected label set provably meets the precision/recall requirement.
//
// The corrector groups the classifier's pairs by predicted label and sorts
// each group by the classifier's confidence score, chopping it into
// fixed-size strata; pairs of one stratum share a predicted label and a
// confidence band, so the stratum's human-observed error proportion is a
// pure false-positive (match strata) or false-negative (unmatch strata)
// rate. Each stratum carries a Beta posterior over that error proportion —
// internal/risk's scheduler, observed with "was the machine wrong" instead
// of "is it a match" — and human batches are handed out riskiest-first,
// re-estimating after every batch. Pairs the classifier did not cover go to
// the human unconditionally, ahead of everything else: an uncovered pair has
// no machine label to fall back on, and until answered it counts against the
// recall bound in full.
//
// The certificate bounds, per group, the wrong labels hiding among the
// unverified pairs with a stratified Student-t interval over the observed
// error rates (finite-population corrected; a never-sampled stratum concedes
// all its pairs), and converts the two bounds into worst-case precision and
// recall of the corrected label set. Full verification drives both bounds to
// exact, so the requirement is always reachable when no budget caps the run.
//
// Determinism contract: for a fixed universe, label set and configuration
// (Rand seeded identically), the schedule — every batch's pair ids in
// order — the certificate trajectory and the corrected labels are
// bit-identical across runs and across Schedule.Workers values (risk scoring
// fans out over internal/parallel and reduces in stratum order; worker
// counts trade wall-clock time only). Classify fan-out via Assign carries
// the same contract.
package correct

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"humo/internal/risk"
	"humo/internal/stats"
)

// DefaultStratumSize is the confidence-stratum width used when
// Config.StratumSize is 0: wide enough that a stratum's error posterior can
// be estimated from a handful of answers, narrow enough that pairs of one
// stratum genuinely share an error regime.
const DefaultStratumSize = 50

// DefaultSeedPerStratum is the mandatory per-stratum seed sample used when
// Config.SeedPerStratum is 0. Seeding every stratum lets the Student-t
// certificate credit low-error strata without verifying them wholesale; a
// never-sampled stratum concedes all its pairs to the error bound.
const DefaultSeedPerStratum = 5

// Labeled is one machine-labeled pair: the classifier's match/unmatch label
// plus a real-valued confidence score, monotone in match propensity (any
// scale — only the ordering matters; SVM decision values, Fellegi-Sunter
// weights and posterior probabilities all qualify).
type Labeled struct {
	ID    int
	Match bool
	Score float64
}

// Config tunes the corrector.
type Config struct {
	// StratumSize is the number of pairs per confidence stratum; 0 selects
	// DefaultStratumSize.
	StratumSize int
	// SeedPerStratum is the number of pairs of every stratum verified before
	// risk scheduling starts (capped at the stratum size); 0 selects
	// DefaultSeedPerStratum. Negative disables seeding.
	SeedPerStratum int
	// Schedule tunes the underlying risk scheduler (batch size, prior
	// strength, the CVaR-style tail knob, scoring workers). The posterior it
	// maintains per stratum is over the classifier-error proportion, so
	// TailProb shifts strata with plausibly-high error tails up the schedule.
	Schedule risk.Config
	// Rand drives the per-stratum verification-order shuffles (the answered
	// prefix of a stratum must be a simple random sample for the stratified
	// certificate to hold). nil selects a fixed-seed source.
	Rand *rand.Rand
}

// Certificate is a point-in-time quality certificate of the corrected label
// set: worst-case precision and recall at the confidence the corrector was
// asked to certify at (each quantity at the square root of the requested
// theta, HUMO's per-quantity convention).
type Certificate struct {
	// PrecisionLo and RecallLo lower-bound the corrected label set's
	// precision and recall.
	PrecisionLo, RecallLo float64
	// DeclaredMatches is the number of pairs the corrected set labels match.
	DeclaredMatches int
	// Verified is the number of human answers consumed so far; Remaining the
	// number of pairs still unverified (uncovered ones included).
	Verified, Remaining int
}

// pending records one handed-out pair awaiting its human answer: the stratum
// it came from, or -1 for an uncovered pair.
type pending struct {
	stratum int
}

// stratumInfo is the static shape of one confidence stratum.
type stratumInfo struct {
	match bool // the group's predicted label
	size  int
}

// Corrector schedules human verification over a machine-labeled universe and
// certifies the corrected label set. It is not safe for concurrent use: the
// schedule is a strict alternation of NextBatch and the Observe calls
// answering it, owned by one search loop.
type Corrector struct {
	cfg       Config
	batchSize int

	machine   map[int]Labeled // covered ids -> classifier label
	uncovered []int           // ids with no classifier label, ascending
	uncTaken  int             // uncovered pairs handed out
	uncSeen   int             // uncovered pairs answered

	strata []stratumInfo
	sched  *risk.Scheduler // nil when there are no covered pairs

	pend     map[int]pending // handed-out pairs awaiting answers
	answers  map[int]bool    // human answers by id
	verified []int           // ids in answer order
	matches  int             // human answers that are matches

	crit stats.CritValues // Student-t critical values of groupBound
}

// New builds a corrector over the pair-id universe. labeled holds the
// classifier's output for the covered subset of the universe (Assign
// produces it from a Classifier); universe ids without a label are
// scheduled for unconditional human verification.
func New(universe []int, labeled []Labeled, cfg Config) (*Corrector, error) {
	if len(universe) == 0 {
		return nil, fmt.Errorf("correct: empty universe")
	}
	if cfg.StratumSize == 0 {
		cfg.StratumSize = DefaultStratumSize
	}
	if cfg.StratumSize < 0 {
		return nil, fmt.Errorf("correct: StratumSize %d must be >= 0", cfg.StratumSize)
	}
	if cfg.SeedPerStratum == 0 {
		cfg.SeedPerStratum = DefaultSeedPerStratum
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.New(rand.NewSource(1))
	}
	inUniverse := make(map[int]struct{}, len(universe))
	for _, id := range universe {
		if _, dup := inUniverse[id]; dup {
			return nil, fmt.Errorf("correct: duplicate universe id %d", id)
		}
		inUniverse[id] = struct{}{}
	}
	c := &Corrector{
		cfg:       cfg,
		batchSize: cfg.Schedule.BatchSize,
		machine:   make(map[int]Labeled, len(labeled)),
		pend:      make(map[int]pending),
		answers:   make(map[int]bool),
	}
	if c.batchSize <= 0 {
		c.batchSize = risk.DefaultBatchSize
	}
	for _, l := range labeled {
		if _, ok := inUniverse[l.ID]; !ok {
			return nil, fmt.Errorf("correct: labeled id %d not in universe", l.ID)
		}
		if _, dup := c.machine[l.ID]; dup {
			return nil, fmt.Errorf("correct: duplicate label for id %d", l.ID)
		}
		if math.IsNaN(l.Score) || math.IsInf(l.Score, 0) {
			return nil, fmt.Errorf("correct: non-finite score %v for id %d", l.Score, l.ID)
		}
		c.machine[l.ID] = l
	}
	for _, id := range universe {
		if _, ok := c.machine[id]; !ok {
			c.uncovered = append(c.uncovered, id)
		}
	}
	sort.Ints(c.uncovered)

	subsets, strata := c.buildStrata(labeled)
	c.strata = strata
	if len(subsets) > 0 {
		sched, err := risk.NewScheduler(subsets, cfg.Schedule)
		if err != nil {
			return nil, err
		}
		c.sched = sched
	}
	return c, nil
}

// buildStrata groups the covered pairs by predicted label, orders each group
// by (score, id) and chops it into StratumSize-wide strata whose error-rate
// priors derive from the min-max-normalized scores: a match stratum's prior
// error is the mean of (1 - normalized score) over its pairs, an unmatch
// stratum's the mean normalized score. Each stratum's verification order is
// a seeded shuffle, so its answered prefix is a simple random sample.
func (c *Corrector) buildStrata(labeled []Labeled) ([]risk.Subset, []stratumInfo) {
	groups := [2][]Labeled{}
	minS, maxS := math.Inf(1), math.Inf(-1)
	for _, l := range labeled {
		g := 0
		if !l.Match {
			g = 1
		}
		groups[g] = append(groups[g], l)
		minS, maxS = math.Min(minS, l.Score), math.Max(maxS, l.Score)
	}
	norm := func(s float64) float64 {
		if maxS <= minS {
			return 0.5
		}
		return (s - minS) / (maxS - minS)
	}
	var subsets []risk.Subset
	var strata []stratumInfo
	for g, pairs := range groups {
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i].Score != pairs[j].Score {
				return pairs[i].Score < pairs[j].Score
			}
			return pairs[i].ID < pairs[j].ID
		})
		isMatch := g == 0
		for start := 0; start < len(pairs); start += c.cfg.StratumSize {
			end := start + c.cfg.StratumSize
			if end > len(pairs) {
				end = len(pairs)
			}
			chunk := pairs[start:end]
			prior := 0.0
			ids := make([]int, len(chunk))
			for i, l := range chunk {
				ids[i] = l.ID
				if isMatch {
					prior += 1 - norm(l.Score)
				} else {
					prior += norm(l.Score)
				}
			}
			prior /= float64(len(chunk))
			// An error prior beyond 0.5 would say the classifier is worse
			// than a coin flip on the stratum; cap there and keep it off zero
			// so the posterior stays movable by evidence.
			prior = math.Min(math.Max(prior, 1e-3), 0.5)
			shuffled := make([]int, len(ids))
			for i, off := range c.cfg.Rand.Perm(len(ids)) {
				shuffled[i] = ids[off]
			}
			subsets = append(subsets, risk.Subset{IDs: shuffled, Prior: prior})
			strata = append(strata, stratumInfo{match: isMatch, size: len(chunk)})
		}
	}
	return subsets, strata
}

// seedGoal returns the mandatory seed-sample size of stratum k.
func (c *Corrector) seedGoal(k int) int {
	if c.cfg.SeedPerStratum < 0 {
		return 0
	}
	goal := c.cfg.SeedPerStratum
	if goal > c.strata[k].size {
		goal = c.strata[k].size
	}
	return goal
}

// NextBatch hands out the next verification batch: up to
// min(Schedule.BatchSize, limit) pair ids (limit <= 0 means no extra cap).
// Uncovered pairs come first (ascending id), then every stratum's seed
// sample (stratum order), then the risk schedule. The caller must Observe an
// answer for every returned id before calling NextBatch again. An empty
// batch means every pair is verified.
func (c *Corrector) NextBatch(limit int) []int {
	if len(c.pend) != 0 {
		panic("correct: NextBatch before all scheduled pairs were observed")
	}
	size := c.batchSize
	if limit > 0 && limit < size {
		size = limit
	}
	var out []int
	take := func(reqs []risk.Request) {
		for _, r := range reqs {
			out = append(out, r.ID)
			c.pend[r.ID] = pending{stratum: r.Subset}
		}
	}
	for c.uncTaken < len(c.uncovered) && len(out) < size {
		id := c.uncovered[c.uncTaken]
		out = append(out, id)
		c.pend[id] = pending{stratum: -1}
		c.uncTaken++
	}
	if c.sched == nil {
		return out
	}
	for k := 0; k < len(c.strata) && len(out) < size; k++ {
		// Between batches seen == taken, so the stratum's Sampled count is
		// exactly how far its seed sample has progressed.
		if need := c.seedGoal(k) - c.sched.Stratum(k).Sampled; need > 0 {
			room := size - len(out)
			if need > room {
				need = room
			}
			take(c.sched.NextBatch(k, k, need))
		}
	}
	if len(out) < size {
		take(c.sched.NextBatch(0, len(c.strata)-1, size-len(out)))
	}
	return out
}

// Observe feeds one human answer back. The id must come from the current
// NextBatch; the stratum posterior is updated with whether the machine label
// was wrong.
func (c *Corrector) Observe(id int, match bool) {
	p, ok := c.pend[id]
	if !ok {
		panic(fmt.Sprintf("correct: Observe(%d) for a pair that was not scheduled", id))
	}
	delete(c.pend, id)
	c.answers[id] = match
	c.verified = append(c.verified, id)
	if match {
		c.matches++
	}
	if p.stratum < 0 {
		c.uncSeen++
		return
	}
	wrong := match != c.strata[p.stratum].match
	c.sched.Observe(p.stratum, wrong)
}

// groupBound bounds the wrong machine labels hiding among the unverified
// pairs of one predicted-label group at per-quantity confidence thetaQ. The
// stratified mean/variance aggregation is internal/core's risk estimator's:
// per sampled stratum Stratum.Total gives the total-wrong estimate n*p with
// finite-population-corrected variance (maximal Bernoulli variance for a
// single answer), degrees of freedom pool across strata, and the Student-t
// upper endpoint is clamped to [observed wrong, observed wrong + unverified]
// before the observed count — which is exact, humans answered those — is
// subtracted back out. Never-sampled strata concede every pair.
func (c *Corrector) groupBound(match bool, thetaQ float64) (wrongHi float64, unverified int, err error) {
	var mean, varSum, df float64
	observed, sampledU, zeroU := 0, 0, 0
	for k, info := range c.strata {
		if info.match != match {
			continue
		}
		st := c.sched.Stratum(k)
		if st.Sampled == 0 {
			zeroU += st.Size
			continue
		}
		m, v, d := st.Total()
		mean += m
		varSum += v
		df += d
		observed += st.Matches // scheduler "matches" count wrong answers here
		sampledU += st.Size - st.Sampled
	}
	unverified = sampledU + zeroU
	residual := 0.0
	if sampledU > 0 || observed > 0 {
		if df < 1 {
			df = 1
		}
		crit, err := c.crit.T(thetaQ, df)
		if err != nil {
			return 0, 0, err
		}
		hi := mean + crit*math.Sqrt(varSum)
		if max := float64(observed + sampledU); hi > max {
			hi = max
		}
		residual = hi - float64(observed)
		if residual < 0 {
			residual = 0
		}
	}
	return residual + float64(zeroU), unverified, nil
}

// Certify computes the current quality certificate at confidence theta: the
// corrected label set's precision and recall are each lower-bounded at
// confidence sqrt(theta), HUMO's per-quantity convention, so the pair of
// bounds holds jointly at theta.
func (c *Corrector) Certify(theta float64) (Certificate, error) {
	if !(theta > 0 && theta < 1) {
		return Certificate{}, fmt.Errorf("correct: theta %v must be in (0,1)", theta)
	}
	thetaQ := math.Sqrt(theta)
	var wrongMatchHi, wrongUnmatchHi float64
	var uMatch, uUnmatch int
	if c.sched != nil {
		var err error
		if wrongMatchHi, uMatch, err = c.groupBound(true, thetaQ); err != nil {
			return Certificate{}, err
		}
		if wrongUnmatchHi, uUnmatch, err = c.groupBound(false, thetaQ); err != nil {
			return Certificate{}, err
		}
	}
	// Verified pairs carry the human answer. Unverified pairs keep their
	// machine label; only match-group ones are declared matches, and only
	// they can hurt precision.
	declared := c.matches + uMatch
	precisionLo := 1.0
	if declared > 0 {
		precisionLo = (float64(declared) - wrongMatchHi) / float64(declared)
		if precisionLo < 0 {
			precisionLo = 0
		}
	}
	tpLo := float64(declared) - wrongMatchHi
	if tpLo < 0 {
		tpLo = 0
	}
	// Missed matches hide among unverified unmatch-group pairs and among
	// unanswered uncovered pairs — the latter count in full: they default to
	// unmatch and nothing bounds their error.
	fnHi := wrongUnmatchHi + float64(len(c.uncovered)-c.uncSeen)
	recallLo := 1.0
	if tpLo+fnHi > 0 {
		recallLo = tpLo / (tpLo + fnHi)
	}
	return Certificate{
		PrecisionLo:     precisionLo,
		RecallLo:        recallLo,
		DeclaredMatches: declared,
		Verified:        len(c.verified),
		Remaining:       uMatch + uUnmatch + (len(c.uncovered) - c.uncSeen),
	}, nil
}

// Label returns the corrected label of a pair: the human answer when
// verified, the machine label when covered, unmatch otherwise.
func (c *Corrector) Label(id int) bool {
	if m, ok := c.answers[id]; ok {
		return m
	}
	if l, ok := c.machine[id]; ok {
		return l.Match
	}
	return false
}

// Answered returns the number of human answers consumed so far.
func (c *Corrector) Answered() int { return len(c.verified) }

// VerifiedIDs returns the verified pair ids in answer order (a copy).
func (c *Corrector) VerifiedIDs() []int {
	return append([]int(nil), c.verified...)
}
