package humo

import (
	"humo/internal/core"
	"humo/internal/correct"
	"humo/internal/datagen"
	"humo/internal/fellegi"
	"humo/internal/metrics"
	"humo/internal/oracle"
	"humo/internal/parallel"
	"humo/internal/risk"
	"humo/internal/svm"
)

// Core workload model. See package core for full documentation of the
// underlying types; these aliases form the stable public surface.
type (
	// Pair is one instance pair: an opaque id and its machine metric value.
	Pair = core.Pair
	// Workload is an ER workload partitioned into unit subsets.
	Workload = core.Workload
	// Requirement is the quality requirement (precision Alpha, recall Beta,
	// confidence Theta) of the paper's Definition 1.
	Requirement = core.Requirement
	// Solution is a HUMO division of the workload: subsets [Lo, Hi] go to
	// the human, everything below is machine-unmatch, everything above
	// machine-match.
	Solution = core.Solution
	// Oracle answers match/unmatch for a batch of pair ids — the human in
	// the loop.
	Oracle = core.Oracle

	// BaseConfig configures the monotonicity-based baseline search.
	BaseConfig = core.BaseConfig
	// SamplingConfig configures the sampling-based searches.
	SamplingConfig = core.SamplingConfig
	// HybridConfig configures the hybrid search.
	HybridConfig = core.HybridConfig
	// RiskConfig configures the risk-aware search (r-HUMO): the sampling
	// configuration of its initial fit, the schedule knobs, the anytime
	// label budget and an optional progress hook.
	RiskConfig = core.RiskConfig
	// RiskScheduleConfig tunes the risk scheduler itself: review-batch
	// size, posterior prior strength, the CVaR-style tail knob and the
	// scoring worker bound.
	RiskScheduleConfig = risk.Config
	// RiskProgress is a point-in-time snapshot of a running risk schedule:
	// the currently certified DH bounds, the unanswered pairs inside them,
	// and the early-stop state.
	RiskProgress = core.RiskProgress

	// CorrectConfig configures the risk-corrected verification search
	// (MethodCorrect): the machine classifier's labels over the workload,
	// the confidence-stratification knobs, the schedule configuration, the
	// anytime label budget and an optional progress hook.
	CorrectConfig = core.CorrectConfig
	// CorrectProgress is a point-in-time snapshot of a running correction:
	// the current precision/recall certificate, verified and remaining pair
	// counts, and the budget state.
	CorrectProgress = core.CorrectProgress
	// CorrectLabel is one machine-classifier verdict: a pair id, its match
	// label and a confidence score (any monotone match-propensity signal —
	// the corrector normalizes the scale away).
	CorrectLabel = correct.Labeled
	// Classifier is the pluggable machine-matcher contract of the corrected
	// search: anything producing a per-pair match label plus a confidence
	// score. The package ships SVMClassifier, FellegiClassifier and
	// LabelMapClassifier adapters.
	Classifier = correct.Classifier
	// SVMClassifier adapts a TrainSVM model as a Classifier: label by
	// decision sign, score by decision value.
	SVMClassifier = correct.SVM
	// FellegiClassifier adapts a FitFellegi model as a Classifier: label by
	// posterior >= 0.5, score by posterior probability.
	FellegiClassifier = correct.Fellegi
	// LabelMapClassifier adapts an externally supplied label set — e.g. a
	// scored label file — as a Classifier.
	LabelMapClassifier = correct.LabelMap

	// SVMModel is a trained linear SVM (weights and bias).
	SVMModel = svm.Model
	// SVMConfig tunes TrainSVM (epochs, learning rate, regularization,
	// class weighting, seed).
	SVMConfig = svm.Config
	// FellegiModel is a fitted Fellegi-Sunter match/unmatch model.
	FellegiModel = fellegi.Model
	// FellegiConfig tunes FitFellegi (similarity levels, EM iteration and
	// tolerance bounds, initial match prior).
	FellegiConfig = fellegi.Config
)

// DefaultSubsetSize is the unit-subset size used when NewWorkload receives 0
// (200 pairs, as in the paper's evaluation).
const DefaultSubsetSize = core.DefaultSubsetSize

// Parallelism. Every concurrency knob in the package follows one convention:
// values <= 0 select the runtime's GOMAXPROCS. cmd/humoexp's -parallel flag
// bounds both concurrent experiments and the repetition fan-out. Every parallel path is
// bit-deterministic: a worker count changes wall-clock time, never results.

// Workers normalizes a worker-count knob: n <= 0 selects GOMAXPROCS,
// anything else is returned unchanged.
func Workers(n int) int { return parallel.Workers(n) }

// Workload and search constructors.

// NewWorkload builds a workload from instance pairs; subsetSize <= 0 selects
// DefaultSubsetSize.
func NewWorkload(pairs []Pair, subsetSize int) (*Workload, error) {
	return core.NewWorkload(pairs, subsetSize)
}

// Base runs the baseline optimization (§V of the paper): valid whenever the
// workload statistically satisfies monotonicity of precision.
func Base(w *Workload, req Requirement, o Oracle, cfg BaseConfig) (Solution, error) {
	return core.BaseSearch(w, req, o, cfg)
}

// AllSampling runs the all-sampling optimization (§VI-A): every unit subset
// is sampled and stratified error margins bound the machine zones.
func AllSampling(w *Workload, req Requirement, o Oracle, cfg SamplingConfig) (Solution, error) {
	return core.AllSamplingSearch(w, req, o, cfg)
}

// PartialSampling runs the partial-sampling optimization (§VI-B,
// Algorithm 1): a Gaussian process interpolates the match-proportion
// function from a small set of sampled subsets.
func PartialSampling(w *Workload, req Requirement, o Oracle, cfg SamplingConfig) (Solution, error) {
	return core.PartialSamplingSearch(w, req, o, cfg)
}

// Hybrid runs the hybrid optimization (§VII): the partial-sampling solution
// re-tightened with the better of the baseline and sampling estimates. It
// never costs more than PartialSampling and is the paper's best performer.
func Hybrid(w *Workload, req Requirement, o Oracle, cfg HybridConfig) (Solution, error) {
	return core.HybridSearch(w, req, o, cfg)
}

// Budgeted runs the inverse, pay-as-you-go optimization: instead of
// enforcing a quality requirement it maximizes the expected F1 under a hard
// human budget (manual inspections, sampling included). No quality
// guarantee is attached to the result.
func Budgeted(w *Workload, budgetPairs int, o Oracle, cfg SamplingConfig) (Solution, error) {
	return core.BudgetedSearch(w, budgetPairs, o, cfg)
}

// RiskAware runs the risk-aware optimization (the r-HUMO refinement,
// Hou et al. 2018): the partial-sampling fit of Hybrid, then a prioritized
// schedule that labels the human zone rarest-risk-first in small batches,
// re-estimating per-subset posteriors from the incoming answers and
// stopping the moment the requirement is provably met. It meets the same
// requirement as the other searches while typically consuming fewer human
// labels; cfg.BudgetPairs turns it into an anytime search (the schedule
// stops at the budget, the returned division still carries the guarantee
// once its DH is labeled).
func RiskAware(w *Workload, req Requirement, o Oracle, cfg RiskConfig) (Solution, error) {
	return core.RiskSearch(w, req, o, cfg)
}

// Correct runs the risk-corrected verification (the third HUMO refinement,
// Chen et al. 2018, arXiv:1805.12502): instead of dividing the workload into
// machine and human zones, a machine classifier labels every pair and human
// effort goes where the classifier is most likely wrong — pairs are grouped
// into confidence strata, per-stratum Beta posteriors track the observed
// classifier error, and verification proceeds riskiest-first in small
// batches, re-estimating after each, until the corrected label set provably
// meets the precision/recall requirement (or cfg.BudgetPairs runs out). The
// returned labels — human answers where verified, classifier labels
// elsewhere — are the resolution; the Solution carries an empty DH and
// exists for cost accounting (do not Resolve it). The schedule is
// bit-identical across runs and worker counts.
func Correct(w *Workload, req Requirement, o Oracle, cfg CorrectConfig) (Solution, []bool, error) {
	return core.CorrectSearch(w, req, o, cfg)
}

// ClassifyAll runs a Classifier over every pair id, fanning the per-pair
// classification over workers goroutines (<= 0 selects GOMAXPROCS; results
// are bit-identical at any value). The returned labels feed
// CorrectConfig.Labels.
func ClassifyAll(ids []int, c Classifier, workers int) ([]CorrectLabel, error) {
	return correct.Assign(ids, c, workers)
}

// TrainSVM trains a linear SVM on feature vectors and match labels with
// deterministic subgradient descent (fixed cfg.Seed => bit-identical model).
func TrainSVM(features [][]float64, labels []bool, cfg SVMConfig) (*SVMModel, error) {
	return svm.Train(features, labels, cfg)
}

// SVMTrainTestSplit deterministically partitions n items into a training
// set of trainSize indices and a test set of the rest: a fixed seed yields
// the same split on every run.
func SVMTrainTestSplit(n, trainSize int, seed int64) (train, test []int, err error) {
	return svm.TrainTestSplit(n, trainSize, seed)
}

// FitFellegi fits a Fellegi-Sunter model to per-attribute similarity
// vectors by unsupervised EM (deterministic initialization => bit-identical
// model for fixed inputs).
func FitFellegi(features [][]float64, cfg FellegiConfig) (*FellegiModel, error) {
	return fellegi.Fit(features, cfg)
}

// Oracles.

// SimulatedOracle is a perfect human over fixed ground truth. Its Cost
// reports the distinct pairs it was asked about — the paper's human-cost
// metric; Session.Cost keeps the same ledger for interactive resolutions.
type SimulatedOracle = oracle.Simulated

// NewSimulatedOracle builds a perfect simulated human over the ground truth
// map (pair id -> is-match).
func NewSimulatedOracle(truth map[int]bool) *SimulatedOracle {
	return oracle.NewSimulated(truth)
}

// Quality metrics.

type (
	// Quality bundles precision, recall and F1.
	Quality = metrics.Quality
	// Confusion is a binary confusion matrix.
	Confusion = metrics.Confusion
)

// Evaluate computes precision/recall/F1 of a labeling against ground truth.
func Evaluate(predicted, truth []bool) (Quality, error) {
	return metrics.Evaluate(predicted, truth)
}

// Evaluation workload generators (the paper's §VIII datasets).

type (
	// LabeledPair couples a pair with its hidden ground-truth label.
	LabeledPair = datagen.LabeledPair
	// LogisticConfig parameterizes the synthetic workload generator (Eq. 22).
	LogisticConfig = datagen.LogisticConfig
	// DSConfig parameterizes the simulated DBLP-Scholar dataset.
	DSConfig = datagen.DSConfig
	// ABConfig parameterizes the simulated Abt-Buy dataset.
	ABConfig = datagen.ABConfig
	// ERDataset is a fully materialized two-table ER workload.
	ERDataset = datagen.ERDataset
)

// Logistic generates a synthetic workload whose match proportion follows the
// paper's Eq. 22 logistic curve with per-subset irregularity Sigma.
func Logistic(cfg LogisticConfig) ([]LabeledPair, error) { return datagen.Logistic(cfg) }

// DSLike generates the simulated DBLP-Scholar workload (easy: matches
// concentrate at high similarity).
func DSLike(cfg DSConfig) (*ERDataset, error) { return datagen.DSLike(cfg) }

// DefaultDSConfig returns the harness configuration for DSLike.
func DefaultDSConfig() DSConfig { return datagen.DefaultDSConfig() }

// ABLike generates the simulated Abt-Buy workload (hard: matches spread to
// medium and low similarities, extreme class imbalance).
func ABLike(cfg ABConfig) (*ERDataset, error) { return datagen.ABLike(cfg) }

// DefaultABConfig returns the harness configuration for ABLike.
func DefaultABConfig() ABConfig { return datagen.DefaultABConfig() }

// Split separates generated labeled pairs into the machine-visible pairs and
// the oracle ground truth.
func Split(pairs []LabeledPair) ([]Pair, map[int]bool) { return datagen.Split(pairs) }

// TruthSlice returns ground truth aligned with a Workload's sorted pair
// positions, for use with Evaluate.
func TruthSlice(pairs []LabeledPair) []bool { return datagen.TruthSlice(pairs) }
