package humo

import (
	"context"

	"humo/internal/crowd"
)

// Labeler is the error-aware human contract: a batch of pair ids goes out,
// a map of match/unmatch answers comes back, and failure is representable —
// a crowd platform timing out, a reviewer closing the terminal, a context
// being canceled. Real human backends answer fallibly; the Oracle interface
// cannot report failure, so Labeler is the contract new integrations should
// implement.
//
// LabelBatch must answer every requested id (extra ids are ignored) or
// return an error. Implementations should honor ctx cancellation.
//
// HTTPLabeler is the package's ready-made remote implementation: it labels
// through the workforce of a humod server (cmd/humod) over its HTTP API.
type Labeler interface {
	LabelBatch(ctx context.Context, ids []int) (map[int]bool, error)
}

// LabelerFunc adapts a function to the Labeler interface.
type LabelerFunc func(ctx context.Context, ids []int) (map[int]bool, error)

// LabelBatch calls f.
func (f LabelerFunc) LabelBatch(ctx context.Context, ids []int) (map[int]bool, error) {
	return f(ctx, ids)
}

// OracleLabeler adapts an Oracle to the Labeler contract: each batch is one
// LabelAll call, and a canceled ctx surfaces as its error.
func OracleLabeler(o Oracle) Labeler { return oracleLabeler{o} }

type oracleLabeler struct{ o Oracle }

func (a oracleLabeler) LabelBatch(ctx context.Context, ids []int) (map[int]bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make(map[int]bool, len(ids))
	for i, v := range a.o.LabelAll(ids) {
		out[ids[i]] = v
	}
	return out, nil
}

// Crowd-scale labeling. CrowdLabeler is the package's crowd-workforce
// Labeler: batches are packed into cluster-based HITs of bounded record
// count, answered by a simulated pool of noisy workers under per-worker
// quality posteriors with escalation, and propagated through transitive
// closure so inferred pairs never cost a vote. See package
// humo/internal/crowd for the full model and its determinism contract.

type (
	// CrowdRef ties a workload pair id to its two record keys (A-side
	// records at 2*recordID, B-side at 2*recordID+1);
	// ERDataset.CrowdRefs builds these for generated datasets.
	CrowdRef = crowd.PairRef
	// CrowdLabelerConfig tunes the crowd pipeline (HIT capacity, votes,
	// escalation, simulated pool, seed, flat baseline mode).
	CrowdLabelerConfig = crowd.Config
	// CrowdLabeler resolves label batches through the crowd pipeline; it
	// implements Labeler and can drive a Session.
	CrowdLabeler = crowd.Labeler
	// CrowdStats counts the human work a CrowdLabeler consumed and saved:
	// HITs, votes, inferred pairs, conflicts, escalations.
	CrowdStats = crowd.Stats
	// CrowdHIT is one packed task page: pair ids plus the distinct records
	// a worker must read to answer them.
	CrowdHIT = crowd.HIT
)

// NewCrowdLabeler builds the crowd pipeline over the workload's pair
// references and the simulated pool's ground truth. The zero
// CrowdLabelerConfig selects the documented defaults; Config.Flat selects
// the flat baseline (no clustering, no closure, fixed-R majority) for cost
// comparisons against the same pool and seed.
func NewCrowdLabeler(refs []CrowdRef, truth map[int]bool, cfg CrowdLabelerConfig) (*CrowdLabeler, error) {
	return crowd.NewLabeler(refs, truth, cfg)
}
