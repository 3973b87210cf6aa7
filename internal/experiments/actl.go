package experiments

import (
	"fmt"
	"math/rand"

	"humo/internal/actl"
	"humo/internal/core"
	"humo/internal/metrics"
)

func init() {
	registry["table5"] = Table5
	registry["table6"] = Table6
	registry["fig11"] = Fig11
}

// actlTargets is the target-precision grid of Tables V–VI and Fig. 11.
var actlTargets = []float64{0.75, 0.80, 0.85, 0.90, 0.95}

// actlComparison runs HUMO (the hybrid approach, with alpha = beta = target)
// against the active-learning baseline at each target precision, averaging
// both over Env.Runs repetitions.
type actlComparison struct {
	target      float64
	humoQ, actQ metrics.Quality
	humoPsi     float64 // percentage of manual work
	actPsi      float64
}

func (e *Env) compareWithACTL(b *workloadBundle) ([]actlComparison, error) {
	out := make([]actlComparison, 0, len(actlTargets))
	for _, target := range actlTargets {
		req := core.Requirement{Alpha: target, Beta: target, Theta: 0.9}
		var cmp actlComparison
		cmp.target = target
		for r := 0; r < e.Runs; r++ {
			seed := e.Seed + int64(r)*104729
			res, err := runMethod(b, methodHybr, req, seed)
			if err != nil {
				return nil, err
			}
			cmp.humoQ.Precision += res.quality.Precision
			cmp.humoQ.Recall += res.quality.Recall
			cmp.humoQ.F1 += res.quality.F1
			cmp.humoPsi += res.costPct(b.w)

			o := b.oracle()
			ar, err := actl.Search(b.w, target, o, actl.Config{
				SampleSize: 50,
				Rand:       rand.New(rand.NewSource(seed)),
			})
			if err != nil {
				return nil, err
			}
			q, err := metrics.Evaluate(ar.Labels(b.w), b.truth)
			if err != nil {
				return nil, err
			}
			cmp.actQ.Precision += q.Precision
			cmp.actQ.Recall += q.Recall
			cmp.actQ.F1 += q.F1
			cmp.actPsi += 100 * float64(o.Cost()) / float64(b.w.Len())
		}
		n := float64(e.Runs)
		cmp.humoQ.Precision /= n
		cmp.humoQ.Recall /= n
		cmp.humoQ.F1 /= n
		cmp.humoPsi /= n
		cmp.actQ.Precision /= n
		cmp.actQ.Recall /= n
		cmp.actQ.F1 /= n
		cmp.actPsi /= n
		out = append(out, cmp)
	}
	return out, nil
}

// actlTable renders the Tables V/VI layout: achieved recall of both methods,
// manual-work percentages, and the extra human cost HUMO pays per 1%
// absolute recall improvement.
func (e *Env) actlTable(id string, b *workloadBundle) ([]*Table, error) {
	cmps, err := e.compareWithACTL(b)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("HUMO vs ACTL on %s (%d runs)", b.name, e.Runs),
		Header: []string{"target precision", "HUMO recall", "ACTL recall", "HUMO psi %", "ACTL psi %", "dpsi/(100*dRecall)"},
	}
	for _, c := range cmps {
		ratio := "n/a"
		if dr := c.humoQ.Recall - c.actQ.Recall; dr > 1e-9 {
			ratio = frac4((c.humoPsi - c.actPsi) / (100 * dr))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", c.target),
			frac4(c.humoQ.Recall), frac4(c.actQ.Recall),
			pct(c.humoPsi), pct(c.actPsi),
			ratio,
		})
	}
	return []*Table{t}, nil
}

// Table5 reproduces the HUMO-vs-ACTL comparison on DS (paper Table V).
func Table5(e *Env) ([]*Table, error) {
	b, err := e.dsBundle()
	if err != nil {
		return nil, err
	}
	return e.actlTable("table5", b)
}

// Table6 reproduces the HUMO-vs-ACTL comparison on AB (paper Table VI).
func Table6(e *Env) ([]*Table, error) {
	b, err := e.abBundle()
	if err != nil {
		return nil, err
	}
	return e.actlTable("table6", b)
}

// Fig11 reports the additional manual work HUMO incurs per 1% absolute F1
// improvement over ACTL, on both datasets (paper Fig. 11).
func Fig11(e *Env) ([]*Table, error) {
	bundles, err := e.bothBundles()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig11",
		Title:  fmt.Sprintf("manual work for 1%% absolute F1 improvement over ACTL (%d runs)", e.Runs),
		Header: []string{"target precision", "DS dpsi/(100*dF1)", "AB dpsi/(100*dF1)"},
	}
	cols := make([][]string, len(actlTargets))
	for i := range cols {
		cols[i] = []string{fmt.Sprintf("%.2f", actlTargets[i])}
	}
	for _, b := range bundles {
		cmps, err := e.compareWithACTL(b)
		if err != nil {
			return nil, err
		}
		for i, c := range cmps {
			cell := "n/a"
			if df := c.humoQ.F1 - c.actQ.F1; df > 1e-9 {
				cell = frac4((c.humoPsi - c.actPsi) / (100 * df))
			}
			cols[i] = append(cols[i], cell)
		}
	}
	t.Rows = cols
	return []*Table{t}, nil
}
