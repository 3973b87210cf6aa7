package correct

import (
	"math/rand"
	"reflect"
	"testing"

	"humo/internal/fellegi"
	"humo/internal/risk"
	"humo/internal/svm"
)

// synthetic builds a universe of n pairs with ground truth and classifier
// labels: pair i is a true match iff i >= n/2, the classifier scores pairs by
// a noisy margin and mislabels the errRate fraction closest to its decision
// boundary — the error regime the corrector's confidence strata model.
func synthetic(n int, errEvery int, seed int64) (universe []int, truth map[int]bool, labeled []Labeled) {
	rng := rand.New(rand.NewSource(seed))
	truth = make(map[int]bool, n)
	for i := 0; i < n; i++ {
		universe = append(universe, i)
		truth[i] = i >= n/2
		score := float64(i-n/2)/float64(n) + rng.Float64()*0.02
		match := truth[i]
		if errEvery > 0 && i%errEvery == 0 {
			match = !match // classifier error
		}
		labeled = append(labeled, Labeled{ID: i, Match: match, Score: score})
	}
	return universe, truth, labeled
}

// drive runs the correction loop against the hidden truth until the
// certificate meets (alpha, beta) at theta or the corrector runs dry,
// returning the batches in schedule order and the final certificate.
func drive(t *testing.T, c *Corrector, truth map[int]bool, alpha, beta, theta float64) ([][]int, Certificate) {
	t.Helper()
	var batches [][]int
	for {
		cert, err := c.Certify(theta)
		if err != nil {
			t.Fatal(err)
		}
		if cert.PrecisionLo >= alpha && cert.RecallLo >= beta {
			return batches, cert
		}
		ids := c.NextBatch(0)
		if len(ids) == 0 {
			return batches, cert
		}
		batches = append(batches, ids)
		for _, id := range ids {
			c.Observe(id, truth[id])
		}
	}
}

// quality measures the corrected set's actual precision/recall against truth.
func quality(c *Corrector, universe []int, truth map[int]bool) (precision, recall float64) {
	tp, fp, fn := 0, 0, 0
	for _, id := range universe {
		got, want := c.Label(id), truth[id]
		switch {
		case got && want:
			tp++
		case got && !want:
			fp++
		case !got && want:
			fn++
		}
	}
	precision, recall = 1, 1
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	return precision, recall
}

func TestCorrectorCertifiesAndSavesLabels(t *testing.T) {
	universe, truth, labeled := synthetic(2000, 40, 1)
	c, err := New(universe, labeled, Config{Rand: rand.New(rand.NewSource(7))})
	if err != nil {
		t.Fatal(err)
	}
	_, cert := drive(t, c, truth, 0.9, 0.9, 0.9)
	if cert.PrecisionLo < 0.9 || cert.RecallLo < 0.9 {
		t.Fatalf("did not certify: %+v", cert)
	}
	if c.Answered() >= len(universe) {
		t.Fatalf("corrector verified the whole universe (%d answers); no labels saved", c.Answered())
	}
	p, r := quality(c, universe, truth)
	if p < 0.9 || r < 0.9 {
		t.Fatalf("certificate met but actual quality p=%.4f r=%.4f below the guarantee", p, r)
	}
	t.Logf("certified at %d of %d labels (precision_lo=%.4f recall_lo=%.4f, actual p=%.4f r=%.4f)",
		c.Answered(), len(universe), cert.PrecisionLo, cert.RecallLo, p, r)
}

func TestCorrectorFullVerificationExact(t *testing.T) {
	// A hostile classifier (every third label flipped): certifying 0.99/0.99
	// forces nearly full verification, and full verification must drive the
	// bounds to exactness and the labels to truth.
	universe, truth, labeled := synthetic(300, 3, 2)
	c, err := New(universe, labeled, Config{Rand: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	_, cert := drive(t, c, truth, 0.99, 0.99, 0.9)
	if cert.PrecisionLo < 0.99 || cert.RecallLo < 0.99 {
		t.Fatalf("did not certify even at full verification: %+v", cert)
	}
	for _, id := range universe {
		if c.answers[id] != truth[id] && len(c.answers) == len(universe) {
			t.Fatalf("pair %d corrected label diverges from its human answer", id)
		}
	}
	if p, r := quality(c, universe, truth); cert.Remaining == 0 && (p != 1 || r != 1) {
		t.Fatalf("fully verified yet p=%v r=%v", p, r)
	}
}

func TestCorrectorUncoveredMandatoryFirst(t *testing.T) {
	universe, truth, labeled := synthetic(200, 0, 3)
	// Strip the classifier labels of ids 10, 20, 30: they must lead the
	// schedule and be answered before certification can complete.
	var partial []Labeled
	uncov := map[int]bool{10: true, 20: true, 30: true}
	for _, l := range labeled {
		if !uncov[l.ID] {
			partial = append(partial, l)
		}
	}
	c, err := New(universe, partial, Config{Rand: rand.New(rand.NewSource(4))})
	if err != nil {
		t.Fatal(err)
	}
	first := c.NextBatch(0)
	if len(first) < 3 || first[0] != 10 || first[1] != 20 || first[2] != 30 {
		t.Fatalf("uncovered pairs not scheduled first: %v", first)
	}
	for _, id := range first {
		c.Observe(id, truth[id])
	}
	_, cert := drive(t, c, truth, 0.9, 0.9, 0.9)
	for id := range uncov {
		if _, answered := c.answers[id]; !answered {
			t.Fatalf("uncovered pair %d never verified (cert %+v)", id, cert)
		}
		if c.Label(id) != truth[id] {
			t.Fatalf("uncovered pair %d label %v, want truth %v", id, c.Label(id), truth[id])
		}
	}
}

func TestCorrectorScheduleDeterministic(t *testing.T) {
	run := func(workers int) ([][]int, Certificate) {
		universe, truth, labeled := synthetic(1500, 25, 5)
		c, err := New(universe, labeled, Config{
			Schedule: risk.Config{Workers: workers, TailProb: 0.1},
			Rand:     rand.New(rand.NewSource(11)),
		})
		if err != nil {
			t.Fatal(err)
		}
		batches, cert := drive(t, c, truth, 0.92, 0.92, 0.9)
		return batches, cert
	}
	refBatches, refCert := run(1)
	for _, workers := range []int{2, 3, 8, 0} {
		batches, cert := run(workers)
		if !reflect.DeepEqual(batches, refBatches) {
			t.Fatalf("schedule at workers=%d diverges from workers=1", workers)
		}
		if cert != refCert {
			t.Fatalf("certificate at workers=%d = %+v, want %+v", workers, cert, refCert)
		}
	}
}

// TestCertificateDeclaredMatchesRecount pins the running match counter
// behind Certificate.DeclaredMatches: after every batch it must equal a
// recount of the corrected labels of the verified pairs plus the unverified
// pairs of the match group, through full verification (uncovered pairs
// included).
func TestCertificateDeclaredMatchesRecount(t *testing.T) {
	universe, truth, labeled := synthetic(600, 7, 9)
	var covered []Labeled
	for _, l := range labeled {
		if l.ID%50 != 0 {
			covered = append(covered, l)
		}
	}
	c, err := New(universe, covered, Config{Rand: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; ; batch++ {
		cert, err := c.Certify(0.9)
		if err != nil {
			t.Fatal(err)
		}
		verified := make(map[int]bool)
		want := 0
		for _, id := range c.VerifiedIDs() {
			verified[id] = true
			if c.Label(id) {
				want++
			}
		}
		for _, l := range covered {
			if l.Match && !verified[l.ID] {
				want++
			}
		}
		if cert.DeclaredMatches != want {
			t.Fatalf("batch %d: DeclaredMatches %d, recount %d", batch, cert.DeclaredMatches, want)
		}
		ids := c.NextBatch(0)
		if len(ids) == 0 {
			break
		}
		for _, id := range ids {
			c.Observe(id, truth[id])
		}
	}
	if c.Answered() != len(universe) {
		t.Fatalf("answered %d of %d", c.Answered(), len(universe))
	}
}

func TestCorrectorBatchLimit(t *testing.T) {
	universe, _, labeled := synthetic(400, 10, 6)
	c, err := New(universe, labeled, Config{Rand: rand.New(rand.NewSource(8))})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.NextBatch(3); len(got) != 3 {
		t.Fatalf("NextBatch(3) returned %d ids", len(got))
	}
}

func TestCorrectorInputValidation(t *testing.T) {
	if _, err := New(nil, nil, Config{}); err == nil {
		t.Error("empty universe accepted")
	}
	if _, err := New([]int{1, 1}, nil, Config{}); err == nil {
		t.Error("duplicate universe id accepted")
	}
	if _, err := New([]int{1}, []Labeled{{ID: 2}}, Config{}); err == nil {
		t.Error("label outside the universe accepted")
	}
	if _, err := New([]int{1}, []Labeled{{ID: 1}, {ID: 1}}, Config{}); err == nil {
		t.Error("duplicate label accepted")
	}
}

func TestCorrectorNoLabelsDegeneratesToFullReview(t *testing.T) {
	universe := []int{5, 3, 9}
	truth := map[int]bool{5: true, 3: false, 9: true}
	c, err := New(universe, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for {
		ids := c.NextBatch(0)
		if len(ids) == 0 {
			break
		}
		for _, id := range ids {
			seen[id] = true
			c.Observe(id, truth[id])
		}
	}
	if len(seen) != 3 {
		t.Fatalf("full review visited %d of 3 pairs", len(seen))
	}
	cert, err := c.Certify(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if cert.PrecisionLo != 1 || cert.RecallLo != 1 || cert.Remaining != 0 {
		t.Fatalf("exhaustive review not exact: %+v", cert)
	}
}

func TestAssignAdaptersAndDeterminism(t *testing.T) {
	feats := map[int][]float64{1: {0.9, 0.8}, 2: {0.1, 0.2}, 3: {0.6, 0.4}}
	lookup := func(id int) ([]float64, error) { return feats[id], nil }
	model := &svm.Model{Weights: []float64{1, 1}, Bias: -1}
	ids := []int{1, 2, 3}
	ref, err := Assign(ids, SVM{Model: model, Features: lookup}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ref[0].Match || ref[1].Match {
		t.Fatalf("svm adapter labels wrong: %+v", ref)
	}
	for _, workers := range []int{2, 0} {
		got, err := Assign(ids, SVM{Model: model, Features: lookup}, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("Assign at workers=%d diverges", workers)
		}
	}

	var fits [][]float64
	for i := 0; i < 40; i++ {
		v := float64(i%2) * 0.9
		fits = append(fits, []float64{v, v})
	}
	fm, err := fellegi.Fit(fits, fellegi.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := Assign(ids, Fellegi{Model: fm, Features: lookup}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range fl {
		if l.Score < 0 || l.Score > 1 {
			t.Fatalf("fellegi score %v outside [0,1]", l.Score)
		}
	}

	lm := LabelMap{4: {Match: true, Score: 2}, 1: {Match: false, Score: -1}}
	if _, _, err := lm.Classify(99); err == nil {
		t.Error("LabelMap.Classify on an uncovered id did not fail")
	}
	got := lm.Labeled()
	want := []Labeled{{ID: 1, Match: false, Score: -1}, {ID: 4, Match: true, Score: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LabelMap.Labeled = %+v, want %+v", got, want)
	}
}
