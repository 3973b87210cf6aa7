package oracle

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

// labelSource is the answering surface the stream tests drive.
type labelSource interface {
	Label(id int) bool
	LabelAll(ids []int) []bool
	Cost() int
}

// driveStream interleaves single-pair Label calls and LabelAll batches
// (with in-batch duplicates and re-asked pairs) over ids in [0, n), in an
// order fixed by seed, and returns every answer in call order.
func driveStream(o labelSource, n int, seed int64) []bool {
	rng := rand.New(rand.NewSource(seed))
	var answers []bool
	for op := 0; op < 1000; op++ {
		if rng.Intn(3) == 0 {
			answers = append(answers, o.Label(rng.Intn(n)))
			continue
		}
		ids := make([]int, 1+rng.Intn(12))
		for i := range ids {
			ids[i] = rng.Intn(n)
		}
		if len(ids) > 2 {
			ids[len(ids)-1] = ids[0] // an in-batch repeat
		}
		answers = append(answers, o.LabelAll(ids)...)
	}
	return answers
}

func answerDigest(answers []bool) uint64 {
	h := fnv.New64a()
	buf := make([]byte, len(answers))
	for i, v := range answers {
		if v {
			buf[i] = 1
		}
	}
	h.Write(buf)
	return h.Sum64()
}

// TestNoisyAnswerStreamPinned pins the noisy oracle's exact answers: each
// fresh pair draws one error-stream value in request order, and memoized
// pairs draw none. Any change to when or how often the stream is consumed
// changes the digest.
func TestNoisyAnswerStreamPinned(t *testing.T) {
	const n = 2000
	truth := sampleTruth(n, 41)
	o, err := NewNoisy(truth, 0.2, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	answers := driveStream(o, n, 43)
	const (
		wantAnswers = 4909
		wantDigest  = uint64(0xb4faa6af8d50627c)
		wantCost    = 1755
	)
	if len(answers) != wantAnswers {
		t.Fatalf("%d answers, want %d", len(answers), wantAnswers)
	}
	if got := answerDigest(answers); got != wantDigest {
		t.Errorf("answer digest %#x, want %#x", got, wantDigest)
	}
	if got := o.Cost(); got != wantCost {
		t.Errorf("Cost() = %d, want %d", got, wantCost)
	}
}

// TestNoisyZeroRateIsSimulated checks that a noisy oracle at error rate 0
// answers exactly like the perfect simulated human, call for call.
func TestNoisyZeroRateIsSimulated(t *testing.T) {
	const n = 2000
	truth := sampleTruth(n, 41)
	noisy, err := NewNoisy(truth, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSimulated(truth)
	got, want := driveStream(noisy, n, 43), driveStream(sim, n, 43)
	if len(got) != len(want) {
		t.Fatalf("%d answers, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("answer %d = %v, simulated says %v", i, got[i], want[i])
		}
	}
	if noisy.Cost() != sim.Cost() {
		t.Fatalf("Cost() = %d, simulated %d", noisy.Cost(), sim.Cost())
	}
}
