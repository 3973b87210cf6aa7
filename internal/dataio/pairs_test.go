package dataio

import (
	"bytes"
	"encoding/csv"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"humo/internal/core"
)

// csvWriterPairs is the encoding/csv rendering of a workload CSV that
// WritePairs used before it formatted rows itself: the reference its bytes
// must keep matching.
func csvWriterPairs(t *testing.T, pairs []core.Pair) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	if err := cw.Write([]string{"pair_id", "similarity"}); err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if err := cw.Write([]string{strconv.Itoa(p.ID), strconv.FormatFloat(p.Sim, 'g', -1, 64)}); err != nil {
			t.Fatal(err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWritePairsMatchesCSVWriter: the hand-rolled row formatter writes the
// bytes csv.Writer wrote, across id and float shapes (negative, exponent
// forms, subnormals, signed zero, extremes) and across the chunk boundary,
// and formatting rows once and writing them with WritePairRows equals
// WritePairsFingerprinted.
func TestWritePairsMatchesCSVWriter(t *testing.T) {
	pairs := []core.Pair{
		{ID: 0, Sim: 0}, {ID: 1, Sim: math.Copysign(0, -1)}, {ID: -7, Sim: -0.5},
		{ID: math.MaxInt64, Sim: 1e-300}, {ID: math.MinInt64, Sim: 5e-324},
		{ID: 3, Sim: math.MaxFloat64}, {ID: 4, Sim: 1e21}, {ID: 5, Sim: 123456789.125},
		{ID: 6, Sim: 0.1 + 0.2}, {ID: 7, Sim: math.Inf(1)}, {ID: 8, Sim: math.NaN()},
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 9000; i++ {
		pairs = append(pairs, core.Pair{ID: rng.Int(), Sim: rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))})
	}
	for _, n := range []int{0, 1, 11, 4096, 4097, len(pairs)} {
		want := csvWriterPairs(t, pairs[:n])
		var got bytes.Buffer
		if err := WritePairs(&got, pairs[:n]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%d pairs: WritePairs wrote %d bytes differing from csv.Writer's %d", n, got.Len(), len(want))
		}

		var full, cached bytes.Buffer
		if err := WritePairsFingerprinted(&full, pairs[:n], "00ff00ff00ff00ff"); err != nil {
			t.Fatal(err)
		}
		rows := AppendPairRows(nil, pairs[:n/2])
		rows = AppendPairRows(rows, pairs[n/2:n])
		if err := WritePairRows(&cached, rows, "00ff00ff00ff00ff"); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cached.Bytes(), full.Bytes()) {
			t.Fatalf("%d pairs: WritePairRows differs from WritePairsFingerprinted", n)
		}
	}
}
