package stats

import (
	"math"
	"sync"
	"testing"
)

// tableThetas are the confidences the bit-identity tests sweep: the common
// requirement levels and sqrt(0.9), the per-quantity level of a 0.9
// requirement that every sampling search runs at.
var tableThetas = []float64{0.9, math.Sqrt(0.9), 0.95, 0.99}

// tableDFs returns the df values a bit-identity sweep checks: every df in
// 1..4096, a strided sweep up to the cap (the cap included), the first df
// past the cap and a non-integral df.
func tableDFs() []float64 {
	var dfs []float64
	for df := 1; df <= 4096; df++ {
		dfs = append(dfs, float64(df))
	}
	for df := 4096 + 1021; df < TTableMaxDF; df += 1021 {
		dfs = append(dfs, float64(df))
	}
	return append(dfs, TTableMaxDF, TTableMaxDF+1, 2.5)
}

func sameBits(t *testing.T, tab *TTable, df float64) {
	t.Helper()
	got, err := tab.At(df)
	if err != nil {
		t.Fatalf("theta=%v df=%v: %v", tab.Theta(), df, err)
	}
	want, err := TwoSidedT(tab.Theta(), df)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("theta=%v df=%v: table %v (%#x) != TwoSidedT %v (%#x)",
			tab.Theta(), df, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestTTableBitIdentical pins the table's contract: every read, cold (the
// fill) and warm (the stored entry), returns exactly TwoSidedT's bits, on
// and off the table.
func TestTTableBitIdentical(t *testing.T) {
	for _, theta := range tableThetas {
		tab, err := TTableFor(theta)
		if err != nil {
			t.Fatal(err)
		}
		if z, _ := TwoSidedZ(theta); math.Float64bits(tab.Z()) != math.Float64bits(z) {
			t.Fatalf("theta=%v: Z %v != TwoSidedZ %v", theta, tab.Z(), z)
		}
		for pass := 0; pass < 2; pass++ {
			for _, df := range tableDFs() {
				sameBits(t, tab, df)
			}
		}
	}
}

// TestStudentTQuantileHoistBitIdentical checks the bisection's hoisted
// ln B(df/2, 1/2) against a reference bisection that evaluates the public
// StudentTCDF, which recomputes it on every call.
func TestStudentTQuantileHoistBitIdentical(t *testing.T) {
	ref := func(p, df float64) float64 {
		lo := math.Max(NormalQuantile(p), 0)
		hi := lo + 1
		for {
			c, _ := StudentTCDF(hi, df)
			if c >= p {
				break
			}
			hi *= 2
		}
		for i := 0; i < 200; i++ {
			mid := (lo + hi) / 2
			if c, _ := StudentTCDF(mid, df); c < p {
				lo = mid
			} else {
				hi = mid
			}
			if hi-lo < 1e-12*(1+hi) {
				break
			}
		}
		return (lo + hi) / 2
	}
	for _, theta := range tableThetas {
		p := 0.5 + theta/2
		for _, df := range []float64{1, 2, 2.5, 3, 7, 30, 99, 1000, 50769, TTableMaxDF + 1} {
			got, err := StudentTQuantile(p, df)
			if err != nil {
				t.Fatal(err)
			}
			if want := ref(p, df); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("p=%v df=%v: %v != reference %v", p, df, got, want)
			}
		}
	}
}

// TestTTableConcurrentFill races 8 goroutines filling one private table in
// different orders; under -race this also checks the publication protocol.
func TestTTableConcurrentFill(t *testing.T) {
	tab, err := newTTable(0.97)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3 * tChunkSize / 2 // spans a chunk boundary
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				df := float64((i+g*n/8)%n + 1)
				if _, err := tab.At(df); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for df := 1; df <= n; df++ {
		sameBits(t, tab, float64(df))
	}
}

// TestTTableRegistryEviction overflows the registry: the least recently
// resolved confidence is evicted, and its held handle keeps returning
// identical values, memoised.
func TestTTableRegistryEviction(t *testing.T) {
	first, err := TTableFor(0.501)
	if err != nil {
		t.Fatal(err)
	}
	for df := 1; df <= 64; df++ {
		sameBits(t, first, float64(df))
	}
	held := []*TTable{first}
	for i := 1; i <= tRegistrySize; i++ {
		tab, err := TTableFor(0.501 + float64(i)/1000)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, tab)
	}
	tRegistry.mu.Lock()
	size := len(tRegistry.tables)
	tRegistry.mu.Unlock()
	if size > tRegistrySize {
		t.Fatalf("registry holds %d tables, cap %d", size, tRegistrySize)
	}
	again, err := TTableFor(0.501)
	if err != nil {
		t.Fatal(err)
	}
	if again == first {
		t.Fatal("least recently resolved table was not evicted")
	}
	if latest, _ := TTableFor(held[len(held)-1].Theta()); latest != held[len(held)-1] {
		t.Fatal("recently resolved table is no longer shared")
	}
	for _, tab := range []*TTable{first, again} {
		for df := 1; df <= 128; df++ {
			sameBits(t, tab, float64(df))
		}
	}
	if c := first.chunks[0].Load(); c == nil || c[63].Load() == 0 {
		t.Fatal("evicted handle lost its memoised entries")
	}
}

// TestCritValues checks the caller-held handle set: bit-identical T and Z,
// one registry resolution per confidence, the memo past the cap, and the
// theta validation error.
func TestCritValues(t *testing.T) {
	var c CritValues
	for _, theta := range tableThetas {
		for _, df := range []float64{1, 17, 2.5, TTableMaxDF, TTableMaxDF + 1, 1e8} {
			got, err := c.T(theta, df)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := TwoSidedT(theta, df)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("T(%v, %v) = %v, want %v", theta, df, got, want)
			}
		}
		z, err := c.Z(theta)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := TwoSidedZ(theta); math.Float64bits(z) != math.Float64bits(want) {
			t.Fatalf("Z(%v) = %v, want %v", theta, z, want)
		}
	}
	if n := len(*c.tabs.Load()); n != len(tableThetas) {
		t.Fatalf("holds %d tables, want %d", n, len(tableThetas))
	}
	if n := len(c.beyond); n != 2*len(tableThetas) {
		t.Fatalf("memoised %d past-cap values, want %d", n, 2*len(tableThetas))
	}
	if _, err := c.T(1, 5); err == nil {
		t.Error("theta=1 should fail")
	}
	if _, err := c.T(0.9, 0); err == nil {
		t.Error("df=0 should fail")
	}
}

// benchDFs is the df sweep of BenchmarkTwoSidedTTable: the small df the
// stratified intervals of a partly answered workload ask for.
const benchDFs = 512

// BenchmarkTwoSidedTTable measures a sweep of df 1..512 at sqrt(0.9): cold
// fills a private, unregistered table per iteration (the bisection cost,
// one quantile per df), warm reads the shared, already filled table.
func BenchmarkTwoSidedTTable(b *testing.B) {
	theta := math.Sqrt(0.9)
	sweep := func(b *testing.B, tab *TTable) {
		for df := 1; df <= benchDFs; df++ {
			if _, err := tab.At(float64(df)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tab, err := newTTable(theta)
			if err != nil {
				b.Fatal(err)
			}
			sweep(b, tab)
		}
	})
	b.Run("warm", func(b *testing.B) {
		tab, err := TTableFor(theta)
		if err != nil {
			b.Fatal(err)
		}
		sweep(b, tab)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweep(b, tab)
		}
	})
}
