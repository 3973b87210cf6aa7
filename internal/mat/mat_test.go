package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDenseFrom(t *testing.T) {
	m, err := NewDenseFrom([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	r, c := m.Dims()
	if r != 3 || c != 2 {
		t.Fatalf("Dims = (%d,%d), want (3,2)", r, c)
	}
	if m.At(2, 1) != 6 {
		t.Errorf("At(2,1) = %v, want 6", m.At(2, 1))
	}
	if _, err := NewDenseFrom([][]float64{{1, 2}, {3}}); !errors.Is(err, ErrShape) {
		t.Errorf("ragged rows: err = %v, want ErrShape", err)
	}
}

func TestSetAddRowClone(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(0, 1, 3)
	m.Add(0, 1, 2)
	if m.At(0, 1) != 5 {
		t.Errorf("Set+Add = %v, want 5", m.At(0, 1))
	}
	row := m.Row(0)
	row[1] = 99 // must not alias
	if m.At(0, 1) != 5 {
		t.Error("Row must return a copy")
	}
	cl := m.Clone()
	cl.Set(0, 0, 42)
	if m.At(0, 0) != 0 {
		t.Error("Clone must not alias")
	}
}

func TestIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds At should panic")
		}
	}()
	NewDense(2, 2).At(2, 0)
}

func TestTranspose(t *testing.T) {
	m, _ := NewDenseFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	r, c := mt.Dims()
	if r != 3 || c != 2 {
		t.Fatalf("T dims = (%d,%d), want (3,2)", r, c)
	}
	if mt.At(2, 1) != 6 || mt.At(0, 1) != 4 {
		t.Errorf("T content wrong:\n%v", mt)
	}
}

func TestMul(t *testing.T) {
	a, _ := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	b, _ := NewDenseFrom([][]float64{{5, 6}, {7, 8}})
	p, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if p.At(i, j) != want[i][j] {
				t.Errorf("Mul[%d][%d] = %v, want %v", i, j, p.At(i, j), want[i][j])
			}
		}
	}
	if _, err := Mul(a, NewDense(3, 1)); !errors.Is(err, ErrShape) {
		t.Errorf("shape mismatch: err = %v", err)
	}
}

func TestMulVecDot(t *testing.T) {
	a, _ := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	v, err := MulVec(a, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 3 || v[1] != 7 {
		t.Errorf("MulVec = %v, want [3 7]", v)
	}
	d, err := Dot([]float64{1, 2, 3}, []float64{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if d != 32 {
		t.Errorf("Dot = %v, want 32", d)
	}
	if _, err := Dot([]float64{1}, []float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Error("Dot length mismatch should fail")
	}
	if _, err := MulVec(a, []float64{1}); !errors.Is(err, ErrShape) {
		t.Error("MulVec shape mismatch should fail")
	}
}

// randomSPD builds A = B Bᵀ + n*I which is SPD with probability 1.
func randomSPD(rng *rand.Rand, n int) *Dense {
	b := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	bt := b.T()
	a, _ := Mul(b, bt)
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	return a
}

func TestCholeskyReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := randomSPD(rng, n)
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		l := ch.L()
		lt := l.T()
		rec, err := Mul(l, lt)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(rec.At(i, j)-a.At(i, j)) > 1e-8*(1+math.Abs(a.At(i, j))) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCholeskySolve(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a := randomSPD(rng, n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b, err := MulVec(a, x)
		if err != nil {
			return false
		}
		ch, err := NewCholesky(a)
		if err != nil {
			return false
		}
		got, err := ch.SolveVec(b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-6*(1+math.Abs(x[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCholeskySolveMatrixAndLogDet(t *testing.T) {
	a, _ := NewDenseFrom([][]float64{{4, 2}, {2, 3}})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// det = 4*3 - 2*2 = 8.
	if got := ch.LogDet(); math.Abs(got-math.Log(8)) > 1e-12 {
		t.Errorf("LogDet = %v, want log(8)=%v", got, math.Log(8))
	}
	eye, _ := NewDenseFrom([][]float64{{1, 0}, {0, 1}})
	inv, err := ch.Solve(eye)
	if err != nil {
		t.Fatal(err)
	}
	prod, _ := Mul(a, inv)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(prod.At(i, j)-want) > 1e-12 {
				t.Errorf("A*inv(A)[%d][%d] = %v, want %v", i, j, prod.At(i, j), want)
			}
		}
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	// Indefinite matrix.
	a, _ := NewDenseFrom([][]float64{{0, 1}, {1, 0}})
	if _, err := NewCholesky(a); !errors.Is(err, ErrNotSPD) {
		t.Errorf("indefinite: err = %v, want ErrNotSPD", err)
	}
	// Non-square.
	if _, err := NewCholesky(NewDense(2, 3)); !errors.Is(err, ErrShape) {
		t.Errorf("non-square: err = %v, want ErrShape", err)
	}
}

func TestSolveTriLowerVec(t *testing.T) {
	a, _ := NewDenseFrom([][]float64{{4, 2}, {2, 3}})
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{2, 5}
	y, err := ch.SolveTriLowerVec(b)
	if err != nil {
		t.Fatal(err)
	}
	// Check L y = b.
	l := ch.L()
	back, _ := MulVec(l, y)
	for i := range b {
		if math.Abs(back[i]-b[i]) > 1e-12 {
			t.Errorf("L*y[%d] = %v, want %v", i, back[i], b[i])
		}
	}
	if _, err := ch.SolveTriLowerVec([]float64{1}); !errors.Is(err, ErrShape) {
		t.Error("length mismatch should fail")
	}
}

func TestSolveShapeErrors(t *testing.T) {
	a, _ := NewDenseFrom([][]float64{{4, 2}, {2, 3}})
	ch, _ := NewCholesky(a)
	if _, err := ch.SolveVec([]float64{1, 2, 3}); !errors.Is(err, ErrShape) {
		t.Error("SolveVec wrong length should fail")
	}
	if _, err := ch.Solve(NewDense(3, 1)); !errors.Is(err, ErrShape) {
		t.Error("Solve wrong rows should fail")
	}
}

func TestDataAliases(t *testing.T) {
	m := NewDense(2, 3)
	m.Data()[1*3+2] = 7
	if m.At(1, 2) != 7 {
		t.Errorf("Data()[5] write not seen by At(1,2): %v", m.At(1, 2))
	}
}

// rbfKernel builds K = sf2*exp(-(x_i-x_j)^2/(2 l^2)) + (nf + 1e-10) I, the
// kernel matrix internal/gp factorizes.
func rbfKernel(x []float64, l, sf2, nf float64) *Dense {
	n := len(x)
	k := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			d := x[i] - x[j]
			v := sf2 * math.Exp(-d*d/(2*l*l))
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
		k.Add(i, i, nf+1e-10)
	}
	return k
}

// checkInverseDiag asserts InverseDiag()[i] has exactly the bits of the
// i-th column solve of the identity, SolveVec(e_i)[i].
func checkInverseDiag(t *testing.T, ch *Cholesky, what string) {
	t.Helper()
	n := ch.n
	got := ch.InverseDiag()
	if len(got) != n {
		t.Fatalf("%s: len(InverseDiag) = %d, want %d", what, len(got), n)
	}
	e := make([]float64, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			e[i-1] = 0
		}
		e[i] = 1
		col, err := ch.SolveVec(e)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got[i]) != math.Float64bits(col[i]) {
			t.Fatalf("%s: InverseDiag[%d] = %v (%#x), column solve %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), col[i], math.Float64bits(col[i]))
		}
	}
}

func TestInverseDiagBitIdentical(t *testing.T) {
	scales := []float64{0.03, 0.06, 0.1, 0.18, 0.3}
	signals := []float64{0.001, 0.01, 0.05, 0.15, 0.4}
	floors := []float64{1e-6, 1e-4, 1e-3, 2.5e-2}
	rng := rand.New(rand.NewSource(17))
	factored, refused := 0, 0
	for n := 1; n <= 96; n++ {
		x := make([]float64, n)
		for i := range x {
			if i > 0 && rng.Intn(5) == 0 {
				x[i] = x[rng.Intn(i)] // duplicate input
			} else {
				x[i] = rng.Float64()
			}
		}
		for si, l := range scales {
			sf2 := signals[(n+si)%len(signals)]
			nf := floors[(n+2*si)%len(floors)]
			ch, err := NewCholesky(rbfKernel(x, l, sf2, nf))
			if err != nil {
				if !errors.Is(err, ErrNotSPD) {
					t.Fatalf("n=%d l=%v: %v", n, l, err)
				}
				refused++
				continue
			}
			factored++
			checkInverseDiag(t, ch, fmt.Sprintf("n=%d l=%v sf2=%v nf=%v", n, l, sf2, nf))
		}
		ch, err := NewCholesky(randomSPD(rng, n))
		if err != nil {
			t.Fatal(err)
		}
		checkInverseDiag(t, ch, fmt.Sprintf("n=%d random SPD", n))
	}
	if factored < 400 {
		t.Errorf("only %d RBF kernels factorized (%d refused)", factored, refused)
	}
}

// refCholesky is the row-by-row factorization: every entry of L in row-major
// order, one accumulation chain at a time.
func refCholesky(a *Dense) (*Cholesky, error) {
	n := a.rows
	l := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			li := l.data[i*n : i*n+j]
			lj := l.data[j*n : j*n+j]
			for k := range lj {
				sum -= li[k] * lj[k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, fmt.Errorf("%w: pivot %d = %v", ErrNotSPD, i, sum)
				}
				l.data[i*n+j] = math.Sqrt(sum)
			} else {
				l.data[i*n+j] = sum / l.data[j*n+j]
			}
		}
	}
	return &Cholesky{l: l, n: n}, nil
}

// checkCholesky asserts NewCholesky(a) returns the reference factor bit for
// bit, or the reference's error text.
func checkCholesky(t *testing.T, a *Dense, what string) {
	t.Helper()
	want, wantErr := refCholesky(a)
	got, err := NewCholesky(a)
	if wantErr != nil || err != nil {
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() || !errors.Is(err, ErrNotSPD) {
			t.Fatalf("%s: NewCholesky err = %v, reference err = %v", what, err, wantErr)
		}
		return
	}
	for p, v := range want.l.data {
		if math.Float64bits(got.l.data[p]) != math.Float64bits(v) {
			t.Fatalf("%s: L[%d][%d] = %v, reference %v", what, p/want.n, p%want.n, got.l.data[p], v)
		}
	}
}

func TestCholeskyBitIdentical(t *testing.T) {
	scales := []float64{0.03, 0.06, 0.1, 0.18, 0.3}
	rng := rand.New(rand.NewSource(23))
	failed := map[bool]int{} // refusals at even and odd pivots
	for n := 1; n <= 96; n++ {
		x := make([]float64, n)
		for i := range x {
			if i > 0 && rng.Intn(4) == 0 {
				x[i] = x[rng.Intn(i)]
			} else {
				x[i] = rng.Float64()
			}
		}
		for _, l := range scales {
			// At sf2 = 1e8 with no noise floor the 1e-10 jitter is lost to
			// rounding, so kernels with duplicate inputs are refused at some
			// pivot.
			for _, sf2 := range []float64{0.4, 1e8} {
				nf := 1e-6
				if sf2 > 1 {
					nf = 0
				}
				a := rbfKernel(x, l, sf2, nf)
				if _, err := refCholesky(a); err != nil {
					var p int
					fmt.Sscanf(err.Error()[len(ErrNotSPD.Error()):], ": pivot %d", &p)
					failed[p%2 == 0]++
				}
				checkCholesky(t, a, fmt.Sprintf("n=%d l=%v sf2=%v", n, l, sf2))
			}
		}
		spd := randomSPD(rng, n)
		checkCholesky(t, spd, fmt.Sprintf("n=%d random SPD", n))
		// Break the matrix at one pivot, even or odd, by a negative or NaN
		// diagonal entry.
		p := rng.Intn(n)
		bad := spd.Clone()
		bad.Set(p, p, -1)
		checkCholesky(t, bad, fmt.Sprintf("n=%d negative pivot %d", n, p))
		bad.Set(p, p, math.NaN())
		checkCholesky(t, bad, fmt.Sprintf("n=%d NaN pivot %d", n, p))
	}
	if failed[true] == 0 || failed[false] == 0 {
		t.Errorf("near-singular kernels refused at even/odd pivots %d/%d times, want both", failed[true], failed[false])
	}
}
