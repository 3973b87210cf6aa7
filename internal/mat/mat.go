// Package mat implements the small dense linear-algebra kernel the
// Gaussian-process regressor needs: row-major dense matrices, Cholesky
// factorization of symmetric positive-definite matrices, and triangular
// solves. It is deliberately minimal — only what internal/gp requires —
// and uses no external dependencies.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrShape reports incompatible or invalid matrix dimensions.
var ErrShape = errors.New("mat: incompatible shapes")

// ErrNotSPD reports that a Cholesky factorization failed because the input
// is not (numerically) symmetric positive definite.
var ErrNotSPD = errors.New("mat: matrix not positive definite")

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates an r x c zero matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: NewDense(%d, %d) negative dimension", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewDenseFrom builds a matrix from a slice of rows. All rows must have the
// same length.
func NewDenseFrom(rows [][]float64) (*Dense, error) {
	r := len(rows)
	if r == 0 {
		return NewDense(0, 0), nil
	}
	c := len(rows[0])
	m := NewDense(r, c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("%w: row %d has %d cols, want %d", ErrShape, i, len(row), c)
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// Dims returns the matrix dimensions.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add accumulates v into element (i, j).
func (m *Dense) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d, %d) out of bounds for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Data returns the row-major backing slice of the matrix, aliased: element
// (i, j) is Data()[i*c+j] for c columns. Hot loops use it to fill or read a
// matrix without a bounds-checked call per element.
func (m *Dense) Data() []float64 { return m.data }

// Row returns a copy of row i.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of bounds for %dx%d matrix", i, m.rows, m.cols))
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Clone returns a deep copy of the matrix.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// Mul returns a*b.
func Mul(a, b *Dense) (*Dense, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("%w: %dx%d * %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols)
	}
	out := NewDense(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out, nil
}

// MulVec returns a*x for a column vector x.
func MulVec(a *Dense, x []float64) ([]float64, error) {
	if a.cols != len(x) {
		return nil, fmt.Errorf("%w: %dx%d * vec(%d)", ErrShape, a.rows, a.cols, len(x))
	}
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		var sum float64
		for j, v := range row {
			sum += v * x[j]
		}
		out[i] = sum
	}
	return out, nil
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: dot vec(%d) . vec(%d)", ErrShape, len(a), len(b))
	}
	var sum float64
	for i := range a {
		sum += a[i] * b[i]
	}
	return sum, nil
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.6g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Cholesky holds the lower-triangular factor L of an SPD matrix A = L Lᵀ.
type Cholesky struct {
	l *Dense
	n int
}

// NewCholesky factorizes the symmetric positive-definite matrix a.
// Only the lower triangle of a is read. It returns ErrNotSPD when a pivot is
// not strictly positive.
func NewCholesky(a *Dense) (*Cholesky, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: Cholesky of %dx%d", ErrShape, a.rows, a.cols)
	}
	n := a.rows
	l := NewDense(n, n)
	ad, ld := a.data, l.data
	// Rows i and i2 = i+1 are factorized together: their entries left of
	// column i read the same rows of L and not each other, so they run as
	// two independent accumulation chains, each in the single-row order.
	i := 0
	for ; i+1 < n; i += 2 {
		i2 := i + 1
		r1, r2 := ld[i*n:i*n+i], ld[i2*n:i2*n+i]
		for j := 0; j < i; j++ {
			s1, s2 := ad[i*n+j], ad[i2*n+j]
			l1, l2 := r1[:j], r2[:j]
			for k, v := range ld[j*n : j*n+j] {
				s1 -= l1[k] * v
				s2 -= l2[k] * v
			}
			r1[j] = s1 / ld[j*n+j]
			r2[j] = s2 / ld[j*n+j]
		}
		if err := choleskyRow(ad, ld, n, i, i); err != nil {
			return nil, err
		}
		if err := choleskyRow(ad, ld, n, i2, i); err != nil {
			return nil, err
		}
	}
	if i < n {
		if err := choleskyRow(ad, ld, n, i, 0); err != nil {
			return nil, err
		}
	}
	return &Cholesky{l: l, n: n}, nil
}

// choleskyRow computes the entries in columns [from, i] of row i of the
// factor, the diagonal last, from a's row and the rows of L above it.
func choleskyRow(a, l []float64, n, i, from int) error {
	for j := from; j <= i; j++ {
		sum := a[i*n+j]
		li := l[i*n : i*n+j]
		for k, v := range l[j*n : j*n+j] {
			sum -= li[k] * v
		}
		if i == j {
			if sum <= 0 || math.IsNaN(sum) {
				return fmt.Errorf("%w: pivot %d = %v", ErrNotSPD, i, sum)
			}
			l[i*n+j] = math.Sqrt(sum)
		} else {
			l[i*n+j] = sum / l[j*n+j]
		}
	}
	return nil
}

// L returns a copy of the lower-triangular factor.
func (c *Cholesky) L() *Dense { return c.l.Clone() }

// SolveVec solves A x = b via the factorization (forward then backward
// substitution).
func (c *Cholesky) SolveVec(b []float64) ([]float64, error) {
	if len(b) != c.n {
		return nil, fmt.Errorf("%w: solve with vec(%d) for n=%d", ErrShape, len(b), c.n)
	}
	n := c.n
	l := c.l.data
	// Forward: L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l[i*n+k] * y[k]
		}
		y[i] = sum / l[i*n+i]
	}
	// Backward: Lᵀ x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= l[k*n+i] * x[k]
		}
		x[i] = sum / l[i*n+i]
	}
	return x, nil
}

// InverseDiag returns the diagonal of A⁻¹. Entry i holds exactly the bits
// of SolveVec(e_i)[i], the i-th column solve of the identity, at about a
// third of the cost of those n solves:
//   - The forward pass L y = e_i starts at row i. The rows above it only
//     ever subtract signed zeros from +0 (every off-diagonal entry of a
//     successful factor is finite), so they stay +0 and are skipped.
//   - The backward pass Lᵀ x = y stops at row i. It reads a transposed copy
//     of L, so it runs along rows, in the same summation order.
//   - Two columns are solved at a time, as two independent accumulation
//     chains over the same rows of L.
//
// Cost is Σ(n−i)² ≈ n³/3 multiply-adds, against ~n³ for the column solves.
func (c *Cholesky) InverseDiag() []float64 {
	n := c.n
	l := c.l.data
	buf := make([]float64, n*n+4*n)
	lt := buf[:n*n] // lt[r*n+k] = L[k][r]
	for r := 0; r < n; r++ {
		for k := r; k < n; k++ {
			lt[r*n+k] = l[k*n+r]
		}
	}
	// Columns i and j = i+1 are solved together, each chain in the
	// single-column order.
	ya, yb := buf[n*n:n*n+n], buf[n*n+n:n*n+2*n]
	xa, xb := buf[n*n+2*n:n*n+3*n], buf[n*n+3*n:]
	out := make([]float64, n)
	i := 0
	for ; i+1 < n; i += 2 {
		j := i + 1
		ya[i] = 1 / l[i*n+i]
		var s float64
		s -= l[j*n+i] * ya[i]
		ya[j] = s / l[j*n+j]
		yb[j] = 1 / l[j*n+j]
		for r := j + 1; r < n; r++ {
			row := l[r*n+j : r*n+r]
			pa, pb := ya[j:r], yb[j:r]
			var sa, sb float64
			sa -= l[r*n+i] * ya[i]
			for k, v := range row {
				sa -= v * pa[k]
				sb -= v * pb[k]
			}
			ya[r] = sa / l[r*n+r]
			yb[r] = sb / l[r*n+r]
		}
		for r := n - 1; r >= j; r-- {
			row := lt[r*n+r+1 : r*n+n]
			pa, pb := xa[r+1:n], xb[r+1:n]
			sa, sb := ya[r], yb[r]
			for k, v := range row {
				sa -= v * pa[k]
				sb -= v * pb[k]
			}
			xa[r] = sa / l[r*n+r]
			xb[r] = sb / l[r*n+r]
		}
		s = ya[i]
		pa := xa[j:n]
		for k, v := range lt[i*n+j : i*n+n] {
			s -= v * pa[k]
		}
		out[i] = s / l[i*n+i]
		out[j] = xb[j]
	}
	if i < n { // odd n: the last column alone is one entry
		out[i] = 1 / l[i*n+i] / l[i*n+i]
	}
	return out
}

// Solve solves A X = B column by column.
func (c *Cholesky) Solve(b *Dense) (*Dense, error) {
	if b.rows != c.n {
		return nil, fmt.Errorf("%w: solve %dx%d with n=%d", ErrShape, b.rows, b.cols, c.n)
	}
	out := NewDense(b.rows, b.cols)
	col := make([]float64, b.rows)
	for j := 0; j < b.cols; j++ {
		for i := 0; i < b.rows; i++ {
			col[i] = b.At(i, j)
		}
		x, err := c.SolveVec(col)
		if err != nil {
			return nil, err
		}
		for i := 0; i < b.rows; i++ {
			out.Set(i, j, x[i])
		}
	}
	return out, nil
}

// LogDet returns log(det(A)) = 2 * sum log(L_ii).
func (c *Cholesky) LogDet() float64 {
	var sum float64
	for i := 0; i < c.n; i++ {
		sum += math.Log(c.l.data[i*c.n+i])
	}
	return 2 * sum
}

// SolveTriLowerVec solves L y = b for the lower-triangular factor alone.
// The GP uses it to whiten cross-covariance columns when computing the
// posterior covariance.
func (c *Cholesky) SolveTriLowerVec(b []float64) ([]float64, error) {
	if len(b) != c.n {
		return nil, fmt.Errorf("%w: tri-solve with vec(%d) for n=%d", ErrShape, len(b), c.n)
	}
	n := c.n
	l := c.l.data
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l[i*n+k] * y[k]
		}
		y[i] = sum / l[i*n+i]
	}
	return y, nil
}
