// Package matrix provides the dense matrix and tile containers used by the
// tile QR factorization and its kernels.
//
// All storage is column-major with an explicit leading dimension (stride),
// following the LAPACK convention, so that numerical kernels translate
// directly from their reference formulations. A Mat may be a view into a
// larger allocation; Clone produces compact copies.
package matrix

import (
	"fmt"
	"math"
	"math/rand"
)

// Mat is a column-major matrix of float64 with leading dimension LD.
// Element (i, j) lives at Data[i+j*LD]. Mat is used both for full matrices
// and for individual tiles of a Tiled matrix.
type Mat struct {
	Rows, Cols int
	LD         int
	Data       []float64
}

// New returns a zero-initialized Rows×Cols matrix with a compact layout
// (LD == Rows).
func New(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", rows, cols))
	}
	ld := rows
	if ld < 1 {
		ld = 1
	}
	return &Mat{Rows: rows, Cols: cols, LD: ld, Data: make([]float64, ld*cols)}
}

// NewRand returns a Rows×Cols matrix with entries drawn uniformly from
// (-1, 1) using the supplied generator. A nil generator panics; callers
// seed deterministically so experiments are reproducible.
func NewRand(rows, cols int, rng *rand.Rand) *Mat {
	m := New(rows, cols)
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			m.Data[i+j*m.LD] = 2*rng.Float64() - 1
		}
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Mat {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i+i*m.LD] = 1
	}
	return m
}

// FromColMajor wraps existing column-major data without copying.
func FromColMajor(rows, cols, ld int, data []float64) *Mat {
	if ld < rows || ld < 1 {
		panic(fmt.Sprintf("matrix: ld %d < rows %d", ld, rows))
	}
	if cols > 0 && len(data) < ld*(cols-1)+rows {
		panic("matrix: data slice too short")
	}
	return &Mat{Rows: rows, Cols: cols, LD: ld, Data: data}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i+j*m.LD] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i+j*m.LD] = v }

// Add increments element (i, j) by v.
func (m *Mat) Add(i, j int, v float64) { m.Data[i+j*m.LD] += v }

// Col returns the slice backing column j (rows 0..Rows-1).
func (m *Mat) Col(j int) []float64 { return m.Data[j*m.LD : j*m.LD+m.Rows] }

// View returns a sub-matrix view of rows [i, i+rows) and columns
// [j, j+cols) sharing storage with m.
func (m *Mat) View(i, j, rows, cols int) *Mat { return m.ViewInto(new(Mat), i, j, rows, cols) }

// ViewInto fills dst with the same view View would return — rows [i, i+rows)
// and columns [j, j+cols) sharing storage with m — and returns dst. It
// exists so hot paths can reuse a caller-owned header instead of allocating
// one per call. An empty view may start past m's last element (a column-less
// view at a row offset); its Data is then empty.
func (m *Mat) ViewInto(dst *Mat, i, j, rows, cols int) *Mat {
	if i < 0 || j < 0 || rows < 0 || cols < 0 || i+rows > m.Rows || j+cols > m.Cols {
		panic(fmt.Sprintf("matrix: view [%d:%d, %d:%d) out of %dx%d",
			i, i+rows, j, j+cols, m.Rows, m.Cols))
	}
	dst.Rows, dst.Cols, dst.LD, dst.Data = rows, cols, m.LD, m.Data[min(i+j*m.LD, len(m.Data)):]
	return dst
}

// Clone returns a compact deep copy of m.
func (m *Mat) Clone() *Mat {
	c := New(m.Rows, m.Cols)
	for j := 0; j < m.Cols; j++ {
		copy(c.Data[j*c.LD:j*c.LD+m.Rows], m.Data[j*m.LD:j*m.LD+m.Rows])
	}
	return c
}

// CopyFrom copies the contents of src (same shape required) into m.
func (m *Mat) CopyFrom(src *Mat) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("matrix: copy shape mismatch %dx%d <- %dx%d",
			m.Rows, m.Cols, src.Rows, src.Cols))
	}
	for j := 0; j < m.Cols; j++ {
		copy(m.Data[j*m.LD:j*m.LD+m.Rows], src.Data[j*src.LD:j*src.LD+m.Rows])
	}
}

// Zero sets every element to zero.
func (m *Mat) Zero() {
	for j := 0; j < m.Cols; j++ {
		col := m.Data[j*m.LD : j*m.LD+m.Rows]
		for i := range col {
			col[i] = 0
		}
	}
}

// Fill sets every element to v.
func (m *Mat) Fill(v float64) {
	for j := 0; j < m.Cols; j++ {
		col := m.Data[j*m.LD : j*m.LD+m.Rows]
		for i := range col {
			col[i] = v
		}
	}
}

// Transpose returns a new compact matrix equal to mᵀ.
func (m *Mat) Transpose() *Mat {
	t := New(m.Cols, m.Rows)
	for j := 0; j < m.Cols; j++ {
		for i := 0; i < m.Rows; i++ {
			t.Data[j+i*t.LD] = m.Data[i+j*m.LD]
		}
	}
	return t
}

// Mul returns the product m·b as a new matrix (naive reference; used by
// tests and small drivers, not by kernels).
func (m *Mat) Mul(b *Mat) *Mat {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: mul shape mismatch %dx%d · %dx%d",
			m.Rows, m.Cols, b.Rows, b.Cols))
	}
	c := New(m.Rows, b.Cols)
	for j := 0; j < b.Cols; j++ {
		for k := 0; k < m.Cols; k++ {
			bkj := b.Data[k+j*b.LD]
			if bkj == 0 {
				continue
			}
			mcol := m.Data[k*m.LD : k*m.LD+m.Rows]
			ccol := c.Data[j*c.LD : j*c.LD+m.Rows]
			for i := range mcol {
				ccol[i] += mcol[i] * bkj
			}
		}
	}
	return c
}

// Sub returns m − b as a new matrix.
func (m *Mat) Sub(b *Mat) *Mat {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("matrix: sub shape mismatch")
	}
	c := New(m.Rows, m.Cols)
	for j := 0; j < m.Cols; j++ {
		for i := 0; i < m.Rows; i++ {
			c.Data[i+j*c.LD] = m.Data[i+j*m.LD] - b.Data[i+j*b.LD]
		}
	}
	return c
}

// FrobNorm returns the Frobenius norm, guarding against overflow with
// scaled accumulation.
func (m *Mat) FrobNorm() float64 {
	scale, ssq := 0.0, 1.0
	for j := 0; j < m.Cols; j++ {
		for i := 0; i < m.Rows; i++ {
			v := math.Abs(m.Data[i+j*m.LD])
			if v == 0 {
				continue
			}
			if scale < v {
				r := scale / v
				ssq = 1 + ssq*r*r
				scale = v
			} else {
				r := v / scale
				ssq += r * r
			}
		}
	}
	return scale * math.Sqrt(ssq)
}

// MaxAbs returns the largest absolute entry.
func (m *Mat) MaxAbs() float64 {
	max := 0.0
	for j := 0; j < m.Cols; j++ {
		for i := 0; i < m.Rows; i++ {
			if v := math.Abs(m.Data[i+j*m.LD]); v > max {
				max = v
			}
		}
	}
	return max
}

// MaxAbsDiff returns the largest absolute elementwise difference between
// two same-shaped matrices, or NaN if any difference is NaN — a NaN on
// either side, or on both — so that a "bitwise equal" check of 0 cannot
// pass on a NaN.
func MaxAbsDiff(a, b *Mat) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("matrix: diff shape mismatch")
	}
	max := 0.0
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			if v := math.Abs(a.Data[i+j*a.LD] - b.Data[i+j*b.LD]); !(v <= max) {
				if math.IsNaN(v) {
					return v
				}
				max = v
			}
		}
	}
	return max
}

// UpperTriangle returns a copy of m with everything strictly below the
// diagonal zeroed; useful for extracting R factors from packed kernels.
func (m *Mat) UpperTriangle() *Mat {
	c := m.Clone()
	for j := 0; j < c.Cols; j++ {
		for i := j + 1; i < c.Rows; i++ {
			c.Data[i+j*c.LD] = 0
		}
	}
	return c
}

// String renders small matrices for debugging.
func (m *Mat) String() string {
	s := fmt.Sprintf("%dx%d:\n", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf("% 11.4e ", m.Data[i+j*m.LD])
		}
		s += "\n"
	}
	return s
}
