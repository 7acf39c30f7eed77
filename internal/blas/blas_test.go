package blas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// colMajor builds a column-major array with the given leading dimension,
// padding rows filled with a sentinel so tests catch out-of-bounds writes.
func colMajor(rng *rand.Rand, rows, cols, ld int) []float64 {
	a := make([]float64, ld*cols)
	for i := range a {
		a[i] = 1e30 // sentinel for padding
	}
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			a[i+j*ld] = 2*rng.Float64() - 1
		}
	}
	return a
}

func checkPadding(t *testing.T, a []float64, rows, cols, ld int, name string) {
	t.Helper()
	for j := 0; j < cols; j++ {
		for i := rows; i < ld; i++ {
			if a[i+j*ld] != 1e30 {
				t.Fatalf("%s: padding overwritten at (%d,%d)", name, i, j)
			}
		}
	}
}

func get(a []float64, ld, i, j int) float64 { return a[i+j*ld] }

// refGemm is a simple reference for op(A)·op(B) accumulation.
func refGemm(transA, transB bool, m, n, k int, alpha float64, a []float64, lda int,
	b []float64, ldb int, beta float64, c []float64, ldc int) []float64 {
	out := make([]float64, len(c))
	copy(out, c)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			var s float64
			for l := 0; l < k; l++ {
				var av, bv float64
				if transA {
					av = get(a, lda, l, i)
				} else {
					av = get(a, lda, i, l)
				}
				if transB {
					bv = get(b, ldb, j, l)
				} else {
					bv = get(b, ldb, l, j)
				}
				s += av * bv
			}
			out[i+j*ldc] = alpha*s + beta*get(c, ldc, i, j)
		}
	}
	return out
}

func TestDgemmAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, transA := range []bool{false, true} {
		for _, transB := range []bool{false, true} {
			for _, beta := range []float64{0, 1, -0.5} {
				m, n, k := 5, 4, 3
				lda, ldb, ldc := 7, 6, 8
				ar, ac := m, k
				if transA {
					ar, ac = k, m
				}
				br, bc := k, n
				if transB {
					br, bc = n, k
				}
				a := colMajor(rng, ar, ac, lda)
				b := colMajor(rng, br, bc, ldb)
				c := colMajor(rng, m, n, ldc)
				want := refGemm(transA, transB, m, n, k, 1.5, a, lda, b, ldb, beta, c, ldc)
				Dgemm(transA, transB, m, n, k, 1.5, a, lda, b, ldb, beta, c, ldc)
				for j := 0; j < n; j++ {
					for i := 0; i < m; i++ {
						if math.Abs(c[i+j*ldc]-want[i+j*ldc]) > 1e-12 {
							t.Fatalf("gemm(%v,%v,beta=%v) mismatch at (%d,%d)",
								transA, transB, beta, i, j)
						}
					}
				}
				checkPadding(t, c, m, n, ldc, "C")
			}
		}
	}
}

func TestDgemmDegenerate(t *testing.T) {
	c := []float64{1, 2}
	Dgemm(false, false, 0, 1, 3, 1, nil, 1, nil, 1, 1, c, 2)
	Dgemm(false, false, 2, 1, 0, 1, nil, 2, nil, 1, 2, c, 2)
	if c[0] != 2 || c[1] != 4 {
		t.Fatal("k=0 must still scale C by beta")
	}
	Dgemm(false, false, 2, 1, 5, 0, make([]float64, 10), 2, make([]float64, 5), 5, 1, c, 2)
	if c[0] != 2 || c[1] != 4 {
		t.Fatal("alpha=0 must leave C (beta=1)")
	}
}

func applyTriRef(upper, trans, unit bool, n int, a []float64, lda int, x []float64) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var v float64
			ii, jj := i, j
			if trans {
				ii, jj = j, i
			}
			switch {
			case ii == jj:
				if unit {
					v = 1
				} else {
					v = get(a, lda, ii, jj)
				}
			case (upper && ii < jj) || (!upper && ii > jj):
				v = get(a, lda, ii, jj)
			}
			out[i] += v * x[j]
		}
	}
	return out
}

func TestDtrmvAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, lda := 6, 8
	a := colMajor(rng, n, n, lda)
	for _, upper := range []bool{false, true} {
		for _, trans := range []bool{false, true} {
			for _, unit := range []bool{false, true} {
				x := make([]float64, n)
				for i := range x {
					x[i] = rng.Float64()
				}
				want := applyTriRef(upper, trans, unit, n, a, lda, x)
				Dtrmv(upper, trans, unit, n, a, lda, x)
				for i := range x {
					if math.Abs(x[i]-want[i]) > 1e-12 {
						t.Fatalf("trmv(%v,%v,%v) mismatch at %d", upper, trans, unit, i)
					}
				}
			}
		}
	}
}

func TestDtrmmLeftRight(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, n := 5, 4
	for _, left := range []bool{true, false} {
		for _, upper := range []bool{false, true} {
			for _, trans := range []bool{false, true} {
				for _, unit := range []bool{false, true} {
					na := m
					if !left {
						na = n
					}
					lda, ldb := na+2, m+1
					a := colMajor(rng, na, na, lda)
					b := colMajor(rng, m, n, ldb)
					// Reference: apply column-by-column (left) or build from
					// row systems (right) using applyTriRef on B's rows.
					want := make([]float64, len(b))
					copy(want, b)
					if left {
						for j := 0; j < n; j++ {
							col := make([]float64, m)
							for i := 0; i < m; i++ {
								col[i] = get(b, ldb, i, j)
							}
							res := applyTriRef(upper, trans, unit, m, a, lda, col)
							for i := 0; i < m; i++ {
								want[i+j*ldb] = 2 * res[i]
							}
						}
					} else {
						for i := 0; i < m; i++ {
							row := make([]float64, n)
							for j := 0; j < n; j++ {
								row[j] = get(b, ldb, i, j)
							}
							// B·op(A) row i = op(A)ᵀ · rowᵀ.
							res := applyTriRef(upper, !trans, unit, n, a, lda, row)
							for j := 0; j < n; j++ {
								want[i+j*ldb] = 2 * res[j]
							}
						}
					}
					Dtrmm(left, upper, trans, unit, m, n, 2, a, lda, b, ldb)
					for j := 0; j < n; j++ {
						for i := 0; i < m; i++ {
							if math.Abs(b[i+j*ldb]-want[i+j*ldb]) > 1e-12 {
								t.Fatalf("trmm(left=%v,%v,%v,%v) mismatch",
									left, upper, trans, unit)
							}
						}
					}
					checkPadding(t, b, m, n, ldb, "B")
				}
			}
		}
	}
}

// Dtrsm keeps the one form the least-squares solves call: left, upper, no
// transpose, non-unit diagonal. It undoes Dtrmm of that form.
func TestDtrsmInvertsDtrmm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, n := 5, 3
	lda, ldb := m+2, m+1
	a := colMajor(rng, m, m, lda)
	// Make A well conditioned.
	for i := 0; i < m; i++ {
		a[i+i*lda] = 3 + rng.Float64()
	}
	x := colMajor(rng, m, n, ldb)
	b := append([]float64(nil), x...)
	Dtrmm(true, true, false, false, m, n, 1, a, lda, b, ldb)
	// Solve A·Y = B; must recover X.
	Dtrsm(m, n, a, lda, b, ldb)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			if math.Abs(b[i+j*ldb]-x[i+j*ldb]) > 1e-10 {
				t.Fatalf("trsm did not invert trmm at (%d,%d)", i, j)
			}
		}
	}
	checkPadding(t, b, m, n, ldb, "B")
}

func TestDgemvGer(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m, n, lda := 5, 4, 6
	a := colMajor(rng, m, n, lda)
	y := make([]float64, m)
	for i := range y {
		y[i] = rng.Float64()
	}
	// x2 += Aᵀ*y
	x2 := make([]float64, n)
	for i := range x2 {
		x2[i] = 123
	}
	DgemvT(m, n, a, lda, y, x2)
	for j := 0; j < n; j++ {
		want := 123.0
		for i := 0; i < m; i++ {
			want += get(a, lda, i, j) * y[i]
		}
		if math.Abs(x2[j]-want) > 1e-12 {
			t.Fatal("gemv trans wrong")
		}
	}
}

func TestLevel1(t *testing.T) {
	x := []float64{3, -4, 0}
	if got := Dnrm2(3, x); math.Abs(got-5) > 1e-15 {
		t.Fatalf("nrm2 = %v", got)
	}
	if got := Dnrm2(2, []float64{1e200, 1e200}); math.IsInf(got, 0) {
		t.Fatal("nrm2 overflowed")
	}
	if got := Ddot(2, []float64{1, 2}, []float64{3, 4}); got != 11 {
		t.Fatalf("ddot = %v", got)
	}
	y := []float64{1, 1}
	Daxpy(2, 2, []float64{1, 2}, y)
	if y[0] != 3 || y[1] != 5 {
		t.Fatal("daxpy wrong")
	}
	Dscal(2, 0.5, y)
	if y[0] != 1.5 || y[1] != 2.5 {
		t.Fatal("dscal wrong")
	}
}

func TestDnrm2MatchesNaiveProperty(t *testing.T) {
	f := func(vals []float64) bool {
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				vals[i] = 1
			}
			// Keep magnitudes sane for the naive reference.
			vals[i] = math.Mod(vals[i], 1e6)
		}
		var ss float64
		for _, v := range vals {
			ss += v * v
		}
		want := math.Sqrt(ss)
		got := Dnrm2(len(vals), vals)
		if want == 0 {
			return got == 0
		}
		return math.Abs(got-want)/want < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDgemmAssociativityProperty(t *testing.T) {
	// (A·B)·C == A·(B·C) within round-off, exercised through Dgemm.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6) + 1
		a := colMajor(rng, n, n, n)
		b := colMajor(rng, n, n, n)
		c := colMajor(rng, n, n, n)
		ab := make([]float64, n*n)
		bc := make([]float64, n*n)
		l, r := make([]float64, n*n), make([]float64, n*n)
		Dgemm(false, false, n, n, n, 1, a, n, b, n, 0, ab, n)
		Dgemm(false, false, n, n, n, 1, b, n, c, n, 0, bc, n)
		Dgemm(false, false, n, n, n, 1, ab, n, c, n, 0, l, n)
		Dgemm(false, false, n, n, n, 1, a, n, bc, n, 0, r, n)
		for i := range l {
			if math.Abs(l[i]-r[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
