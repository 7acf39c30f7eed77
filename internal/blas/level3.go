package blas

import "sync"

// Dgemm computes C := alpha*op(A)*op(B) + beta*C with op selected by
// transA/transB. C is m×n, op(A) is m×k, op(B) is k×n, all column-major.
//
// Shapes large enough to amortize panel packing run on the blocked engine
// in gemm_blocked.go; everything else falls through to the scalar loops in
// dgemmScalar. The routing depends only on (m, n, k), so for fixed operand
// shapes the summation order — and therefore the bitwise result — is
// fixed too.
func Dgemm(transA, transB bool, m, n, k int, alpha float64, a []float64, lda int,
	b []float64, ldb int, beta float64, c []float64, ldc int) {
	if m <= 0 || n <= 0 {
		return
	}
	if alpha != 0 && k > 0 && useBlocked(m, n, k) {
		scaleC(beta, m, n, c, ldc)
		dgemmBlocked(transA, transB, m, n, k, alpha, a, lda, b, ldb, c, ldc)
		return
	}
	dgemmScalar(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
}

// scaleC applies C := beta*C over the m×n window.
func scaleC(beta float64, m, n int, c []float64, ldc int) {
	if beta == 1 {
		return
	}
	for j := 0; j < n; j++ {
		col := c[j*ldc : j*ldc+m]
		if beta == 0 {
			for i := range col {
				col[i] = 0
			}
		} else {
			for i := range col {
				col[i] *= beta
			}
		}
	}
}

// dgemmScalar is the unblocked reference implementation, kept both as the
// small-shape fast path (packing overhead exceeds the work below the
// dispatch threshold) and as the oracle the differential tests pit the
// blocked engine against.
//
// The no-transpose path runs a j-k-i loop nest so the inner loop streams
// down contiguous columns, which is the cache-friendly order for
// column-major data; the transposed paths reduce to dot products or
// column-axpy sweeps with the same property.
func dgemmScalar(transA, transB bool, m, n, k int, alpha float64, a []float64, lda int,
	b []float64, ldb int, beta float64, c []float64, ldc int) {
	if m <= 0 || n <= 0 {
		return
	}
	scaleC(beta, m, n, c, ldc)
	if alpha == 0 || k <= 0 {
		return
	}
	switch {
	case !transA && !transB:
		// C += alpha * A * B. Process four columns of C per sweep over a
		// column of A: each load of A feeds four multiply-adds, which
		// quadruples the arithmetic intensity of the inner loop.
		j := 0
		for ; j+4 <= n; j += 4 {
			c0 := c[(j+0)*ldc : (j+0)*ldc+m]
			c1 := c[(j+1)*ldc : (j+1)*ldc+m]
			c2 := c[(j+2)*ldc : (j+2)*ldc+m]
			c3 := c[(j+3)*ldc : (j+3)*ldc+m]
			for l := 0; l < k; l++ {
				t0 := alpha * b[l+(j+0)*ldb]
				t1 := alpha * b[l+(j+1)*ldb]
				t2 := alpha * b[l+(j+2)*ldb]
				t3 := alpha * b[l+(j+3)*ldb]
				if t0 == 0 && t1 == 0 && t2 == 0 && t3 == 0 {
					continue
				}
				acol := a[l*lda : l*lda+m]
				for i, v := range acol {
					c0[i] += t0 * v
					c1[i] += t1 * v
					c2[i] += t2 * v
					c3[i] += t3 * v
				}
			}
		}
		for ; j < n; j++ {
			ccol := c[j*ldc : j*ldc+m]
			for l := 0; l < k; l++ {
				t := alpha * b[l+j*ldb]
				if t == 0 {
					continue
				}
				acol := a[l*lda : l*lda+m]
				for i, v := range acol {
					ccol[i] += t * v
				}
			}
		}
	case transA && !transB:
		// C += alpha * Aᵀ * B ; A is k×m stored, columns of A are rows of
		// op(A). Four simultaneous dot products share each load of B.
		for j := 0; j < n; j++ {
			bcol := b[j*ldb : j*ldb+k]
			ccol := c[j*ldc : j*ldc+m]
			i := 0
			for ; i+4 <= m; i += 4 {
				a0 := a[(i+0)*lda : (i+0)*lda+k]
				a1 := a[(i+1)*lda : (i+1)*lda+k]
				a2 := a[(i+2)*lda : (i+2)*lda+k]
				a3 := a[(i+3)*lda : (i+3)*lda+k]
				var s0, s1, s2, s3 float64
				for l, bv := range bcol {
					s0 += a0[l] * bv
					s1 += a1[l] * bv
					s2 += a2[l] * bv
					s3 += a3[l] * bv
				}
				ccol[i+0] += alpha * s0
				ccol[i+1] += alpha * s1
				ccol[i+2] += alpha * s2
				ccol[i+3] += alpha * s3
			}
			for ; i < m; i++ {
				acol := a[i*lda : i*lda+k]
				var s float64
				for l, v := range acol {
					s += v * bcol[l]
				}
				ccol[i] += alpha * s
			}
		}
	case !transA && transB:
		// C += alpha * A * Bᵀ ; B is n×k stored.
		for j := 0; j < n; j++ {
			ccol := c[j*ldc : j*ldc+m]
			for l := 0; l < k; l++ {
				t := alpha * b[j+l*ldb]
				if t == 0 {
					continue
				}
				acol := a[l*lda : l*lda+m]
				for i, v := range acol {
					ccol[i] += t * v
				}
			}
		}
	default:
		// C += alpha * Aᵀ * Bᵀ
		for j := 0; j < n; j++ {
			ccol := c[j*ldc : j*ldc+m]
			for i := 0; i < m; i++ {
				acol := a[i*lda : i*lda+k]
				var s float64
				for l, v := range acol {
					s += v * b[j+l*ldb]
				}
				ccol[i] += alpha * s
			}
		}
	}
}

// Dtrmm computes B := alpha*op(A)*B (left) or B := alpha*B*op(A) (right)
// for a triangular A. B is m×n; A is m×m (left) or n×n (right).
func Dtrmm(left, upper, trans, unit bool, m, n int, alpha float64,
	a []float64, lda int, b []float64, ldb int) {
	if m <= 0 || n <= 0 {
		return
	}
	if alpha == 0 {
		for j := 0; j < n; j++ {
			col := b[j*ldb : j*ldb+m]
			for i := range col {
				col[i] = 0
			}
		}
		return
	}
	if left {
		switch {
		case trmmLeftDenseOK(m, n):
			trmmLeftDense(upper, trans, unit, m, n, alpha, a, lda, b, ldb)
		case m > trmmLeafM:
			trmmLeftBlocked(upper, trans, unit, m, n, alpha, a, lda, b, ldb)
		default:
			trmmLeftScalar(upper, trans, unit, m, n, alpha, a, lda, b, ldb)
		}
		return
	}
	// Right side: B := alpha * B * op(A). Process by columns of the result.
	// result[:, j] = alpha * sum_k B[:, k] * op(A)[k, j].
	// op(A)[k, j] = A[k, j] when !trans, A[j, k] when trans.
	tmp := make([]float64, m)
	out := make([]float64, m*n)
	for j := 0; j < n; j++ {
		for i := range tmp {
			tmp[i] = 0
		}
		for k := 0; k < n; k++ {
			var akj float64
			switch {
			case k == j:
				if unit {
					akj = 1
				} else {
					akj = a[k+j*lda]
				}
			case !trans:
				if (upper && k < j) || (!upper && k > j) {
					akj = a[k+j*lda]
				}
			default:
				if (upper && j < k) || (!upper && j > k) {
					akj = a[j+k*lda]
				}
			}
			if akj == 0 {
				continue
			}
			bcol := b[k*ldb : k*ldb+m]
			for i, v := range bcol {
				tmp[i] += v * akj
			}
		}
		ocol := out[j*m : j*m+m]
		for i := range tmp {
			ocol[i] = alpha * tmp[i]
		}
	}
	for j := 0; j < n; j++ {
		copy(b[j*ldb:j*ldb+m], out[j*m:j*m+m])
	}
}

// trmmLeafM is the triangle size below which the recursive left-side Dtrmm
// stops splitting and runs the per-column scalar sweep directly.
const trmmLeafM = 16

// trmmLeftScalar is the unblocked reference: one Dtrmv per column of B.
// Retained both as the recursion leaf and as the oracle for the
// differential Dtrmm tests.
func trmmLeftScalar(upper, trans, unit bool, m, n int, alpha float64,
	a []float64, lda int, b []float64, ldb int) {
	for j := 0; j < n; j++ {
		col := b[j*ldb : j*ldb+m]
		Dtrmv(upper, trans, unit, m, a, lda, col)
		if alpha != 1 {
			for i := range col {
				col[i] *= alpha
			}
		}
	}
}

// trmmLeftBlocked computes B := alpha*op(A)*B by splitting the triangle in
// two: the diagonal blocks recurse and the off-diagonal rectangle becomes a
// Dgemm, which routes the bulk of the flops onto the blocked engine. The
// update order within each case is chosen so every term reads operand rows
// that have not been overwritten yet. The split point depends only on m, so
// the evaluation order — and the bitwise result — is a pure function of the
// operand shape.
func trmmLeftBlocked(upper, trans, unit bool, m, n int, alpha float64,
	a []float64, lda int, b []float64, ldb int) {
	if trmmLeftDenseOK(m, n) {
		trmmLeftDense(upper, trans, unit, m, n, alpha, a, lda, b, ldb)
		return
	}
	if m <= trmmLeafM {
		trmmLeftScalar(upper, trans, unit, m, n, alpha, a, lda, b, ldb)
		return
	}
	// Split rows at h, rounded to the micro-tile height so the Dgemm below
	// sees aligned panels. m > trmmLeafM guarantees 0 < h < m.
	h := (m/2 + kp.mr - 1) / kp.mr * kp.mr
	// Partition A = [A11 A12; A21 A22] with A11 h×h, and B rows as B1/B2.
	a22 := a[h+h*lda:]
	b2 := b[h:]
	switch {
	case upper && !trans:
		// B1 = alpha*(A11·B1 + A12·B2); B2 = alpha*A22·B2. B1 first: it
		// needs the not-yet-updated B2.
		trmmLeftBlocked(upper, trans, unit, h, n, alpha, a, lda, b, ldb)
		Dgemm(false, false, h, n, m-h, alpha, a[h*lda:], lda, b2, ldb, 1, b, ldb)
		trmmLeftBlocked(upper, trans, unit, m-h, n, alpha, a22, lda, b2, ldb)
	case upper && trans:
		// op(A) is lower: B2 = alpha*(A12ᵀ·B1 + A22ᵀ·B2); B1 = alpha*A11ᵀ·B1.
		trmmLeftBlocked(upper, trans, unit, m-h, n, alpha, a22, lda, b2, ldb)
		Dgemm(true, false, m-h, n, h, alpha, a[h*lda:], lda, b, ldb, 1, b2, ldb)
		trmmLeftBlocked(upper, trans, unit, h, n, alpha, a, lda, b, ldb)
	case !upper && !trans:
		// Lower: B2 = alpha*(A21·B1 + A22·B2); B1 = alpha*A11·B1.
		trmmLeftBlocked(upper, trans, unit, m-h, n, alpha, a22, lda, b2, ldb)
		Dgemm(false, false, m-h, n, h, alpha, a[h:], lda, b, ldb, 1, b2, ldb)
		trmmLeftBlocked(upper, trans, unit, h, n, alpha, a, lda, b, ldb)
	default:
		// Lower, trans — op(A) is upper: B1 = alpha*(A11ᵀ·B1 + A21ᵀ·B2);
		// B2 = alpha*A22ᵀ·B2.
		trmmLeftBlocked(upper, trans, unit, h, n, alpha, a, lda, b, ldb)
		Dgemm(true, false, h, n, m-h, alpha, a[h:], lda, b2, ldb, 1, b, ldb)
		trmmLeftBlocked(upper, trans, unit, m-h, n, alpha, a22, lda, b2, ldb)
	}
}

// trmmDenseMaxM bounds the dense-expanded path: triangles up to this size
// cost at most 2x the triangular flops when treated as dense, and the
// micro-kernel's rate advantage over the scalar leaves is far more than 2x.
// Beyond it the wasted zero-half flops start to matter and the recursive
// split (whose off-diagonal Dgemm wastes nothing) wins.
const trmmDenseMaxM = 64

// trmmLeftDenseOK reports whether a left-side m×m triangle applied to m×n B
// should be dense-expanded onto the packed micro-kernel path. Mid-size
// triangles (16 < m ≤ 64) recursing to scalar leaves run at ~1.5 Gflop/s;
// padding the triangle to a dense matrix and running one packed pass is ≥5x
// faster despite the wasted half. The decision depends only on the shape,
// preserving the bitwise-determinism contract.
func trmmLeftDenseOK(m, n int) bool {
	return m > trmmLeafM && m <= trmmDenseMaxM && n >= kp.nr &&
		m*m*n >= blockedThreshold
}

// trmmScratch backs one in-flight dense-expanded Dtrmm: the zero-filled
// dense image of the triangle, its packed form, and the out-of-place
// product (Dtrmm is in-place over B, the packed engine is not).
type trmmScratch struct {
	dense  []float64
	packed []float64
	out    []float64
}

var trmmScratchPool = sync.Pool{New: func() any { return new(trmmScratch) }}

func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

// trmmLeftDense computes B := alpha·op(A)·B by expanding the m×m triangle
// (explicit zeros in the dead half, explicit ones on a unit diagonal) into
// a dense matrix, packing it once with PackLHS, and running a single
// DgemmPackedLHS pass into an out-of-place buffer that is then copied back
// over B. All flops land on the micro-kernel; no scalar leaves remain.
func trmmLeftDense(upper, trans, unit bool, m, n int, alpha float64,
	a []float64, lda int, b []float64, ldb int) {
	sc := trmmScratchPool.Get().(*trmmScratch)
	defer trmmScratchPool.Put(sc)
	d := growFloats(&sc.dense, m*m)
	for i := range d {
		d[i] = 0
	}
	// Copy the stored triangle of A; PackLHS absorbs the transposition.
	for j := 0; j < m; j++ {
		if upper {
			for i := 0; i < j; i++ {
				d[i+j*m] = a[i+j*lda]
			}
		} else {
			for i := j + 1; i < m; i++ {
				d[i+j*m] = a[i+j*lda]
			}
		}
		if unit {
			d[j+j*m] = 1
		} else {
			d[j+j*m] = a[j+j*lda]
		}
	}
	p := growFloats(&sc.packed, PackedLHSLen(m, m))
	PackLHS(trans, m, m, d, m, p)
	out := growFloats(&sc.out, m*n)
	for i := range out {
		out[i] = 0
	}
	DgemmPackedLHS(m, n, m, p, alpha, b, ldb, out, m)
	for j := 0; j < n; j++ {
		copy(b[j*ldb:j*ldb+m], out[j*m:j*m+m])
	}
}

// Dtrsm solves A·X = B for X, overwriting the m×n B: A is m×m upper
// triangular with a non-unit diagonal, the back-substitution through R that
// every least-squares solve runs. A is assumed nonsingular; a zero on its
// diagonal yields ±Inf or NaN in X, not an error.
func Dtrsm(m, n int, a []float64, lda int, b []float64, ldb int) {
	if m <= 0 {
		return
	}
	for j := 0; j < n; j++ {
		x := b[j*ldb : j*ldb+m]
		for i := m - 1; i >= 0; i-- {
			s := x[i]
			for k := i + 1; k < m; k++ {
				s -= a[i+k*lda] * x[k]
			}
			x[i] = s / a[i+i*lda]
		}
	}
}
