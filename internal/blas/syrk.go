package blas

import "sync"

// Dsyrk performs the symmetric rank-k update C := alpha·A·Aᵀ + beta·C
// (trans=false) or C := alpha·Aᵀ·A + beta·C (trans=true), touching only
// the selected triangle of the n×n matrix C. A is n×k (or k×n when
// trans). Needed by the tile Cholesky factorization.
//
// Shapes that amortize panel packing are blocked over Dgemm (see
// dsyrkBlocked); the rest run the scalar loops of dsyrkScalar. As with
// Dgemm the routing depends only on (n, k), so the summation order is a
// pure function of the operand shapes.
func Dsyrk(upper, trans bool, n, k int, alpha float64, a []float64, lda int,
	beta float64, c []float64, ldc int) {
	if n <= 0 {
		return
	}
	if alpha == 0 || k <= 0 || !useBlocked(n, n, k) {
		dsyrkScalar(upper, trans, n, k, alpha, a, lda, beta, c, ldc)
		return
	}
	scaleTriangle(upper, n, beta, c, ldc)
	dsyrkBlocked(upper, trans, n, k, alpha, a, lda, c, ldc)
}

// syrkNB is the width of dsyrkBlocked's column blocks. It is a multiple of
// every micro-kernel's MR and NR, so no block of a large C has ragged
// register tiles. Narrower blocks throw away less of each diagonal block but
// repack op(A) once per block column; 96 measured fastest of 48/96/192 on
// both a tall (4096×256) and a wide (2048×1024) AᵀA.
const syrkNB = 96

// syrkDiagPool recycles the scratch a diagonal block is formed in.
var syrkDiagPool = sync.Pool{New: func() any { return new([syrkNB * syrkNB]float64) }}

// dsyrkBlocked accumulates alpha·op(A)·op(A)ᵀ into the selected triangle of
// C (already scaled by beta), one syrkNB-wide block column at a time: the
// rectangle beside the diagonal block is a plain Dgemm into C, and the
// diagonal block is a full Dgemm into scratch whose triangle is then folded
// into C, so every flop runs on the blocked engine and the other triangle of
// C is never written.
func dsyrkBlocked(upper, trans bool, n, k int, alpha float64, a []float64, lda int,
	c []float64, ldc int) {
	tmp := syrkDiagPool.Get().(*[syrkNB * syrkNB]float64)
	defer syrkDiagPool.Put(tmp)
	// rows returns op(A) from its row i on: a column offset when A is
	// stored transposed, a row offset otherwise.
	rows := func(i int) []float64 {
		if trans {
			return a[i*lda:]
		}
		return a[i:]
	}
	for j0 := 0; j0 < n; j0 += syrkNB {
		w := min(syrkNB, n-j0)
		i0, h := 0, j0 // upper: the rows above the diagonal block
		if !upper {
			i0, h = j0+w, n-j0-w // lower: the rows below it
		}
		if h > 0 {
			Dgemm(trans, !trans, h, w, k, alpha, rows(i0), lda, rows(j0), lda, 1, c[i0+j0*ldc:], ldc)
		}
		Dgemm(trans, !trans, w, w, k, alpha, rows(j0), lda, rows(j0), lda, 0, tmp[:], w)
		for j := 0; j < w; j++ {
			lo, hi := j, w
			if upper {
				lo, hi = 0, j+1
			}
			col := c[j0+(j0+j)*ldc:]
			for i := lo; i < hi; i++ {
				col[i] += tmp[i+j*w]
			}
		}
	}
}

// scaleTriangle applies C := beta·C over the selected triangle.
func scaleTriangle(upper bool, n int, beta float64, c []float64, ldc int) {
	if beta == 1 {
		return
	}
	for j := 0; j < n; j++ {
		lo, hi := j, n // lower: rows j..n-1
		if upper {
			lo, hi = 0, j+1
		}
		col := c[j*ldc:]
		if beta == 0 {
			for i := lo; i < hi; i++ {
				col[i] = 0
			}
		} else {
			for i := lo; i < hi; i++ {
				col[i] *= beta
			}
		}
	}
}

// dsyrkScalar is the unblocked reference implementation, kept both as the
// small-shape path and as the oracle the differential tests pit the blocked
// path against.
func dsyrkScalar(upper, trans bool, n, k int, alpha float64, a []float64, lda int,
	beta float64, c []float64, ldc int) {
	scaleTriangle(upper, n, beta, c, ldc)
	if alpha == 0 || k <= 0 {
		return
	}
	if !trans {
		// C += alpha * A*Aᵀ: rank-1 sweeps over A's columns.
		for l := 0; l < k; l++ {
			acol := a[l*lda : l*lda+n]
			for j := 0; j < n; j++ {
				t := alpha * acol[j]
				if t == 0 {
					continue
				}
				ccol := c[j*ldc:]
				if upper {
					for i := 0; i <= j; i++ {
						ccol[i] += t * acol[i]
					}
				} else {
					for i := j; i < n; i++ {
						ccol[i] += t * acol[i]
					}
				}
			}
		}
		return
	}
	// C += alpha * Aᵀ*A with A stored k×n: dot products of A's columns.
	for j := 0; j < n; j++ {
		ccol := c[j*ldc:]
		aj := a[j*lda : j*lda+k]
		lo, hi := j, n
		if upper {
			lo, hi = 0, j+1
		}
		for i := lo; i < hi; i++ {
			ai := a[i*lda : i*lda+k]
			var s float64
			for l := range aj {
				s += ai[l] * aj[l]
			}
			ccol[i] += alpha * s
		}
	}
}
