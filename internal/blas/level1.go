// Package blas implements the subset of column-major double-precision BLAS
// required by the tile QR kernels: level-1 vector operations, a few level-2
// routines for unblocked Householder updates, and the level-3 routines
// (Dgemm and its pre-packed form, Dtrsm) that dominate the compute time of
// the factorization. Dtrmm is kept for the benchmark probes only.
//
// All matrices are column-major with an explicit leading dimension, matching
// the reference BLAS so the kernel package translates one-to-one from the
// LAPACK formulations. Vectors are contiguous: the kernels pass no other
// kind, so the routines take no increment.
package blas

import "math"

// Level-1 dispatch. The vectors take the assembly bodies of micro_amd64.s
// whenever the active micro-kernel level has them (every level but the
// portable one, so forceKernel and PULSARQR_MICROKERNEL switch them together
// with Dgemm). The *Scalar functions are the portable path: what `noasm` and
// non-amd64 builds run, and the oracle the differential tests hold the vector
// bodies to — the role dgemmScalar plays for Dgemm. Packing (gemm_blocked.go)
// asks the same question of the level.
func vectorBodies() bool { return kp.level != levelGeneric }

// Ddot returns xᵀy over n elements.
func Ddot(n int, x, y []float64) float64 {
	if n <= 0 {
		return 0
	}
	if vectorBodies() {
		return dotFast(x[:n], y[:n])
	}
	return ddotScalar(n, x, y)
}

func ddotScalar(n int, x, y []float64) float64 {
	var s float64
	x, y = x[:n], y[:n]
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// A sum of squares inside (nrm2SafeMin, nrm2SafeMax) neither overflowed nor
// lost a significant term to underflow: every term that matters at 1e-200
// is a normal number, and terms whose squares underflow are below 1e-100 of
// the result.
const (
	nrm2SafeMin = 1e-200
	nrm2SafeMax = 1e200
)

// Dnrm2 returns the Euclidean norm of x over n elements, safe against
// overflow and underflow of the squares.
func Dnrm2(n int, x []float64) float64 {
	if n <= 0 {
		return 0
	}
	if vectorBodies() {
		// One vector pass; the scaled loop below only runs for the inputs
		// that need it (huge, tiny, zero, NaN or Inf entries).
		if ssq := dotFast(x[:n], x[:n]); ssq > nrm2SafeMin && ssq < nrm2SafeMax {
			return math.Sqrt(ssq)
		}
	}
	return dnrm2Scalar(n, x)
}

func dnrm2Scalar(n int, x []float64) float64 {
	scale, ssq := 0.0, 1.0
	for _, v := range x[:n] {
		v = math.Abs(v)
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
	return scale * math.Sqrt(ssq)
}

// Daxpy computes y += alpha*x over n elements.
func Daxpy(n int, alpha float64, x, y []float64) {
	if n <= 0 || alpha == 0 {
		return
	}
	if vectorBodies() {
		axpyFast(alpha, x[:n], y[:n])
		return
	}
	daxpyScalar(n, alpha, x, y)
}

func daxpyScalar(n int, alpha float64, x, y []float64) {
	x, y = x[:n], y[:n]
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Dscal computes x *= alpha over n elements.
func Dscal(n int, alpha float64, x []float64) {
	if n <= 0 {
		return
	}
	if vectorBodies() {
		scalFast(alpha, x[:n])
		return
	}
	dscalScalar(n, alpha, x)
}

func dscalScalar(n int, alpha float64, x []float64) {
	x = x[:n]
	for i := range x {
		x[i] *= alpha
	}
}
