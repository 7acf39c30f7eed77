// Package blas implements the subset of column-major double-precision BLAS
// required by the tile QR kernels: level-1 vector operations, a few level-2
// routines for unblocked Householder updates, and the level-3 routines
// (Dgemm, Dtrmm, Dtrsm) that dominate the compute time of the factorization.
//
// All matrices are column-major with an explicit leading dimension, matching
// the reference BLAS so the kernel package translates one-to-one from the
// LAPACK formulations. Vector arguments take an increment, but the kernels
// only use contiguous vectors (inc == 1), which the implementations fast-path.
package blas

import "math"

// Level-1 dispatch. Contiguous vectors — the only kind the tile kernels
// pass — take the assembly bodies of micro_amd64.s whenever the active
// micro-kernel level has them (every level but the portable one, so
// forceKernel and PULSARQR_MICROKERNEL switch them together with Dgemm).
// The *Scalar functions are the portable path: what `noasm` and non-amd64
// builds run, what strided calls run, and the oracle the differential tests
// hold the vector bodies to — the role dgemmScalar plays for Dgemm. Packing
// (gemm_blocked.go) asks the same question of the level.
func vectorBodies() bool { return kp.level != levelGeneric }

// Ddot returns xᵀy over n elements with increments incX, incY.
func Ddot(n int, x []float64, incX int, y []float64, incY int) float64 {
	if n <= 0 {
		return 0
	}
	if incX == 1 && incY == 1 && vectorBodies() {
		return dotFast(x[:n], y[:n])
	}
	return ddotScalar(n, x, incX, y, incY)
}

func ddotScalar(n int, x []float64, incX int, y []float64, incY int) float64 {
	var s float64
	if incX == 1 && incY == 1 {
		x, y = x[:n], y[:n]
		for i, v := range x {
			s += v * y[i]
		}
		return s
	}
	ix, iy := 0, 0
	for i := 0; i < n; i++ {
		s += x[ix] * y[iy]
		ix += incX
		iy += incY
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

// Dnrm2 returns the Euclidean norm of x, safe against overflow and
// underflow of the squares.
func Dnrm2(n int, x []float64, incX int) float64 {
	if n <= 0 {
		return 0
	}
	if incX == 1 && vectorBodies() {
		// One vector pass; the scaled loop below only runs for the inputs
		// that need it (huge, tiny, zero, NaN or Inf entries).
		if ssq := dotFast(x[:n], x[:n]); ssq > nrm2SafeMin && ssq < nrm2SafeMax {
			return math.Sqrt(ssq)
		}
	}
	return dnrm2Scalar(n, x, incX)
}

func dnrm2Scalar(n int, x []float64, incX int) float64 {
	scale, ssq := 0.0, 1.0
	ix := 0
	for i := 0; i < n; i++ {
		v := math.Abs(x[ix])
		ix += incX
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
func Daxpy(n int, alpha float64, x []float64, incX int, y []float64, incY int) {
	if n <= 0 || alpha == 0 {
		return
	}
	if incX == 1 && incY == 1 && vectorBodies() {
		axpyFast(alpha, x[:n], y[:n])
		return
	}
	daxpyScalar(n, alpha, x, incX, y, incY)
}

func daxpyScalar(n int, alpha float64, x []float64, incX int, y []float64, incY int) {
	if incX == 1 && incY == 1 {
		x, y = x[:n], y[:n]
		for i, v := range x {
			y[i] += alpha * v
		}
		return
	}
	ix, iy := 0, 0
	for i := 0; i < n; i++ {
		y[iy] += alpha * x[ix]
		ix += incX
		iy += incY
	}
}

// Dscal computes x *= alpha over n elements.
func Dscal(n int, alpha float64, x []float64, incX int) {
	if n <= 0 {
		return
	}
	if incX == 1 && vectorBodies() {
		scalFast(alpha, x[:n])
		return
	}
	dscalScalar(n, alpha, x, incX)
}

func dscalScalar(n int, alpha float64, x []float64, incX int) {
	if incX == 1 {
		x = x[:n]
		for i := range x {
			x[i] *= alpha
		}
		return
	}
	ix := 0
	for i := 0; i < n; i++ {
		x[ix] *= alpha
		ix += incX
	}
}

// Dcopy copies x into y over n elements.
func Dcopy(n int, x []float64, incX int, y []float64, incY int) {
	if n <= 0 {
		return
	}
	if incX == 1 && incY == 1 {
		copy(y[:n], x[:n])
		return
	}
	ix, iy := 0, 0
	for i := 0; i < n; i++ {
		y[iy] = x[ix]
		ix += incX
		iy += incY
	}
}

// Idamax returns the index of the element of largest absolute value,
// or -1 when n <= 0.
func Idamax(n int, x []float64, incX int) int {
	if n <= 0 {
		return -1
	}
	best, bi := math.Abs(x[0]), 0
	ix := incX
	for i := 1; i < n; i++ {
		if v := math.Abs(x[ix]); v > best {
			best, bi = v, i
		}
		ix += incX
	}
	return bi
}
