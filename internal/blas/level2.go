package blas

// Dgemv and Dger are column sweeps of Ddot and Daxpy, so they take the
// level-1 vector bodies (and the portable ones under `noasm`) with them.

// Dgemv computes y := alpha*op(A)*x + beta*y where op is the identity when
// trans is false and transposition when trans is true. A is m×n column-major
// with leading dimension lda.
func Dgemv(trans bool, m, n int, alpha float64, a []float64, lda int,
	x []float64, incX int, beta float64, y []float64, incY int) {
	if m <= 0 || n <= 0 {
		return
	}
	ylen := m
	if trans {
		ylen = n
	}
	if beta != 1 {
		if beta == 0 {
			iy := 0
			for i := 0; i < ylen; i++ {
				y[iy] = 0
				iy += incY
			}
		} else {
			Dscal(ylen, beta, y, incY)
		}
	}
	if alpha == 0 {
		return
	}
	if !trans {
		// y += alpha * A * x, column sweep.
		ix := 0
		for j := 0; j < n; j++ {
			t := alpha * x[ix]
			ix += incX
			Daxpy(m, t, a[j*lda:j*lda+m], 1, y, incY)
		}
		return
	}
	// y += alpha * Aᵀ * x, dot products per column.
	iy := 0
	for j := 0; j < n; j++ {
		y[iy] += alpha * Ddot(m, a[j*lda:j*lda+m], 1, x, incX)
		iy += incY
	}
}

// Dger performs the rank-one update A += alpha * x * yᵀ.
func Dger(m, n int, alpha float64, x []float64, incX int,
	y []float64, incY int, a []float64, lda int) {
	if m <= 0 || n <= 0 || alpha == 0 {
		return
	}
	iy := 0
	for j := 0; j < n; j++ {
		Daxpy(m, alpha*y[iy], x, incX, a[j*lda:j*lda+m], 1)
		iy += incY
	}
}

// Dlarf applies the elementary reflector H = I − tau·v·vᵀ from the left to
// the m×n matrix c, v holding all m entries of the reflector (its unit head
// stored explicitly). Column by column it is w = Ddot(c_k, v) then
// Daxpy(−tau·w, v, c_k) — bitwise Dgemv(true, …) followed by Dger(…, −tau,
// …), the pair it replaces, and a no-op when tau is 0. That loop is the
// definition; the avx512-12x8 level runs it as one fused assembly call with
// the same bits.
func Dlarf(m, n int, tau float64, v, c []float64, ldc int) {
	if m <= 0 || n <= 0 || tau == 0 {
		return
	}
	if larfFast(m, n, -tau, v, c, ldc) {
		return
	}
	for k := 0; k < n; k++ {
		ck := c[k*ldc : k*ldc+m]
		Daxpy(m, -tau*Ddot(m, ck, 1, v, 1), v, 1, ck, 1)
	}
}

// Dtrmv computes x := op(A)*x for an n×n triangular matrix A.
// upper selects the triangle, trans selects op, unit marks a unit diagonal.
func Dtrmv(upper, trans, unit bool, n int, a []float64, lda int, x []float64, incX int) {
	if n <= 0 {
		return
	}
	if incX != 1 {
		// The kernels only use contiguous vectors; keep the general case
		// simple and correct by staging through a temporary.
		tmp := make([]float64, n)
		ix := 0
		for i := 0; i < n; i++ {
			tmp[i] = x[ix]
			ix += incX
		}
		Dtrmv(upper, trans, unit, n, a, lda, tmp, 1)
		ix = 0
		for i := 0; i < n; i++ {
			x[ix] = tmp[i]
			ix += incX
		}
		return
	}
	x = x[:n]
	switch {
	case upper && !trans:
		for i := 0; i < n; i++ {
			var s float64
			if unit {
				s = x[i]
			} else {
				s = a[i+i*lda] * x[i]
			}
			for j := i + 1; j < n; j++ {
				s += a[i+j*lda] * x[j]
			}
			x[i] = s
		}
	case upper && trans:
		for i := n - 1; i >= 0; i-- {
			var s float64
			if unit {
				s = x[i]
			} else {
				s = a[i+i*lda] * x[i]
			}
			for j := 0; j < i; j++ {
				s += a[j+i*lda] * x[j]
			}
			x[i] = s
		}
	case !upper && !trans:
		for i := n - 1; i >= 0; i-- {
			var s float64
			if unit {
				s = x[i]
			} else {
				s = a[i+i*lda] * x[i]
			}
			for j := 0; j < i; j++ {
				s += a[i+j*lda] * x[j]
			}
			x[i] = s
		}
	default: // lower, trans
		for i := 0; i < n; i++ {
			var s float64
			if unit {
				s = x[i]
			} else {
				s = a[i+i*lda] * x[i]
			}
			for j := i + 1; j < n; j++ {
				s += a[j+i*lda] * x[j]
			}
			x[i] = s
		}
	}
}
