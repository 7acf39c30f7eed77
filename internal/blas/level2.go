package blas

// DgemvT computes y += Aᵀ·x for the m×n column-major A with leading
// dimension lda: one Ddot per column, so it takes the level-1 vector bodies
// (and the portable ones under `noasm`) with it.
func DgemvT(m, n int, a []float64, lda int, x, y []float64) {
	if m <= 0 || n <= 0 {
		return
	}
	for j := range y[:n] {
		y[j] += Ddot(m, a[j*lda:j*lda+m], x)
	}
}

// Dlarf applies the elementary reflector H = I − tau·v·vᵀ from the left to
// the m×n matrix c, v holding all m entries of the reflector (its unit head
// stored explicitly). Column by column it is w = Ddot(c_k, v) then
// Daxpy(−tau·w, v, c_k), and a no-op when tau is 0. That loop is the
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
		Daxpy(m, -tau*Ddot(m, ck, v), v, ck)
	}
}

// Dtrmv computes x := op(A)*x for an n×n triangular matrix A.
// upper selects the triangle, trans selects op, unit marks a unit diagonal.
func Dtrmv(upper, trans, unit bool, n int, a []float64, lda int, x []float64) {
	if n <= 0 {
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
