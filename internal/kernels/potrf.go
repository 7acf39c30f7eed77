package kernels

import (
	"fmt"
	"math"

	"pulsarqr/internal/blas"
	"pulsarqr/internal/matrix"
)

// Dpotrf computes the Cholesky factorization A = L·Lᵀ of the symmetric
// positive-definite n×n tile a, storing L in the lower triangle (the
// strictly-upper part is not referenced). It returns an error naming the
// first non-positive pivot when a is not positive definite, matching
// LAPACK's info convention.
func Dpotrf(a *matrix.Mat) error {
	n := a.Rows
	if a.Cols != n {
		return fmt.Errorf("kernels: Dpotrf needs a square tile, got %dx%d", n, a.Cols)
	}
	for j := 0; j < n; j++ {
		// d = a[j][j] − Σ l[j][k]².
		d := a.At(j, j) - blas.Ddot(j, a.Data[j:], a.LD, a.Data[j:], a.LD)
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("kernels: Dpotrf: leading minor of order %d is not positive definite", j+1)
		}
		d = math.Sqrt(d)
		a.Set(j, j, d)
		if j+1 < n {
			// Column below the diagonal: a[i][j] = (a[i][j] − Σ) / d.
			blas.Dgemv(false, n-j-1, j, -1,
				a.Data[j+1:], a.LD, a.Data[j:], a.LD, 1, a.Data[j+1+j*a.LD:], 1)
			blas.Dscal(n-j-1, 1/d, a.Data[j+1+j*a.LD:], 1)
		}
	}
	return nil
}
