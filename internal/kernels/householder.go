// Package kernels implements the six tile kernels of the tree-based QR
// factorization — Dgeqrt, Dormqr, Dtsqrt, Dtsmqr, Dttqrt, Dttmqr — plus the
// Householder primitives they are built from. These are functional
// equivalents of the PLASMA core_blas kernels referenced by the paper.
//
// Conventions (all matrices column-major, tiles from package matrix):
//
//   - A factored tile holds R in its upper triangle and the Householder
//     vectors V (unit lower-trapezoidal, implicit ones on the diagonal)
//     below it.
//   - T factors are stored as an ib×n matrix: for the column block starting
//     at column j with width sb = min(ib, n−j), T[0:sb, j:j+sb] is the
//     upper-triangular block-reflector factor, so a block reflector is
//     H = I − V·T·Vᵀ.
//   - Dtsqrt factors a pair [R; A2] with R n×n upper triangular on top; the
//     top parts of its reflectors are implicit identity columns and only the
//     dense V2 part is stored in A2. Dttqrt is the same with A2 (and hence
//     V2) upper triangular, at roughly half the flops.
package kernels

import (
	"math"

	"pulsarqr/internal/blas"
	"pulsarqr/internal/matrix"
)

// dlarfgSafmin is LAPACK's dlamch('S')/dlamch('E'), 2⁻⁹⁶⁹: a β below it
// leaves 1/(α−β) one rounding away from overflow.
const dlarfgSafmin = 0x1p-1022 / 0x1p-53

// Dlarfg generates an elementary Householder reflector H such that
// H · [alpha; x] = [beta; 0] with H = I − tau·v·vᵀ and v = [1; x_out].
// alpha is updated to beta and x is overwritten with the tail of v.
// The returned tau is zero when no reflection is needed (H = I).
//
// A column of subnormal scale is rescaled first, as LAPACK's dlarfg does:
// while |β| < dlarfgSafmin, x and α are multiplied by 1/dlarfgSafmin (a power
// of two, so exactly) at most 20 times, the reflector is built at that scale
// and β is scaled back. Normal inputs never take the branch.
func Dlarfg(alpha *float64, x []float64) (tau float64) {
	xnorm := blas.Dnrm2(len(x), x)
	if xnorm == 0 {
		return 0
	}
	a := *alpha
	beta := -math.Copysign(math.Hypot(a, xnorm), a)
	knt := 0
	if math.Abs(beta) < dlarfgSafmin {
		for {
			knt++
			blas.Dscal(len(x), 1/dlarfgSafmin, x)
			beta *= 1 / dlarfgSafmin
			a *= 1 / dlarfgSafmin
			if math.Abs(beta) >= dlarfgSafmin || knt == 20 {
				break
			}
		}
		xnorm = blas.Dnrm2(len(x), x)
		beta = -math.Copysign(math.Hypot(a, xnorm), a)
	}
	tau = (beta - a) / beta
	blas.Dscal(len(x), 1/(a-beta), x)
	for ; knt > 0; knt-- {
		beta *= dlarfgSafmin
	}
	*alpha = beta
	return tau
}

// Dgeqr2 computes the unblocked Householder QR of the m×n panel view a
// (m ≥ 1), storing R on and above the diagonal and the reflectors below it;
// tau must have length ≥ min(m, n). Each reflector reaches the trailing
// columns in one blas.Dlarf call. It is Dgeqrt's inner-block factor and, R
// only, the batch engine above the Givens crossover; it needs no scratch.
func Dgeqr2(a *matrix.Mat, tau []float64) {
	m, n, ld := a.Rows, a.Cols, a.LD
	k := min(m, n)
	for j := 0; j < k; j++ {
		col := a.Data[j+j*ld:]
		tau[j] = Dlarfg(&col[0], col[1:m-j])
		if tau[j] != 0 && j+1 < n {
			// Apply H = I − tau v vᵀ to a[j:m, j+1:n] with v = [1; col tail].
			d := col[0]
			col[0] = 1
			blas.Dlarf(m-j, n-j-1, tau[j], col[:m-j], a.Data[j+(j+1)*ld:], ld)
			col[0] = d
		}
	}
}

// dlarft forms the upper-triangular factor T of the block reflector
// H = I − V·T·Vᵀ for k forward, columnwise reflectors. v is m×k unit
// lower-trapezoidal (stored entries below the diagonal), t is at least k×k,
// work must have length ≥ k.
func dlarft(v *matrix.Mat, tau []float64, t *matrix.Mat, work []float64) {
	m, k := v.Rows, len(tau)
	for i := 0; i < k; i++ {
		if tau[i] == 0 {
			for l := 0; l <= i; l++ {
				t.Set(l, i, 0)
			}
			continue
		}
		if i > 0 {
			w := work[:i]
			// w = V[:, 0:i]ᵀ · v_i with v_i = e_i + V[i+1:m, i].
			for l := 0; l < i; l++ {
				w[l] = v.At(i, l)
			}
			if i+1 < m {
				blas.DgemvT(m-i-1, i, v.Data[i+1:], v.LD, v.Data[i+1+i*v.LD:], w)
			}
			// T[0:i, i] = −tau_i · T[0:i, 0:i] · w
			blas.Dtrmv(true, false, false, i, t.Data, t.LD, w)
			for l := 0; l < i; l++ {
				t.Set(l, i, -tau[i]*w[l])
			}
		}
		t.Set(i, i, tau[i])
	}
}
