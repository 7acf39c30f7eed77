// Package batch implements the batched small-matrix QR subsystem: a
// cache-resident fast path for the high-QPS wireless/MIMO workload of
// millions of tiny (≤64×64) decompositions per second, the exact inverse of
// the one-big-matrix shape the VSA is built for.
//
// Below a size threshold a matrix never touches the tree runtime at all: it
// is factorized in place by a Givens-rotation sweep (skinny/tiny shapes) or
// an R-only unblocked Householder factorization (above the crossover) that
// applies each reflector in one fused blas.Dlarf call; both draw every byte
// of scratch from a kernels.Workspace so steady-state factorization
// allocates nothing. Thousands of matrices are packed per
// request (see wire.go), chunked, and dispatched onto the warm pulsar.Pool
// by a work-stealing scheduler (see sched.go) that streams each chunk's
// results back as it completes.
package batch

import (
	"fmt"
	"math"

	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
)

const (
	// MaxDim bounds the matrices the batch path accepts. Anything larger
	// belongs on the VSA path — and admission control should reject an
	// absurd request at the door, not after it has been allocated.
	MaxDim = 256

	// DefaultCrossover is the column count at or below which the Givens
	// sweep beats the Householder path: a Givens rotation touches exactly
	// the two rows it combines, and on a few columns that beats a reflector
	// pass per column (docs/BATCH.md has the measured crossover).
	DefaultCrossover = 12
)

// FactorWS overwrites the m×n matrix a (m ≥ n ≥ 1) with the R factor of its
// QR decomposition: on return the upper triangle holds R, everything below
// the diagonal is zero, and R is sign-canonical (non-negative diagonal) so
// results are comparable across engines — QR is unique only up to the signs
// of R's rows, and the Givens and Householder paths would otherwise disagree.
//
// crossover selects the engine: n ≤ crossover runs the Givens sweep, larger
// matrices the unblocked Householder factorization kernels.Dgeqr2 (crossover
// ≤ 0 takes DefaultCrossover). Its τ comes from ws; a nil ws borrows a
// pooled workspace for the call. Neither T nor the Householder vectors are
// kept — the batch workload wants R (e.g. for RᵀR = AᵀA in MMSE
// equalization), not Q.
func FactorWS(ws *kernels.Workspace, a *matrix.Mat, crossover int) error {
	m, n := a.Rows, a.Cols
	if n < 1 || m < n {
		return fmt.Errorf("batch: matrix is %dx%d; batched factorization requires m >= n >= 1", m, n)
	}
	if m > MaxDim {
		return fmt.Errorf("batch: matrix is %dx%d; the batch path caps at %d (use /v1/factorize)", m, n, MaxDim)
	}
	if crossover <= 0 {
		crossover = DefaultCrossover
	}
	if n <= crossover {
		givensQR(a)
	} else {
		if ws == nil {
			ws = kernels.BorrowWorkspace()
			defer kernels.ReturnWorkspace(ws)
		}
		kernels.Dgeqr2(a, ws.Aux(0, n, 1).Data)
		// Drop the Householder vectors: the wire carries a clean R.
		for j := 0; j < n; j++ {
			col := a.Data[j*a.LD : j*a.LD+m]
			for i := j + 1; i < m; i++ {
				col[i] = 0
			}
		}
	}
	canonicalizeR(a)
	return nil
}

// Factor is FactorWS with a borrowed workspace and the default crossover.
func Factor(a *matrix.Mat) error { return FactorWS(nil, a, 0) }

// givensQR triangularizes a in place with Givens rotations: column by
// column, each subdiagonal entry is annihilated by a rotation of its row
// against the diagonal row. Rotations touch only the trailing columns of
// the two rows involved, so for skinny shapes the whole working set is two
// rows — cache-resident by construction. The computed diagonal entries are
// non-negative (r = +hypot), except where a column needed no elimination.
func givensQR(a *matrix.Mat) {
	m, n, ld, d := a.Rows, a.Cols, a.LD, a.Data
	for j := 0; j < n; j++ {
		for i := j + 1; i < m; i++ {
			y := d[i+j*ld]
			if y == 0 {
				continue
			}
			x := d[j+j*ld]
			r := math.Hypot(x, y)
			c, s := x/r, y/r
			d[j+j*ld], d[i+j*ld] = r, 0
			for k := j + 1; k < n; k++ {
				u, v := d[j+k*ld], d[i+k*ld]
				d[j+k*ld] = c*u + s*v
				d[i+k*ld] = c*v - s*u
			}
		}
	}
}

// canonicalizeR flips the sign of any R row whose diagonal entry is
// negative, making diag(R) ≥ 0 — the canonical representative of the QR
// equivalence class. (Q absorbs the flip; only R is reported.)
func canonicalizeR(a *matrix.Mat) {
	n := a.Cols
	for i := 0; i < n; i++ {
		if a.At(i, i) < 0 {
			for j := i; j < n; j++ {
				a.Set(i, j, -a.At(i, j))
			}
		}
	}
}

// Canonicalize applies the batch path's sign convention (diag(R) ≥ 0) to an
// externally computed R, for elementwise comparison against batch results.
func Canonicalize(r *matrix.Mat) { canonicalizeR(r) }
