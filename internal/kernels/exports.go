package kernels

import "pulsarqr/internal/matrix"

// Dgeqr2 computes the unblocked Householder QR of the m×n panel a,
// storing R on and above the diagonal and the reflectors below it; tau
// receives min(m,n) scaling factors. Exported as the independent oracle the
// batch engines are tested against.
func Dgeqr2(a *matrix.Mat, tau []float64) {
	ws := wsPool.Get().(*Workspace)
	defer wsPool.Put(ws)
	dgeqr2(a, tau, grow(&ws.work, max(a.Rows, a.Cols)))
}
