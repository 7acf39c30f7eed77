package qr

import (
	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/quark"
)

// Factorize computes the tree-based tile QR of a in place and returns the
// factorization. It is the sequential reference implementation: it executes
// the exact kernel sequence the 3D VSA executes (same plan, same per-datum
// order), so the two produce bitwise-comparable results.
//
// b, when non-nil, is a tiled set of ride-along right-hand-side columns
// (same tile size and row count as a): it receives every trailing-matrix
// update but never enters panel factorization, leaving it equal to QᵀB —
// exactly how the VSA computes least-squares solutions without a second
// pass.
//
// The reference is one worker, so an unset opts.H resolves to one domain
// per panel (Resolve); to reproduce another engine's run, pass that run's
// resolved Factorization.Opts.
func Factorize(a *matrix.Tiled, b *matrix.Tiled, opts Options) (*Factorization, error) {
	// One workspace for the whole factorization: the reference runs each
	// call of the walk at once, in program order, on one goroutine.
	ws := kernels.NewWorkspace()
	run := func(_ string, call func(*kernels.Workspace), _ ...quark.Dep) { call(ws) }
	return walk(a, b, opts.Resolve(a.MT, 1), run, func() {})
}
