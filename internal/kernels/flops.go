package kernels

// Flop counts for the tile kernels. These follow the operation counts of
// the implementations in this package (including T-factor formation) and
// are used by the discrete-event simulator to cost tasks. Reported Gflop/s
// figures divide the conventional factorization count FlopsQR by time, as
// is customary for tree-based QR, so the extra flops of the TT kernels show
// up as time, never as inflated rates.

// FlopsQR is the conventional flop count of a Householder QR of an m×n
// matrix: 2n²(m − n/3).
func FlopsQR(m, n int) float64 {
	fm, fn := float64(m), float64(n)
	return 2 * fn * fn * (fm - fn/3)
}

// FlopsGeqrt counts DgeqrtWS on an m×n tile: the factorization itself plus
// block T formation.
func FlopsGeqrt(m, n int) float64 {
	fm, fn := float64(m), float64(n)
	k := fn
	if fm < fn {
		k = fm
	}
	// Factor: 2k²(m − k/3) + low order; T: ≈ k²(m − k/3).
	return 3 * k * k * (fm - k/3)
}

// FlopsOrmqr counts DormqrWS applying k reflectors of height m to an m×n
// tile (both triangular and rectangular gemm parts plus the T multiply).
func FlopsOrmqr(m, n, k int) float64 {
	fm, fn, fk := float64(m), float64(n), float64(k)
	return 4*fm*fk*fn - fk*fk*fn
}

// FlopsTsqrt counts DtsqrtWS on [R n×n; A2 m2×n]: trailing updates plus T.
func FlopsTsqrt(m2, n int) float64 {
	fm, fn := float64(m2), float64(n)
	return 3 * fm * fn * fn
}

// FlopsTsmqr counts DtsmqrWS applying k reflectors with dense part height m2
// to a pair of tiles with nc columns.
func FlopsTsmqr(m2, k, nc int) float64 {
	fm, fk, fc := float64(m2), float64(k), float64(nc)
	return 4*fm*fk*fc + fk*fk*fc
}

// FlopsTtqrt counts DttqrtWS on two stacked n×n triangles; roughly half the
// TS cost thanks to the triangular reflectors.
func FlopsTtqrt(n int) float64 {
	fn := float64(n)
	return (4.0 / 3.0) * fn * fn * fn
}

// FlopsTtmqr counts DttmqrWS with k triangular reflectors applied to a pair
// of tiles with nc columns.
func FlopsTtmqr(k, nc int) float64 {
	fk, fc := float64(k), float64(nc)
	return 3 * fk * fk * fc
}
