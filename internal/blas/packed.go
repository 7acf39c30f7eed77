package blas

// Pre-packed left-hand-side API. The blocked engine re-packs op(A) on every
// call; callers that apply one operand to several right-hand sides (the
// fused block-reflector apply walks C in column slabs) can pack it once with
// PackLHS and replay it through DgemmPackedLHS. The packed layout is exactly
// what dgemmBlocked builds internally — KC-deep blocks of zero-padded MR-row
// panels, with MC a multiple of MR so block boundaries land on panel
// boundaries — and DgemmPackedLHS drives the same macroKernel over it, so
// for a given shape the result is bitwise identical to an unpacked
// Dgemm(beta=1) through the blocked path. The layout is only meaningful to
// the kernel geometry that produced it.

// PackedLHSLen returns the []float64 length PackLHS needs for an m×k
// op(A) under the active micro-kernel's packing geometry.
func PackedLHSLen(m, k int) int {
	mr := kp.mr
	return (m + mr - 1) / mr * mr * k
}

// PackLHS packs op(A) — a is m×k when !trans, k×m when trans — into dst,
// which must hold PackedLHSLen(m, k) elements. The packing absorbs the
// transposition, so DgemmPackedLHS has no trans parameter.
func PackLHS(trans bool, m, k int, a []float64, lda int, dst []float64) {
	mr := kp.mr
	mRound := (m + mr - 1) / mr * mr
	off := 0
	for pc := 0; pc < k; pc += kp.kc {
		kc := min(kp.kc, k-pc)
		packA(dst[off:], trans, a, lda, 0, pc, m, kc)
		off += mRound * kc
	}
}

// DgemmPackedLHS computes C += P·(alpha·B) where P is the m×k op(A) packed
// into ap by PackLHS, B is k×n with leading dimension ldb, and C is m×n
// with leading dimension ldc. alpha is folded into the B packing exactly
// as in dgemmBlocked.
func DgemmPackedLHS(m, n, k int, ap []float64, alpha float64,
	b []float64, ldb int, c []float64, ldc int) {
	if m <= 0 || n <= 0 || k <= 0 || alpha == 0 {
		return
	}
	mr := kp.mr
	mRound := (m + mr - 1) / mr * mr
	sc := gemmScratchPool.Get().(*gemmScratch)
	defer gemmScratchPool.Put(sc)
	for jc := 0; jc < n; jc += kp.nc {
		nc := min(kp.nc, n-jc)
		off := 0
		for pc := 0; pc < k; pc += kp.kc {
			kc := min(kp.kc, k-pc)
			packB(sc.bp, false, b, ldb, alpha, pc, jc, kc, nc)
			for ic := 0; ic < m; ic += kp.mc {
				mc := min(kp.mc, m-ic)
				// Panels for rows [ic, ic+mc) of this KC block start at
				// element ic·kc: mc is a multiple of mr except at the
				// fringe, so panel index ic/mr × (mr·kc) = ic·kc.
				macroKernel(ap[off+ic*kc:], sc.bp, mc, nc, kc, c[ic+jc*ldc:], ldc)
			}
			off += mRound * kc
		}
	}
}
