package kernels

import (
	"pulsarqr/internal/blas"
	"pulsarqr/internal/matrix"
)

// fusedNC is the column-slab width of the fused block-reflector apply. It
// is a multiple of both micro-kernel NR geometries (6 and 8) so slab
// boundaries land on packed-panel boundaries, and narrow enough that a
// slab of C2 plus the W panels stay cache-resident between the W-build
// pass that reads them and the update pass that writes them.
const fusedNC = 192

// applyFused is the one block-reflector apply of all six tile kernels: the
// update kernels Dormqr, Dtsmqr and Dttmqr, and the trailing update inside
// each panel of Dgeqrt, Dtsqrt and Dttqrt, reached through ormqrBlock and
// tsmqrBlock. It applies H = I − V·T·Vᵀ (or Hᵀ — the transposition is baked
// into the pt packing) with every operand packed by the pack* functions
// below into the workspace. For the TS/TT kernels V = [E; V2] with an
// implicit identity E over the sb rows of c1, and pvt/pv pack V2 alone;
// ormqrBlock passes c1 == nil and pvt/pv pack its whole rows×sb panel,
// which then meets c2 = the rows of C it spans.
//
// Where the classic formulation makes two full passes over C2 (one Dgemm
// reading it into W, a second writing the update) plus three triangular
// multiplies on scalar leaves, this walks C in fusedNC-wide column slabs
// and performs the whole chain — W build, T application, update — per
// slab, so each C2 slab is read and rewritten while still hot and every
// flop lands on the micro-kernel:
//
//	W  = C1ₛ (zero without an identity top)
//	W += Vᵀ·C2ₛ
//	W2 = op(T)·W
//	C1ₛ -= W2
//	C2ₛ -= V·W2
//
// Slab boundaries depend only on the shape, and per-column GEMM summation
// order is independent of the column-slab split, so the result is bitwise
// identical across slab widths and to an unfused packed pass.
func applyFused(ws *Workspace, pvt, pv, pt []float64, sb, rows int, c1, c2 *matrix.Mat) {
	nc := c2.Cols
	if nc == 0 || sb == 0 {
		return
	}
	for js := 0; js < nc; js += fusedNC {
		fw := min(fusedNC, nc-js)
		w := matInto(&ws.wMat, &ws.wbuf, sb, fw)
		w2 := matInto(&ws.w2Mat, &ws.w2buf, sb, fw)
		if c1 == nil {
			zeroFloats(w.Data[:sb*fw])
		} else {
			for jc := 0; jc < fw; jc++ {
				copy(w.Data[jc*w.LD:jc*w.LD+sb], c1.Data[(js+jc)*c1.LD:(js+jc)*c1.LD+sb])
			}
		}
		// W += Vᵀ·C2 slab.
		if rows > 0 {
			blas.DgemmPackedLHS(sb, fw, rows, pvt, 1, c2.Data[js*c2.LD:], c2.LD, w.Data, w.LD)
		}
		// W2 = op(T)·W.
		zeroFloats(w2.Data[:sb*fw])
		blas.DgemmPackedLHS(sb, fw, sb, pt, 1, w.Data, w.LD, w2.Data, w2.LD)
		if c1 != nil {
			for jc := 0; jc < fw; jc++ {
				ccol := c1.Data[(js+jc)*c1.LD : (js+jc)*c1.LD+sb]
				wcol := w2.Data[jc*w2.LD : jc*w2.LD+sb]
				for i := range wcol {
					ccol[i] -= wcol[i]
				}
			}
		}
		// C2 slab -= V·W2, closing the pass while the slab is still hot.
		if rows > 0 {
			blas.DgemmPackedLHS(rows, fw, sb, pv, -1, w2.Data, w2.LD, c2.Data[js*c2.LD:], c2.LD)
		}
	}
}

// Each firing packs its own operands. There is no cache of packings across
// firings: the systolic array forwards every (V, T) pair before applying it,
// so one worker's update sweeps of different tile rows interleave, and a
// per-worker cache of one sweep hit 1.2 % of its lookups on a 2048×1024
// factorization (docs/KERNELS.md §4). The buffers below are scratch, one per
// operand, fully overwritten by every pack.

// packV2Panels packs V2ᵀ and V2 for the rows×sb reflector block of a TS/TT
// kernel whose first column is column j of v2. In the triangular case the
// stored column heights vary and the entries below them may hold unrelated
// data, so the pack reads a zero-padded copy (v2Block) — the packed panel
// depends only on stored reflector data either way.
func (ws *Workspace) packV2Panels(v2 *matrix.Mat, j, sb, rows int, tri bool) (pv2t, pv2 []float64) {
	pv2t = grow(&ws.pvt, blas.PackedLHSLen(sb, rows))
	pv2 = grow(&ws.pv, blas.PackedLHSLen(rows, sb))
	src, lda := v2.Data[j*v2.LD:], v2.LD
	if tri {
		c := v2Block(ws, v2, j, sb, rows)
		src, lda = c.Data, c.LD
	}
	blas.PackLHS(true, sb, rows, src, lda, pv2t)
	blas.PackLHS(false, rows, sb, src, lda, pv2)
	return pv2t, pv2
}

// packTPanel packs op(T) for the sb×sb upper-triangular block factor at
// columns [j, j+sb) of t, dense-expanded (explicit zeros below the diagonal)
// so the triangular multiply of the block-reflector apply lands on the
// micro-kernel instead of Dtrmv leaves.
func (ws *Workspace) packTPanel(t *matrix.Mat, j, sb int, trans bool) []float64 {
	d := grow(&ws.pdense, sb*sb)
	for l := 0; l < sb; l++ {
		col := d[l*sb : l*sb+sb]
		src := t.Data[(j+l)*t.LD:]
		for i := 0; i <= l; i++ {
			col[i] = src[i]
		}
		for i := l + 1; i < sb; i++ {
			col[i] = 0
		}
	}
	pt := grow(&ws.pt, blas.PackedLHSLen(sb, sb))
	blas.PackLHS(trans, sb, sb, d, sb, pt)
	return pt
}

// packVPanels packs Vᵀ and V for the rows×sb reflector panel of an ormqr
// apply whose diagonal block sits at (j, j) of v: the unit-lower diagonal
// block dense-expanded (explicit unit diagonal, zeros above — the stored
// upper triangle is R, not reflector data) on top of the sub-diagonal block,
// as one operand. One panel instead of a diagonal block and a sub-diagonal
// block halves the GEMM calls of the apply.
func (ws *Workspace) packVPanels(v *matrix.Mat, j, sb, rows int) (pvt, pv []float64) {
	d := grow(&ws.pdense, rows*sb)
	for l := 0; l < sb; l++ {
		col := d[l*rows : (l+1)*rows]
		src := v.Data[j+(j+l)*v.LD:]
		for i := 0; i < l; i++ {
			col[i] = 0
		}
		col[l] = 1
		copy(col[l+1:], src[l+1:rows])
	}
	pvt = grow(&ws.pvt, blas.PackedLHSLen(sb, rows))
	pv = grow(&ws.pv, blas.PackedLHSLen(rows, sb))
	blas.PackLHS(true, sb, rows, d, rows, pvt)
	blas.PackLHS(false, rows, sb, d, rows, pv)
	return pvt, pv
}

func zeroFloats(s []float64) {
	for i := range s {
		s[i] = 0
	}
}
