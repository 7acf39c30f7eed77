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

// applyFused is the packed-engine form of the block-reflector apply shared
// by Dtsmqr/Dttmqr and Dormqr. It applies H = I − V·T·Vᵀ (or Hᵀ — the
// transposition is baked into the pt packing) with every packed operand
// coming from the workspace panel cache. For the TS/TT kernels
// V = [E; V2] with an implicit identity E over the sb rows of c1, and
// pvt/pv pack V2 alone; Dormqr passes c1 == nil and pvt/pv pack its whole
// rows×sb panel, which then meets c2 = the rows of C it spans.
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

func zeroFloats(s []float64) {
	for i := range s {
		s[i] = 0
	}
}
