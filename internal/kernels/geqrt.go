package kernels

import (
	"fmt"

	"pulsarqr/internal/matrix"
)

// Dgeqrt computes the blocked QR factorization of the m×n tile a with inner
// block size ib. On exit a holds R in its upper triangle and the Householder
// vectors below the diagonal; t (ib×n, at least ib×min(m,n)) holds the
// upper-triangular block-reflector factors, one sb×sb block per column block.
// Scratch comes from a pooled Workspace; callers that hold one should use
// DgeqrtWS.
func Dgeqrt(ib int, a, t *matrix.Mat) {
	DgeqrtWS(nil, ib, a, t)
}

// DgeqrtWS is Dgeqrt drawing its scratch from ws. A nil ws borrows a
// pooled workspace for the duration of the call.
func DgeqrtWS(ws *Workspace, ib int, a, t *matrix.Mat) {
	if ws == nil {
		ws = wsPool.Get().(*Workspace)
		defer wsPool.Put(ws)
	}
	m, n := a.Rows, a.Cols
	k := min(m, n)
	if k == 0 {
		return
	}
	if ib <= 0 {
		panic(fmt.Sprintf("kernels: Dgeqrt ib=%d", ib))
	}
	if t.Rows < min(ib, k) || t.Cols < k {
		panic(fmt.Sprintf("kernels: Dgeqrt T %dx%d too small for ib=%d k=%d",
			t.Rows, t.Cols, ib, k))
	}
	tau := grow(&ws.tau, ib)
	work := grow(&ws.work, ib)
	for j := 0; j < k; j += ib {
		sb := min(ib, k-j)
		panel := a.ViewInto(&ws.vView, j, j, m-j, sb)
		Dgeqr2(panel, tau[:sb])
		tb := t.ViewInto(&ws.tView, 0, j, sb, sb)
		dlarft(panel, tau[:sb], tb, work)
		if j+sb < n {
			ormqrBlock(ws, true, a, t, j, sb, a.ViewInto(&ws.c2View, j, j+sb, m-j, n-j-sb))
		}
	}
}

// Dormqr applies Q (trans=false) or Qᵀ (trans=true) to the m×n matrix c
// from the left, where the reflectors are stored in v (m×nv, k=min(m,nv)
// reflectors, output of Dgeqrt) with block factors in t (ib×k).
func Dormqr(trans bool, ib int, v, t, c *matrix.Mat) {
	DormqrWS(nil, trans, ib, v, t, c)
}

// DormqrWS is Dormqr drawing its scratch from ws (nil borrows a pooled one).
func DormqrWS(ws *Workspace, trans bool, ib int, v, t, c *matrix.Mat) {
	if ws == nil {
		ws = wsPool.Get().(*Workspace)
		defer wsPool.Put(ws)
	}
	m, n := c.Rows, c.Cols
	if v.Rows != m {
		panic(fmt.Sprintf("kernels: Dormqr v rows %d != c rows %d", v.Rows, m))
	}
	k := min(v.Rows, v.Cols)
	if k == 0 || n == 0 {
		return
	}
	apply := func(j int) {
		ormqrBlock(ws, trans, v, t, j, min(ib, k-j), c.ViewInto(&ws.c2View, j, 0, m-j, n))
	}
	// Column blocks forward for Qᵀ, backward for Q.
	if trans {
		for j := 0; j < k; j += ib {
			apply(j)
		}
	} else {
		for j := (k - 1) / ib * ib; j >= 0; j -= ib {
			apply(j)
		}
	}
}

// ormqrBlock applies the block reflector of the sb reflectors whose
// diagonal block sits at (j, j) of v — H, or Hᵀ when trans — to c, the rows
// of the target the reflectors span (row j on). It is the one block step of
// Dormqr and of Dgeqrt's trailing update: the reflector panel (unit-lower
// diagonal block dense-expanded) and op(T) are packed, so the whole chain
// runs on the packed micro-kernel.
func ormqrBlock(ws *Workspace, trans bool, v, t *matrix.Mat, j, sb int, c *matrix.Mat) {
	pvt, pv := ws.packVPanels(v, j, sb, c.Rows)
	pt := ws.packTPanel(t, j, sb, trans)
	applyFused(ws, pvt, pv, pt, sb, c.Rows, nil, c)
}
