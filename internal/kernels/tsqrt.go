package kernels

import (
	"fmt"

	"pulsarqr/internal/blas"
	"pulsarqr/internal/matrix"
)

// Dtsqrt computes the QR factorization of the stacked pair [A1; A2] where
// a1 is n×n upper triangular (the R factor of an already-factored tile) and
// a2 is a full m2×n tile. On exit a1 holds the updated R, a2 holds the
// dense parts V2 of the reflectors (the top parts are implicit identity
// columns), and t (ib×n) holds the block-reflector factors.
//
// Only the upper triangle of a1 is read or written, so reflector vectors
// stored below a1's diagonal by an earlier Dgeqrt survive intact.
func Dtsqrt(ib int, a1, a2, t *matrix.Mat) {
	DtsqrtWS(nil, ib, a1, a2, t)
}

// DtsqrtWS is Dtsqrt drawing its scratch from ws (nil borrows a pooled one).
func DtsqrtWS(ws *Workspace, ib int, a1, a2, t *matrix.Mat) {
	if ws == nil {
		ws = wsPool.Get().(*Workspace)
		defer wsPool.Put(ws)
	}
	tsqrtGeneric(ws, ib, a1, a2, t, false)
}

// Dttqrt is Dtsqrt for the case where the relevant content of a2 is also
// upper triangular (the meeting of two R factors in a reduction tree). The
// reflector parts V2 stay upper triangular, which roughly halves the flops.
// The strictly-lower part of a2 is neither read nor written, so Householder
// vectors stored there by an earlier Dgeqrt survive intact.
func Dttqrt(ib int, a1, a2, t *matrix.Mat) {
	DttqrtWS(nil, ib, a1, a2, t)
}

// DttqrtWS is Dttqrt drawing its scratch from ws (nil borrows a pooled one).
func DttqrtWS(ws *Workspace, ib int, a1, a2, t *matrix.Mat) {
	if ws == nil {
		ws = wsPool.Get().(*Workspace)
		defer wsPool.Put(ws)
	}
	tsqrtGeneric(ws, ib, a1, a2, t, true)
}

func tsqrtGeneric(ws *Workspace, ib int, a1, a2, t *matrix.Mat, tri bool) {
	n, m2 := a1.Cols, a2.Rows
	if a1.Rows < n {
		panic(fmt.Sprintf("kernels: tsqrt a1 %dx%d not at least square", a1.Rows, n))
	}
	if a2.Cols != n {
		panic(fmt.Sprintf("kernels: tsqrt a2 cols %d != a1 cols %d", a2.Cols, n))
	}
	if n == 0 {
		return
	}
	if t.Rows < min(ib, n) || t.Cols < n {
		panic(fmt.Sprintf("kernels: tsqrt T %dx%d too small for ib=%d n=%d",
			t.Rows, t.Cols, ib, n))
	}
	// vrows(jj) is the stored height of reflector jj's dense part.
	vrows := func(jj int) int {
		if tri {
			return min(jj+1, m2)
		}
		return m2
	}
	w := grow(&ws.wvec, n)
	for j := 0; j < n; j += ib {
		sb := min(ib, n-j)
		for jj := j; jj < j+sb; jj++ {
			rows := vrows(jj)
			vcol := a2.Data[jj*a2.LD : jj*a2.LD+rows]
			tau := Dlarfg(&a1.Data[jj+jj*a1.LD], vcol)
			if tau != 0 {
				// Apply H to the remaining columns of the inner block.
				for l := jj + 1; l < j+sb; l++ {
					ccol := a2.Data[l*a2.LD : l*a2.LD+rows]
					wv := tau * (a1.At(jj, l) + blas.Ddot(rows, vcol, ccol))
					a1.Add(jj, l, -wv)
					blas.Daxpy(rows, -wv, vcol, ccol)
				}
			}
			// Build T column jj within the current block. The top parts of
			// the reflectors are identity columns, whose mutual products
			// vanish, so only V2 contributes.
			i := jj - j
			for l := 0; l < i; l++ {
				h := min(vrows(j+l), rows)
				w[l] = blas.Ddot(h, a2.Data[(j+l)*a2.LD:], vcol)
			}
			if i > 0 {
				blas.Dtrmv(true, false, false, i, t.Data[j*t.LD:], t.LD, w)
				for l := 0; l < i; l++ {
					t.Set(l, jj, -tau*w[l])
				}
			}
			t.Set(i, jj, tau)
		}
		// Block-apply Hᵀ to the trailing columns of the pair.
		if nc := n - j - sb; nc > 0 {
			tsmqrBlock(ws, true, tri, a2, t, j, sb, a1, a2, j+sb, nc)
		}
	}
}

// v2Block returns a zero-padded copy of the rows×sb triangular reflector
// block starting at column j of a2. The stored heights vary per column and
// entries below a column's height may hold unrelated data (Householder
// vectors of an earlier factorization), so the copy is built in the
// workspace instead of a view; the copy cost is negligible against the
// level-3 work it enables. Every element of the copy is written — copied up
// to the column height, zeroed below it — so reuse cannot leak state
// between calls.
func v2Block(ws *Workspace, a2 *matrix.Mat, j, sb, rows int) *matrix.Mat {
	c := matInto(&ws.v2Mat, &ws.v2b, rows, sb)
	for l := 0; l < sb; l++ {
		h := min(j+l+1, rows)
		col := c.Data[l*c.LD : l*c.LD+rows]
		copy(col[:h], a2.Data[(j+l)*a2.LD:(j+l)*a2.LD+h])
		for i := h; i < rows; i++ {
			col[i] = 0
		}
	}
	return c
}

// Dtsmqr applies the transformations computed by Dtsqrt to the stacked pair
// [B1; B2]: Qᵀ·[B1;B2] when trans is true (factorization updates), Q·[B1;B2]
// when false. v2 holds the dense reflector parts (m2×k), t the block factors
// (ib×k). B1 must have at least k rows (only its first k rows are touched);
// B2 must have m2 rows and the same number of columns as B1.
func Dtsmqr(trans bool, ib int, v2, t, b1, b2 *matrix.Mat) {
	DtsmqrWS(nil, trans, ib, v2, t, b1, b2)
}

// DtsmqrWS is Dtsmqr drawing its scratch from ws (nil borrows a pooled one).
func DtsmqrWS(ws *Workspace, trans bool, ib int, v2, t, b1, b2 *matrix.Mat) {
	if ws == nil {
		ws = wsPool.Get().(*Workspace)
		defer wsPool.Put(ws)
	}
	tsmqrGeneric(ws, trans, ib, v2, t, b1, b2, false)
}

// Dttmqr applies the transformations computed by Dttqrt to the stacked pair
// [B1; B2]. Only the upper triangle of v2's first k columns is referenced
// (the rest of the tile may hold unrelated reflectors); only the first k
// rows of B2 are touched.
func Dttmqr(trans bool, ib int, v2, t, b1, b2 *matrix.Mat) {
	DttmqrWS(nil, trans, ib, v2, t, b1, b2)
}

// DttmqrWS is Dttmqr drawing its scratch from ws (nil borrows a pooled one).
func DttmqrWS(ws *Workspace, trans bool, ib int, v2, t, b1, b2 *matrix.Mat) {
	if ws == nil {
		ws = wsPool.Get().(*Workspace)
		defer wsPool.Put(ws)
	}
	tsmqrGeneric(ws, trans, ib, v2, t, b1, b2, true)
}

func tsmqrGeneric(ws *Workspace, trans bool, ib int, v2, t, b1, b2 *matrix.Mat, tri bool) {
	k := v2.Cols
	nc := b1.Cols
	if b2.Cols != nc {
		panic(fmt.Sprintf("kernels: tsmqr b1 cols %d != b2 cols %d", nc, b2.Cols))
	}
	if b1.Rows < k {
		panic(fmt.Sprintf("kernels: tsmqr b1 rows %d < k %d", b1.Rows, k))
	}
	if !tri && b2.Rows != v2.Rows {
		panic(fmt.Sprintf("kernels: tsmqr b2 rows %d != v2 rows %d", b2.Rows, v2.Rows))
	}
	if tri && b2.Rows < min(k, v2.Rows) {
		panic(fmt.Sprintf("kernels: ttmqr b2 rows %d < %d", b2.Rows, min(k, v2.Rows)))
	}
	if k == 0 || nc == 0 {
		return
	}
	apply := func(j int) {
		tsmqrBlock(ws, trans, tri, v2, t, j, min(ib, k-j), b1, b2, 0, nc)
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

// tsmqrBlock applies the TS/TT block reflector of the sb reflectors at
// columns [j, j+sb) of v2 — H = I − [E;V2]·T·[E;V2]ᵀ, or Hᵀ when trans — to
// columns [jc, jc+nc) of the pair [B1; B2]: the sb rows of B1 its identity
// part E spans and the rows of B2 its V2 block spans (all of them, or the
// first j+sb in the triangular case). It is the one block step of
// Dtsmqr/Dttmqr and of Dtsqrt/Dttqrt's trailing update.
func tsmqrBlock(ws *Workspace, trans, tri bool, v2, t *matrix.Mat, j, sb int, b1, b2 *matrix.Mat, jc, nc int) {
	rows := v2.Rows
	if tri {
		rows = min(j+sb, rows)
	}
	pv2t, pv2 := ws.packV2Panels(v2, j, sb, rows, tri)
	pt := ws.packTPanel(t, j, sb, trans)
	applyFused(ws, pv2t, pv2, pt, sb, rows,
		b1.ViewInto(&ws.c1View, j, jc, sb, nc),
		b2.ViewInto(&ws.c2View, 0, jc, rows, nc))
}
