package kernels

import (
	"fmt"

	"pulsarqr/internal/blas"
	"pulsarqr/internal/matrix"
)

// Dtpqr2 computes the QR factorization of the triangular-pentagonal pair
// [R; B]: LAPACK's DTPQRT2, each reflector applied to the remaining columns
// as soon as it is made. It is the one reflector loop over such a pair: a
// session stream runs it R only for every leaf chunk and merge, and
// DtsqrtWS/DttqrtWS run it with T for each inner block.
//
// r is n×n upper triangular (only its upper triangle is read or written); b
// is m×n with n = b.Cols, and its bottom l rows (0 ≤ l ≤ min(m, n)) are upper
// trapezoidal: l = 0 is the TS step (b dense) and l = m = n the TT step (b
// upper triangular). Nothing below b's trapezoid is read or written. On exit
// r holds the new R.
//
// t selects the outputs. With t nil, b is only read: the reflectors live in
// the scratch and are gone on return, since nothing that keeps only R reads
// them. With t set (at least n×n), b's trapezoid holds the dense parts V of
// the reflectors on exit — their top parts are identity columns over r — and
// t's upper triangle the block-reflector factor T, so that the step is
// H = I − [E; V]·T·[E; V]ᵀ. t's strictly lower part is not touched.
//
// c1 (n×k, under r) and c2 (m×k, under b) are optional trailing columns,
// both nil for none. They receive each reflector as it is made, so on exit
// they hold Qᵀ·[c1; c2].
//
// The pair is factored in workspace scratch: at step i, column j holds
// [r(i, j); b(:, j)] (or [c1(i, ·); c2(:, ·)] for a trailing column), so
// reflector i reaches every remaining column in one blas.Dlarf call. The
// scratch's leading dimension is m+1 rounded up to a multiple of 8, which
// keeps each column's vector loads aligned alike. The columns are
// independent under Dlarf, so r's result does not depend on whether
// trailing columns ride along or T is built.
func Dtpqr2(ws *Workspace, l int, r, b, t, c1, c2 *matrix.Mat) {
	n, m := b.Cols, b.Rows
	if r.Rows != n || r.Cols != n {
		panic(fmt.Sprintf("kernels: tpqr2 r %dx%d is not %dx%d", r.Rows, r.Cols, n, n))
	}
	if l < 0 || l > min(m, n) {
		panic(fmt.Sprintf("kernels: tpqr2 l=%d outside [0, min(%d, %d)]", l, m, n))
	}
	if t != nil && (t.Rows < n || t.Cols < n) {
		panic(fmt.Sprintf("kernels: tpqr2 T %dx%d smaller than %dx%d", t.Rows, t.Cols, n, n))
	}
	k := 0
	if c1 != nil || c2 != nil {
		if c1 == nil || c2 == nil || c1.Rows != n || c2.Rows != m || c1.Cols != c2.Cols {
			panic("kernels: tpqr2 trailing columns must be an n×k c1 over an m×k c2")
		}
		k = c1.Cols
	}
	if n == 0 {
		return
	}
	if ws == nil {
		ws = wsPool.Get().(*Workspace)
		defer wsPool.Put(ws)
	}
	// height(j) is the stored height of b's column j.
	height := func(j int) int { return m - l + min(j+1, l) }
	ld := (m + 1 + 7) &^ 7
	nc := n + k
	s := grow(&ws.tp, ld*nc)
	for j := 0; j < n; j++ {
		copy(s[j*ld+1:j*ld+1+height(j)], b.Data[j*b.LD:])
	}
	for j := 0; j < k; j++ {
		copy(s[(n+j)*ld+1:(n+j)*ld+1+m], c2.Data[j*c2.LD:])
	}
	// Row 0 holds row i of r and c1 during step i. Storing row i back and
	// loading row i+1 are one pass over the columns: the two rows share a
	// cache line of each column.
	for j := 0; j < n; j++ {
		s[j*ld] = r.Data[j*r.LD]
	}
	for j := 0; j < k; j++ {
		s[(n+j)*ld] = c1.Data[j*c1.LD]
	}
	for i := 0; i < n; i++ {
		p := height(i)
		v := s[i*ld : i*ld+1+p]
		tau := Dlarfg(&v[0], v[1:])
		if tau != 0 && i+1 < nc {
			d := v[0]
			v[0] = 1
			blas.Dlarf(1+p, nc-i-1, tau, v, s[(i+1)*ld:], ld)
			v[0] = d
		}
		if t != nil {
			t.Data[i+i*t.LD] = tau
		}
		rd := r.Data
		rd[i+i*r.LD] = v[0]
		for j := i + 1; j < n; j++ {
			rd[i+j*r.LD], s[j*ld] = s[j*ld], rd[i+1+j*r.LD]
		}
		next := min(i+1, n-1) // the last step reloads nothing new
		for j := 0; j < k; j++ {
			c1.Data[i+j*c1.LD], s[(n+j)*ld] = s[(n+j)*ld], c1.Data[next+j*c1.LD]
		}
	}
	for j := 0; j < k; j++ {
		copy(c2.Data[j*c2.LD:j*c2.LD+m], s[(n+j)*ld+1:])
	}
	if t == nil {
		return
	}
	for j := 0; j < n; j++ {
		copy(b.Data[j*b.LD:j*b.LD+height(j)], s[j*ld+1:])
	}
	// T column i from w = Vᵀ·vᵢ over the first i reflectors: their identity
	// tops meet vᵢ's in zeros, so only V counts. Every reflector spans the
	// m−l dense rows; trapezoid row m−l+q is spanned from reflector q on.
	w := grow(&ws.work, n)
	for i := 0; i < n; i++ {
		vi, wi := b.Data[i*b.LD:], w[:i]
		zeroFloats(wi)
		blas.DgemvT(m-l, i, b.Data, b.LD, vi, wi)
		for q := 0; q < i; q++ {
			wi[q] += blas.Ddot(min(q+1, l), b.Data[m-l+q*b.LD:], vi[m-l:])
		}
		tcol(t, i, t.Data[i+i*t.LD], wi)
	}
}
