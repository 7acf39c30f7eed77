package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pulsarqr/internal/matrix"
)

// requireBitwise fails unless got and want hold the same bits everywhere.
func requireBitwise(t *testing.T, what string, got, want *matrix.Mat) {
	t.Helper()
	for j := 0; j < want.Cols; j++ {
		for i := 0; i < want.Rows; i++ {
			if g, w := got.At(i, j), want.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: (%d,%d) = %v, want %v bit for bit", what, i, j, g, w)
			}
		}
	}
}

// TestPanelApplyIsUpdateApply holds that a panel kernel's trailing update
// and its update kernel are one apply: factoring a panel block by block
// and applying each block with the update kernel gives the panel kernel's
// output bit for bit.
//
//   - Dgeqrt on a wide tile [A | B] leaves A and its T as Dgeqrt(A) does
//     and B as Dormqr(Qᵀ) on B, with B's rows below A's k rows then
//     factored by Dgeqrt on their own. The shapes keep A's column blocks
//     aligned with the wide tile's: A's width a multiple of ib, or m no
//     larger than it.
//   - Dtsqrt on [R; A2] equals, block by block, Dtsqrt on the block's
//     columns followed by Dtsmqr on the trailing columns of the pair.
func TestPanelApplyIsUpdateApply(t *testing.T) {
	rng := rand.New(rand.NewSource(37))

	geqrtShapes := []struct{ m, na, nb, ib int }{
		{192, 96, 96, 24}, {192, 192, 40, 24},
		{64, 32, 32, 16}, {64, 64, 20, 16},
		{13, 13, 7, 5}, {11, 15, 6, 4}, {20, 8, 9, 4},
	}
	for _, s := range geqrtShapes {
		n := s.na + s.nb
		k := min(s.m, n)
		wide := matrix.NewRand(s.m, n, rng)
		a := wide.View(0, 0, s.m, s.na).Clone()
		b := wide.View(0, s.na, s.m, s.nb).Clone()
		tWide := matrix.New(min(s.ib, k), k)
		DgeqrtWS(NewWorkspace(), s.ib, wide, tWide)

		ws := NewWorkspace()
		ka := min(s.m, s.na)
		tRef := matrix.New(tWide.Rows, k)
		DgeqrtWS(ws, s.ib, a, tRef.View(0, 0, tRef.Rows, ka))
		DormqrWS(ws, true, s.ib, a, tRef.View(0, 0, tRef.Rows, ka), b)
		if s.m > s.na {
			DgeqrtWS(ws, s.ib, b.View(s.na, 0, s.m-s.na, s.nb), tRef.View(0, s.na, tRef.Rows, k-s.na))
		}
		ref := matrix.New(s.m, n)
		ref.View(0, 0, s.m, s.na).CopyFrom(a)
		ref.View(0, s.na, s.m, s.nb).CopyFrom(b)
		what := fmt.Sprintf("dgeqrt m=%d n=%d+%d ib=%d", s.m, s.na, s.nb, s.ib)
		requireBitwise(t, what+" tile", wide, ref)
		requireBitwise(t, what+" T", tWide, tRef)
	}

	tsShapes := []struct{ n, m2, ib int }{
		{192, 192, 24}, {64, 64, 16}, {13, 9, 5}, {10, 17, 4},
	}
	for _, s := range tsShapes {
		r1, r2 := matrix.NewRand(s.n, s.n, rng), matrix.NewRand(s.m2, s.n, rng)
		b1, b2 := r1.Clone(), r2.Clone()
		tPanel := matrix.New(min(s.ib, s.n), s.n)
		DtsqrtWS(NewWorkspace(), s.ib, r1, r2, tPanel)

		ws := NewWorkspace()
		tRef := matrix.New(tPanel.Rows, s.n)
		for j := 0; j < s.n; j += s.ib {
			sb := min(s.ib, s.n-j)
			v2 := b2.View(0, j, s.m2, sb)
			tb := tRef.View(0, j, tRef.Rows, sb)
			DtsqrtWS(ws, s.ib, b1.View(j, j, sb, sb), v2, tb)
			if nc := s.n - j - sb; nc > 0 {
				DtsmqrWS(ws, true, s.ib, v2, tb, b1.View(j, j+sb, sb, nc), b2.View(0, j+sb, s.m2, nc))
			}
		}
		what := fmt.Sprintf("dtsqrt n=%d m2=%d ib=%d", s.n, s.m2, s.ib)
		requireBitwise(t, what+" R", upperTrap(r1), upperTrap(b1))
		requireBitwise(t, what+" V2", r2, b2)
		requireBitwise(t, what+" T", tPanel, tRef)
	}
}
