package kernels

import (
	"math/rand"
	"testing"

	"pulsarqr/internal/matrix"
)

// TestApplyOnUsedWorkspaceBitwise holds the determinism contract of the
// Workspace: buffers are never cleared between calls, so every apply must
// overwrite what it reads. An apply on a workspace that has just applied
// other (V, T) pairs — of another tile size, so its buffers are larger and
// full of unrelated packings — must be bitwise equal to the same apply on a
// fresh workspace, for every apply kernel and both directions.
func TestApplyOnUsedWorkspaceBitwise(t *testing.T) {
	const nb, ib = 64, 16
	rng := rand.New(rand.NewSource(23))
	used := NewWorkspace()
	dirty := func() {
		const bnb, bib = 192, 24
		for _, tri := range []bool{false, true} {
			_, v2, tt, _ := tsFactor(rng, bnb, bnb, bib, tri)
			c1, c2 := matrix.NewRand(bnb, bnb, rng), matrix.NewRand(bnb, bnb, rng)
			tsmqrGeneric(used, true, bib, v2, tt, c1, c2, tri)
		}
		v, tg := matrix.NewRand(bnb, bnb, rng), matrix.New(bib, bnb)
		DgeqrtWS(used, bib, v, tg)
		DormqrWS(used, false, bib, v, tg, matrix.NewRand(bnb, bnb, rng))
	}
	same := func(a, b *matrix.Mat) bool { return matrix.MaxAbsDiff(a, b) == 0 }

	for _, trans := range []bool{false, true} {
		for _, tri := range []bool{false, true} {
			_, v2, tt, _ := tsFactor(rng, nb, nb, ib, tri)
			b1, b2 := matrix.NewRand(nb, nb, rng), matrix.NewRand(nb, nb, rng)
			w1, w2 := b1.Clone(), b2.Clone()
			dirty()
			tsmqrGeneric(used, trans, ib, v2, tt, w1, w2, tri)
			tsmqrGeneric(NewWorkspace(), trans, ib, v2, tt, b1, b2, tri)
			if !same(w1, b1) || !same(w2, b2) {
				t.Errorf("tri=%v trans=%v: TS/TT apply on a used workspace diverges bitwise from a fresh one", tri, trans)
			}
		}

		v, tg := matrix.NewRand(nb, nb, rng), matrix.New(ib, nb)
		DgeqrtWS(NewWorkspace(), ib, v, tg)
		c := matrix.NewRand(nb, nb, rng)
		w := c.Clone()
		dirty()
		DormqrWS(used, trans, ib, v, tg, w)
		DormqrWS(NewWorkspace(), trans, ib, v, tg, c)
		if !same(w, c) {
			t.Errorf("trans=%v: Dormqr on a used workspace diverges bitwise from a fresh one", trans)
		}
	}
}
