package kernels

import (
	"math/rand"
	"testing"

	"pulsarqr/internal/matrix"
)

// cacheSetup factors a TS pair and returns a warm workspace plus the
// factored (V, T) and a pair of target tiles for Dtsmqr sweeps.
func cacheSetup(nb, ib int) (ws *Workspace, v2, tt, b1, b2 *matrix.Mat) {
	rng := rand.New(rand.NewSource(21))
	a1 := matrix.NewRand(nb, nb, rng).UpperTriangle()
	v2 = matrix.NewRand(nb, nb, rng)
	tt = matrix.New(ib, nb)
	ws = NewWorkspace()
	DtsqrtWS(ws, ib, a1, v2, tt)
	b1 = matrix.NewRand(nb, nb, rng)
	b2 = matrix.NewRand(nb, nb, rng)
	return ws, v2, tt, b1, b2
}

// TestPanelCacheReusesAcrossFirings is the cache's raison d'être: a second
// apply of the same (V, T) pair must hit for every panel and pack nothing.
func TestPanelCacheReusesAcrossFirings(t *testing.T) {
	ws, v2, tt, b1, b2 := cacheSetup(64, 16)
	DtsmqrWS(ws, true, 16, v2, tt, b1, b2) // populate
	h0, m0 := ws.PanelCacheStats()
	DtsmqrWS(ws, true, 16, v2, tt, b1, b2)
	h1, m1 := ws.PanelCacheStats()
	if m1 != m0 {
		t.Errorf("re-applying an unchanged (V,T) repacked %d panels, want 0", m1-m0)
	}
	if h1 == h0 {
		t.Error("re-applying an unchanged (V,T) hit no cached panels")
	}
}

// TestPanelCacheInvalidatesOnRewrite pins the write-generation protocol:
// once the source tiles are rewritten — by a kernel or by a direct store
// followed by NoteWrite — every cached packing of them must miss.
func TestPanelCacheInvalidatesOnRewrite(t *testing.T) {
	ws, v2, tt, b1, b2 := cacheSetup(64, 16)
	DtsmqrWS(ws, true, 16, v2, tt, b1, b2) // populate

	// Kernel rewrite: re-factoring writes v2 and tt and bumps their
	// generations itself.
	rng := rand.New(rand.NewSource(22))
	a1 := matrix.NewRand(64, 64, rng).UpperTriangle()
	DtsqrtWS(ws, 16, a1, v2, tt)
	_, m0 := ws.PanelCacheStats()
	DtsmqrWS(ws, true, 16, v2, tt, b1, b2)
	_, m1 := ws.PanelCacheStats()
	if m1 == m0 {
		t.Fatal("apply after re-factorization reused stale packings")
	}

	// Direct rewrite: a caller mutating tile storage must be able to
	// invalidate with NoteWrite alone.
	DtsmqrWS(ws, true, 16, v2, tt, b1, b2)
	_, m2 := ws.PanelCacheStats()
	v2.Data[0] += 0.5
	matrix.NoteWrite(v2)
	DtsmqrWS(ws, true, 16, v2, tt, b1, b2)
	_, m3 := ws.PanelCacheStats()
	if m3 == m2 {
		t.Fatal("apply after NoteWrite reused stale packings of the mutated tile")
	}
}

// TestPanelCacheBitwiseTransparent checks the cache cannot be observed in
// the results: applying with a warm cache must be bitwise identical to
// applying with a cold workspace, for both Dtsmqr and Dormqr and both
// transpose directions.
func TestPanelCacheBitwiseTransparent(t *testing.T) {
	for _, trans := range []bool{false, true} {
		ws, v2, tt, b1, b2 := cacheSetup(64, 16)
		warm1, warm2 := b1.Clone(), b2.Clone()
		DtsmqrWS(ws, trans, 16, v2, tt, warm1, warm2) // populate cache
		warm1.CopyFrom(b1)
		warm2.CopyFrom(b2)
		DtsmqrWS(ws, trans, 16, v2, tt, warm1, warm2) // cached firing

		cold1, cold2 := b1.Clone(), b2.Clone()
		DtsmqrWS(NewWorkspace(), trans, 16, v2, tt, cold1, cold2)
		for j := 0; j < 64; j++ {
			for i := 0; i < 64; i++ {
				if warm1.At(i, j) != cold1.At(i, j) || warm2.At(i, j) != cold2.At(i, j) {
					t.Fatalf("trans=%v: cached Dtsmqr diverges bitwise from cold at (%d,%d)", trans, i, j)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(23))
	for _, trans := range []bool{false, true} {
		v := matrix.NewRand(64, 64, rng)
		tg := matrix.New(16, 64)
		ws := NewWorkspace()
		DgeqrtWS(ws, 16, v, tg)
		c := matrix.NewRand(64, 64, rng)
		warm := c.Clone()
		DormqrWS(ws, trans, 16, v, tg, warm) // populate cache
		warm.CopyFrom(c)
		DormqrWS(ws, trans, 16, v, tg, warm) // cached firing
		cold := c.Clone()
		DormqrWS(NewWorkspace(), trans, 16, v, tg, cold)
		for j := 0; j < 64; j++ {
			for i := 0; i < 64; i++ {
				if warm.At(i, j) != cold.At(i, j) {
					t.Fatalf("trans=%v: cached Dormqr diverges bitwise from cold at (%d,%d)", trans, i, j)
				}
			}
		}
	}
}

// A cyclic sweep over an LRU smaller than the sweep hits nothing. At the
// default tile (192/24) one apply sweep is 8 column blocks × 3 packings —
// Dormqr's reflector panel is one operand, not a diagonal and a sub-diagonal
// block — so a second apply of the same (V, T) must find every panel cached,
// for both apply kernels and both directions.
func TestPanelCacheHoldsASweepAtDefaultTile(t *testing.T) {
	const nb, ib = 192, 24
	if sweep := nb / ib * 3; sweep > panelCacheSize {
		t.Fatalf("a %d/%d sweep needs %d entries, the cache has %d", nb, ib, sweep, panelCacheSize)
	}
	rng := rand.New(rand.NewSource(24))
	for _, trans := range []bool{true, false} {
		v := matrix.NewRand(nb, nb, rng)
		tg := matrix.New(ib, nb)
		ws := NewWorkspace()
		DgeqrtWS(ws, ib, v, tg)
		c := matrix.NewRand(nb, nb, rng)
		DormqrWS(ws, trans, ib, v, tg, c)
		h0, m0 := ws.PanelCacheStats()
		DormqrWS(ws, trans, ib, v, tg, c)
		if h1, m1 := ws.PanelCacheStats(); m1 != m0 || h1-h0 != nb/ib*3 {
			t.Errorf("Dormqr trans=%v: second apply missed %d panels and hit %d, want 0 and %d", trans, m1-m0, h1-h0, nb/ib*3)
		}

		ws, v2, tt, b1, b2 := cacheSetup(nb, ib)
		DtsmqrWS(ws, trans, ib, v2, tt, b1, b2)
		h0, m0 = ws.PanelCacheStats()
		DtsmqrWS(ws, trans, ib, v2, tt, b1, b2)
		if h1, m1 := ws.PanelCacheStats(); m1 != m0 || h1-h0 != nb/ib*3 {
			t.Errorf("Dtsmqr trans=%v: second apply missed %d panels and hit %d, want 0 and %d", trans, m1-m0, h1-h0, nb/ib*3)
		}
	}
}

// TestPanelCacheStatsStartZero guards the diagnostics contract.
func TestPanelCacheStatsStartZero(t *testing.T) {
	if h, m := NewWorkspace().PanelCacheStats(); h != 0 || m != 0 {
		t.Fatalf("fresh workspace reports %d hits, %d misses", h, m)
	}
}
