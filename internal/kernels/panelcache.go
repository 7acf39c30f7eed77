package kernels

import (
	"pulsarqr/internal/blas"
	"pulsarqr/internal/matrix"
)

// Panel cache. During a trailing-update sweep the same V and T tiles are
// applied to every tile of a row: without caching, each firing re-packs the
// identical reflector panels for the packed GEMM engine. The cache keeps
// the packed forms in the per-worker Workspace, keyed by the source tile's
// identity (backing-array address) plus the block coordinates, the packing
// variant, and the active micro-kernel geometry (blas.KernelID — packings
// from one geometry are garbage to another).
//
// Correctness does not rest on cooperative invalidation: every entry
// records the source's write generation (matrix.WriteGen) at pack time and
// a hit requires the generation to still match. Factor and apply kernels
// bump the generation of every tile they write (matrix.NoteWrite), as do
// matrix.New and matrix.FromColMajor for fresh or wrapped storage — so a
// recycled address, a re-factored tile, or a tile decoded off the wire all
// miss and re-pack. A stale entry is therefore unreachable; eviction is
// purely a capacity concern (LRU clock).
//
// The cached forms are packed left-hand-side operands for
// blas.DgemmPackedLHS, which replays them through the same macro-kernel as
// a fresh pack — cached and uncached firings produce bitwise-identical
// results.

// panelCacheSize is the per-workspace entry count. One apply sweep holds
// one (V, T) pair live, k/ib column blocks × 3 packings each (Vᵀ, V,
// op(T)): 24 at the default 192/24, so 32 covers a sweep with room to
// spare — an LRU smaller than the sweep it serves hits nothing, because
// the sweep is cyclic. It is not larger because every entry owns a buffer
// and pulsarqr.Factor builds fresh workspaces per call: entries are
// per-call allocation.
const panelCacheSize = 32

// Packing variants. V2 is the dense reflector block of the TS/TT kernels
// (identity top implicit); V the full reflector panel of an ormqr apply with
// its unit-lower diagonal block dense-expanded; T the dense-expanded
// upper-triangular block factor. Transposed variants are distinct packings,
// not flags, because PackLHS absorbs the transposition into the layout.
const (
	panelV2T uint8 = iota
	panelV2
	panelT
	panelTT
	panelVT
	panelV
)

// panelKey identifies one packed panel: source identity, micro-kernel
// geometry, variant, block origin (i, j) in the source, and logical shape.
type panelKey struct {
	ptr        uintptr
	kernel     uint32
	variant    uint8
	i, j       int32
	rows, cols int32
}

type panelEntry struct {
	key  panelKey
	gen  uint64 // source write generation at pack time
	used uint64 // LRU clock tick of last touch
	buf  []float64
}

type panelCache struct {
	entries      [panelCacheSize]panelEntry
	clock        uint64
	hits, misses uint64
}

// PanelCacheStats reports cumulative packed-panel cache hits and misses,
// for tests and diagnostics.
func (ws *Workspace) PanelCacheStats() (hits, misses uint64) {
	return ws.panels.hits, ws.panels.misses
}

// panelSlot finds or claims the cache slot for (src, variant, block). On a
// hit it returns the packed buffer and true. On a miss it claims a slot
// (the stale entry for the same key if one exists, else the LRU victim),
// records the key and src's current write generation, and returns a
// packLen-sized buffer the caller MUST fill before use.
func (ws *Workspace) panelSlot(src *matrix.Mat, variant uint8, i, j, rows, cols, packLen int) ([]float64, bool) {
	key := panelKey{
		ptr: matrix.DataPtr(src), kernel: blas.KernelID(), variant: variant,
		i: int32(i), j: int32(j), rows: int32(rows), cols: int32(cols),
	}
	gen := matrix.WriteGen(src)
	pc := &ws.panels
	pc.clock++
	victim := &pc.entries[0]
	for idx := range pc.entries {
		e := &pc.entries[idx]
		if e.key == key {
			if e.gen == gen {
				e.used = pc.clock
				pc.hits++
				return e.buf[:packLen], true
			}
			victim = e // same key, stale generation: repack in place
			break
		}
		if e.used < victim.used {
			victim = e
		}
	}
	pc.misses++
	victim.key = key
	victim.gen = gen
	victim.used = pc.clock
	if cap(victim.buf) < packLen {
		victim.buf = make([]float64, packLen)
	}
	return victim.buf[:packLen], false
}

// packedV2Panels returns the cached packed forms of V2ᵀ and V2 for the
// rows×sb reflector block of a TS/TT kernel whose first column is column j
// of v2. In the triangular case the stored column heights vary and the
// entries below them may hold unrelated data, so the pack reads a
// zero-padded copy (v2Block) — the packed panel depends only on stored
// reflector data either way.
func (ws *Workspace) packedV2Panels(v2 *matrix.Mat, j, sb, rows int, tri bool) (pv2t, pv2 []float64) {
	bt, okt := ws.panelSlot(v2, panelV2T, 0, j, rows, sb, blas.PackedLHSLen(sb, rows))
	bn, okn := ws.panelSlot(v2, panelV2, 0, j, rows, sb, blas.PackedLHSLen(rows, sb))
	if okt && okn {
		return bt, bn
	}
	src, lda := v2.Data[j*v2.LD:], v2.LD
	if tri {
		c := v2Block(ws, v2, j, sb, rows, tri)
		src, lda = c.Data, c.LD
	}
	if !okt {
		blas.PackLHS(true, sb, rows, src, lda, bt)
	}
	if !okn {
		blas.PackLHS(false, rows, sb, src, lda, bn)
	}
	return bt, bn
}

// packedTPanel returns the cached packed form of op(T) for the sb×sb
// upper-triangular block factor at columns [j, j+sb) of t, dense-expanded
// (explicit zeros below the diagonal) so the triangular multiply of the
// block-reflector apply lands on the micro-kernel instead of Dtrmv leaves.
func (ws *Workspace) packedTPanel(t *matrix.Mat, j, sb int, trans bool) []float64 {
	variant := panelT
	if trans {
		variant = panelTT
	}
	buf, ok := ws.panelSlot(t, variant, 0, j, sb, sb, blas.PackedLHSLen(sb, sb))
	if ok {
		return buf
	}
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
	blas.PackLHS(trans, sb, sb, d, sb, buf)
	return buf
}

// packedVPanels returns the cached packed forms of Vᵀ and V for the rows×sb
// reflector panel of an ormqr apply whose diagonal block sits at (j, j) of
// v: the unit-lower diagonal block dense-expanded (explicit unit diagonal,
// zeros above — the stored upper triangle is R, not reflector data) on top
// of the sub-diagonal block, as one operand. One panel instead of a
// diagonal block and a sub-diagonal block halves the GEMM calls of the
// apply and keeps a sweep at three cache entries per column block.
func (ws *Workspace) packedVPanels(v *matrix.Mat, j, sb, rows int) (pvt, pv []float64) {
	bt, okt := ws.panelSlot(v, panelVT, j, j, rows, sb, blas.PackedLHSLen(sb, rows))
	bn, okn := ws.panelSlot(v, panelV, j, j, rows, sb, blas.PackedLHSLen(rows, sb))
	if okt && okn {
		return bt, bn
	}
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
	if !okt {
		blas.PackLHS(true, sb, rows, d, rows, bt)
	}
	if !okn {
		blas.PackLHS(false, rows, sb, d, rows, bn)
	}
	return bt, bn
}
