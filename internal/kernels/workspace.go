package kernels

import (
	"sync"

	"pulsarqr/internal/matrix"
)

// Workspace holds the scratch storage a kernel invocation needs — the W
// panels of the block-reflector apply, its packed V and T operands, the
// zero-padded V2 copy of the triangular kernels, Dgeqrt's tau/work vectors,
// and reusable matrix headers for the per-block operand views — so that
// steady-state kernel fires allocate nothing.
//
// Ownership rules (see docs/KERNELS.md): a Workspace belongs to exactly one
// goroutine at a time and is NOT safe for concurrent use. The runtime gives
// each worker thread its own via pulsar.Config.WorkerState; the sequential
// reference owns one per factorization; callers without one pass nil and
// the entry points borrow from a process-wide sync.Pool. Buffers grow
// monotonically and are never shrunk or zeroed between calls — every kernel
// fully overwrites the region it reads, which is what keeps results
// independent of buffer history (the determinism contract).
type Workspace struct {
	tau    []float64 // Dgeqrt reflector scaling factors
	work   []float64 // dlarft vector scratch
	wvec   []float64 // tsqrtGeneric T-column scratch
	wbuf   []float64 // applyFused W panel storage
	w2buf  []float64 // applyFused op(T)·W panel storage
	v2b    []float64 // v2Block zero-padded triangular copy storage
	pdense []float64 // dense expansion of T or of an ormqr V panel, before packing
	pvt    []float64 // applyFused packed Vᵀ (or V2ᵀ) operand
	pv     []float64 // applyFused packed V (or V2) operand
	pt     []float64 // applyFused packed op(T) operand

	vView, tView       matrix.Mat // Dgeqrt panel and T-block views (Dgeqr2, dlarft)
	c1View, c2View     matrix.Mat // applyFused target views (C1, C2)
	wMat, w2Mat, v2Mat matrix.Mat // W/W2 panels and V2 copy headers

	auxBuf [2][]float64  // Aux backing storage
	auxMat [2]matrix.Mat // Aux headers
}

// NewWorkspace returns an empty workspace; buffers grow on demand and are
// retained across kernel calls.
func NewWorkspace() *Workspace { return &Workspace{} }

// wsPool backs the nil-Workspace convenience path of the exported kernels.
var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

// BorrowWorkspace takes a workspace from the process-wide pool; pair it
// with ReturnWorkspace. Callers on a hot path should hold their own
// workspace instead (one per goroutine) — the pool exists for convenience
// entry points and fallbacks.
func BorrowWorkspace() *Workspace { return wsPool.Get().(*Workspace) }

// ReturnWorkspace gives a borrowed workspace back to the pool.
func ReturnWorkspace(ws *Workspace) { wsPool.Put(ws) }

// grow returns buf resized to n elements, reallocating only when capacity
// is insufficient. Contents are unspecified: callers must fully overwrite
// whatever they later read.
func grow(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

// Aux returns one of the workspace's auxiliary scratch matrices (slot 0 or
// 1) shaped as a compact rows×cols matrix. The backing buffer grows on
// demand and is retained across calls; contents are unspecified, so callers
// must fully overwrite whatever they later read. Auxiliary matrices let
// callers outside this package (e.g. the batched small-QR fast path) run
// zero-alloc in steady state on the same per-worker workspace the tile
// kernels use — subject to the same single-goroutine ownership rule.
func (ws *Workspace) Aux(slot, rows, cols int) *matrix.Mat {
	return matInto(&ws.auxMat[slot], &ws.auxBuf[slot], rows, cols)
}

// matInto shapes one of the workspace's matrix headers as a compact
// rows×cols matrix over the given backing buffer and returns it.
func matInto(hdr *matrix.Mat, buf *[]float64, rows, cols int) *matrix.Mat {
	ld := rows
	if ld < 1 {
		ld = 1
	}
	hdr.Rows, hdr.Cols, hdr.LD = rows, cols, ld
	hdr.Data = grow(buf, ld*cols)
	return hdr
}
