package qr

import (
	"fmt"

	"pulsarqr/internal/blas"
	"pulsarqr/internal/matrix"
)

// Factorization is the result of a tree-based tile QR: A = Q·R with Q held
// implicitly as the log of its transformations.
type Factorization struct {
	M, N int
	Opts Options
	// A holds the factored tiles: the final R blocks on and above the tile
	// diagonal, Householder vectors below (and below the diagonal of the
	// diagonal tiles).
	A *matrix.Tiled
	// QTB holds QᵀB for the ride-along right-hand-side columns passed to
	// the factorization, or nil.
	QTB *matrix.Tiled
	// Stats describes the runtime execution (systolic engines only).
	Stats RunStats
	// ROnly marks a factorization run with an Env.Part: A holds the
	// tiles of R and nothing else, and there is no log. R, QTB and
	// SolveFromQTB work; everything that needs the reflectors panics.
	ROnly bool
	// Input is the sketch of the input matrix, summed over the ranks'
	// shares (runs with an Env.Part only): Input.Residual(f.R()) estimates
	// the check Residual would make on the dense input, which no rank holds.
	Input *Sketch

	// log holds one entry per panel call of the listing at Opts, in its
	// order: V is the factored tile of a Geqrt or Tsqrt, the eliminated R
	// of a Ttqrt, and T the call's block factor.
	log []vtMsg
	// release gives an R-only run's array back; nil otherwise.
	release func()
}

// Release gives the array an R-only run (Env.Part) was made on back to the
// process, for the next run of its key to re-arm. The result's diagonal
// tiles are views of that array's scratch, so R must have been read first,
// and nothing of f may be read afterwards. A full-log result's Release does
// nothing.
func (f *Factorization) Release() {
	if f.release != nil {
		f.release()
		f.release = nil
	}
}

// RunStats summarizes a systolic execution.
type RunStats struct {
	// Firings is the total number of VDP firings.
	Firings int64
	// Messages and Bytes count inter-node traffic through the
	// message-passing substrate (zero for single-node runs, whose
	// channels are all zero-copy).
	Messages, Bytes int64
	// VDPs and Channels describe the array that was built.
	VDPs, Channels int
}

// R assembles the n×n upper-triangular factor.
func (f *Factorization) R() *matrix.Mat { return f.A.UpperTiles() }

// ApplyQT overwrites b (tiled with the same tile size and row count as A)
// with Qᵀ·b by replaying the log forward.
func (f *Factorization) ApplyQT(b *matrix.Tiled) { f.apply(b, true) }

// ApplyQ overwrites b with Q·b by replaying the log backward.
func (f *Factorization) ApplyQ(b *matrix.Tiled) { f.apply(b, false) }

// apply replays the log on b: each panel call of the listing runs as its
// update call (Geqrt → Ormqr, Tsqrt → Tsmqr, Ttqrt → Ttmqr) on every column
// tile of b with the entry's V and T — the factorization's own update
// kernels, in its order (LAPACK DORMQR), forward for Qᵀ, backward for Q.
func (f *Factorization) apply(b *matrix.Tiled, trans bool) {
	if f.ROnly {
		panic("qr: factorization was gathered R-only (FactorizeVSAIn with a Part): the reflectors Q is made of were not collected")
	}
	if b.M != f.M || b.NB != f.Opts.NB {
		panic(fmt.Sprintf("qr: apply shape mismatch: b is %d rows tile %d, A is %d rows tile %d",
			b.M, b.NB, f.M, f.Opts.NB))
	}
	panels := panelCalls(f.A.MT, f.A.NT, f.Opts)
	for idx := range panels {
		if !trans {
			idx = len(panels) - 1 - idx
		}
		e, u := f.log[idx], panels[idx]
		u.Kernel += Ormqr // Kernel declares the updates in their panel calls' order
		for u.L = 0; u.L < b.NT; u.L++ {
			var h [3]*matrix.Mat
			n := 0
			u.Access(func(d Datum, write bool) {
				h[n] = e.V
				if write {
					h[n] = b.Tile(d.I, d.L)
				}
				n++
			})
			u.run(nil, trans, f.Opts.IB, h, e.T)
		}
	}
}

// Solve returns the least-squares solution x of min‖A·x − b‖₂ for each
// column of b (dense m×nrhs), using the stored factorization: x solves
// R·x = (Qᵀb)₁..n.
func (f *Factorization) Solve(b *matrix.Mat) *matrix.Mat {
	if b.Rows != f.M {
		panic(fmt.Sprintf("qr: Solve rhs has %d rows, want %d", b.Rows, f.M))
	}
	bt := matrix.FromDense(b, f.Opts.NB)
	f.ApplyQT(bt)
	c := bt.ToDense().View(0, 0, f.N, b.Cols).Clone()
	r := f.R()
	blas.Dtrsm(f.N, b.Cols, r.Data, r.LD, c.Data, c.LD)
	return c
}

// SolveFromQTB returns the least-squares solution using the ride-along
// QᵀB computed during factorization (requires B to have been passed to
// Factorize). It avoids a second pass over the transformation log.
func (f *Factorization) SolveFromQTB() *matrix.Mat {
	if f.QTB == nil {
		panic("qr: factorization was computed without ride-along right-hand sides")
	}
	c := f.QTB.ToDense().View(0, 0, f.N, f.QTB.N).Clone()
	r := f.R()
	blas.Dtrsm(f.N, f.QTB.N, r.Data, r.LD, c.Data, c.LD)
	return c
}

// Residual returns ‖AᵀA − RᵀR‖_F / ‖AᵀA‖_F for the original dense matrix
// a, a factorization-quality check that does not require forming Q. It is
// the dense formula a Sketch estimates. An exact R reads 0, also when AᵀA
// is 0 (n = 0, or A zero), as Sketch.Residual does.
func (f *Factorization) Residual(a *matrix.Mat) float64 {
	r := f.R()
	ata, rtr := matrix.New(a.Cols, a.Cols), matrix.New(r.Cols, r.Cols)
	blas.Dgemm(true, false, a.Cols, a.Cols, a.Rows, 1, a.Data, a.LD, a.Data, a.LD, 0, ata.Data, ata.LD)
	blas.Dgemm(true, false, r.Cols, r.Cols, r.Rows, 1, r.Data, r.LD, r.Data, r.LD, 0, rtr.Data, rtr.LD)
	num := ata.Sub(rtr).FrobNorm()
	if num == 0 {
		return 0
	}
	return num / ata.FrobNorm()
}
