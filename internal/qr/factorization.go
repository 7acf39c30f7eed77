package qr

import (
	"fmt"

	"pulsarqr/internal/blas"
	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
)

// Op records one panel transformation, in global execution order, with the
// block-reflector factor needed to replay it. For Geqrt and Tsqrt the
// Householder vectors live in the factored tile A(I,J) / A(K,J); for
// Ttqrt they live in V2 (an upper-trapezoidal matrix of the eliminated
// domain's R rows).
type Op struct {
	Kind Kernel // Geqrt, Tsqrt or Ttqrt
	J    int    // panel index
	I    int    // top / survivor tile row
	K    int    // eliminated tile row (Tsqrt, Ttqrt); -1 for Geqrt
	T    *matrix.Mat
	V2   *matrix.Mat // Ttqrt only
}

// Factorization is the result of a tree-based tile QR: A = Q·R with Q held
// implicitly as the ordered transformation log plus the reflector tiles.
type Factorization struct {
	M, N int
	Opts Options
	// A holds the factored tiles: the final R blocks on and above the tile
	// diagonal, Householder vectors below (and below the diagonal of the
	// diagonal tiles).
	A *matrix.Tiled
	// Ops is the ordered transformation log.
	Ops []Op
	// QTB holds QᵀB for the ride-along right-hand-side columns passed to
	// the factorization, or nil.
	QTB *matrix.Tiled
	// Stats describes the runtime execution (systolic engines only).
	Stats RunStats
	// ROnly marks a factorization run with an Env.Part: A holds the
	// tiles of R and nothing else, Ops is empty. R, QTB and SolveFromQTB
	// work; everything that needs the reflectors panics.
	ROnly bool
	// Input is the sketch of the input matrix, summed over the ranks'
	// shares (runs with an Env.Part only): Input.Residual(f.R()) estimates
	// the check Residual would make on the dense input, which no rank holds.
	Input *Sketch

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
// with Qᵀ·b by replaying the transformation log forward.
func (f *Factorization) ApplyQT(b *matrix.Tiled) { f.apply(b, true) }

// ApplyQ overwrites b with Q·b by replaying the transformation log backward.
func (f *Factorization) ApplyQ(b *matrix.Tiled) { f.apply(b, false) }

func (f *Factorization) apply(b *matrix.Tiled, trans bool) {
	if f.ROnly {
		panic("qr: factorization was gathered R-only (FactorizeVSAIn with a Part): the reflectors Q is made of were not collected")
	}
	if b.M != f.M || b.NB != f.Opts.NB {
		panic(fmt.Sprintf("qr: apply shape mismatch: b is %d rows tile %d, A is %d rows tile %d",
			b.M, b.NB, f.M, f.Opts.NB))
	}
	ib := f.Opts.IB
	ops := f.Ops
	for idx := 0; idx < len(ops); idx++ {
		op := ops[idx]
		if !trans {
			op = ops[len(ops)-1-idx]
		}
		for lb := 0; lb < b.NT; lb++ {
			switch op.Kind {
			case Geqrt:
				kernels.DormqrWS(nil, trans, ib, f.A.Tile(op.I, op.J), op.T, b.Tile(op.I, lb))
			case Tsqrt:
				kernels.DtsmqrWS(nil, trans, ib, f.A.Tile(op.K, op.J), op.T, b.Tile(op.I, lb), b.Tile(op.K, lb))
			case Ttqrt:
				kernels.DttmqrWS(nil, trans, ib, op.V2, op.T, b.Tile(op.I, lb), b.Tile(op.K, lb))
			}
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
