package qr

import (
	"fmt"

	"pulsarqr/internal/blas"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/wire"
)

// sketchWidth is k, the number of probe columns of a Sketch.
const sketchWidth = 4

// Sketch is what the backward-error check keeps of an input A once the run
// has consumed its tiles: Z = AᵀA·X for a seeded n×k probe X. Sketches of
// disjoint row blocks under one X add, so each rank of a fleet sketches the
// tile rows it owns and rank 0 checks R against their sum. That costs 4mnk
// flops and n×k words on the wire, where AᵀA itself costs m·n² and n×n.
//
// X's entries are continuous on (−1, 1) (matrix.FillSeeded), so ‖E·X‖_F²
// is (k/3)‖E‖_F² in expectation for any fixed E = AᵀA − RᵀR, and no nonzero
// E is annihilated except on a set of X of measure zero. (Random signs would
// miss a two-entry E half the time.)
type Sketch struct {
	X, Z *matrix.Mat
	y    []float64 // scratch: one tile row times X
}

// NewSketch returns the empty sketch of an n-column matrix under the probe
// seed denotes.
func NewSketch(n int, seed int64) *Sketch {
	s := &Sketch{X: matrix.New(n, sketchWidth), Z: matrix.New(n, sketchWidth)}
	matrix.FillSeeded(s.X, seed, 0, 0)
	return s
}

// AddTileRow folds tile row i of a into the sketch: Z += A_iᵀ(A_i·X).
func (s *Sketch) AddTileRow(a *matrix.Tiled, i int) {
	rows := a.TileRows(i)
	if cap(s.y) < rows*sketchWidth {
		s.y = make([]float64, rows*sketchWidth)
	}
	y, beta := s.y[:rows*sketchWidth], 0.0 // the first tile overwrites y
	for j := 0; j < a.NT; j++ {
		t := a.Tile(i, j)
		blas.Dgemm(false, false, rows, sketchWidth, t.Cols, 1, t.Data, t.LD,
			s.X.Data[j*a.NB:], s.X.LD, beta, y, rows)
		beta = 1
	}
	for j := 0; j < a.NT; j++ {
		t := a.Tile(i, j)
		blas.Dgemm(true, false, t.Cols, sketchWidth, rows, 1, t.Data, t.LD,
			y, rows, 1, s.Z.Data[j*a.NB:], s.Z.LD)
	}
}

// Residual returns ‖Z − Rᵀ(R·X)‖_F / ‖Z‖_F, the sketched backward error of
// R as a factor of the matrix s was taken of. It is scale-free, reads 0 when
// both sides are exactly zero, and is not finite when either side is not.
func (s *Sketch) Residual(r *matrix.Mat) float64 {
	rx := matrix.New(r.Rows, sketchWidth)
	blas.Dgemm(false, false, r.Rows, sketchWidth, r.Cols, 1, r.Data, r.LD, s.X.Data, s.X.LD, 0, rx.Data, rx.LD)
	d := s.Z.Clone()
	blas.Dgemm(true, false, r.Cols, sketchWidth, r.Rows, -1, r.Data, r.LD, rx.Data, rx.LD, 1, d.Data, d.LD)
	num := d.FrobNorm()
	if num == 0 {
		return 0
	}
	return num / s.Z.FrobNorm()
}

// The wire form of a sketch, for the reduce onto rank 0: Z as the runtime
// ships any matrix. X is not sent; every rank draws it from the seed.

func (s *Sketch) encode() []byte {
	b, _ := wire.AppendDimMat(nil, s.Z)
	return b
}

// decodeSketch reads a peer's Z for an n-column input. It decodes into fresh
// storage and then checks the shape: n is the caller's, and may be anything.
func decodeSketch(b []byte, n int) (*matrix.Mat, error) {
	z, rest, err := wire.ConsumeDimMat(nil, b)
	if err != nil {
		return nil, fmt.Errorf("qr: sketch packet: %w", err)
	}
	if z.Rows != n || z.Cols != sketchWidth || len(rest) != 0 {
		return nil, fmt.Errorf("qr: sketch packet holds a %dx%d matrix and %d bytes more, want a %dx%d one", z.Rows, z.Cols, len(rest), n, sketchWidth)
	}
	return z, nil
}
