package qr

import (
	"encoding/binary"
	"fmt"
	"math"

	"pulsarqr/internal/blas"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/pulsar"
)

// Gram is what the backward-error check keeps of an input A once the run has
// consumed its tiles: AᵀA and max|A|. Grams of disjoint row blocks add, so
// each rank of a fleet takes the Gram of the tile rows it owns and rank 0
// checks R against their sum.
type Gram struct {
	// AtA is n×n; sums accumulate in its upper triangle and the lower one
	// is scratch.
	AtA    *matrix.Mat
	MaxAbs float64
}

// GramOfDense returns the Gram of a whole dense matrix.
func GramOfDense(a *matrix.Mat) *Gram {
	g := &Gram{AtA: matrix.New(a.Cols, a.Cols), MaxAbs: a.MaxAbs()}
	blas.Dsyrk(true, true, a.Cols, a.Rows, 1, a.Data, a.LD, 0, g.AtA.Data, g.AtA.LD)
	return g
}

// GramOfTileRows returns the Gram of tile rows [lo, hi) of a, the only rows
// whose tiles need exist. Tile row i contributes tile(i,l)ᵀ·tile(i,j) to
// block (l, j): a Dsyrk on the block diagonal, a Dgemm above it.
func GramOfTileRows(a *matrix.Tiled, lo, hi int) *Gram {
	g := &Gram{AtA: matrix.New(a.N, a.N)}
	c, ld := g.AtA.Data, g.AtA.LD
	for i := lo; i < hi; i++ {
		for j := 0; j < a.NT; j++ {
			tj := a.Tile(i, j)
			g.MaxAbs = max(g.MaxAbs, tj.MaxAbs())
			for l := 0; l < j; l++ {
				tl := a.Tile(i, l)
				blas.Dgemm(true, false, tl.Cols, tj.Cols, tj.Rows, 1, tl.Data, tl.LD,
					tj.Data, tj.LD, 1, c[l*a.NB+j*a.NB*ld:], ld)
			}
			blas.Dsyrk(true, true, tj.Cols, tj.Rows, 1, tj.Data, tj.LD, 1, c[j*a.NB+j*a.NB*ld:], ld)
		}
	}
	return g
}

// add folds the Gram of another row block into g.
func (g *Gram) add(o *Gram) {
	for j := 0; j < g.AtA.Cols; j++ {
		for i := 0; i <= j; i++ {
			g.AtA.Add(i, j, o.AtA.At(i, j))
		}
	}
	g.MaxAbs = max(g.MaxAbs, o.MaxAbs)
}

// Residual returns ‖AᵀA − RᵀR‖_F / ‖AᵀA‖_F, the backward error of R as a
// factor of the matrix g was taken from, without forming Q.
func (g *Gram) Residual(r *matrix.Mat) float64 {
	rtr := matrix.New(r.Cols, r.Cols)
	blas.Dsyrk(true, true, r.Cols, r.Rows, 1, r.Data, r.LD, 0, rtr.Data, rtr.LD)
	mirrorUpper(g.AtA)
	mirrorUpper(rtr)
	return g.AtA.Sub(rtr).FrobNorm() / g.AtA.FrobNorm()
}

// mirrorUpper completes a symmetric matrix from its upper triangle.
func mirrorUpper(m *matrix.Mat) {
	for j := 0; j < m.Cols; j++ {
		for i := j + 1; i < m.Rows; i++ {
			m.Set(i, j, m.At(j, i))
		}
	}
}

// The wire form of a Gram, for the reduce onto rank 0: max|A|, then AtA as
// the runtime ships any matrix.

func (g *Gram) encode() []byte {
	return pulsar.AppendMat(binary.LittleEndian.AppendUint64(nil, math.Float64bits(g.MaxAbs)), g.AtA)
}

func decodeGram(b []byte, n int) (*Gram, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("qr: gram packet too short (%d bytes)", len(b))
	}
	ata, err := pulsar.DecodeMat(b[8:])
	if err != nil {
		return nil, err
	}
	if ata.Rows != n || ata.Cols != n {
		return nil, fmt.Errorf("qr: gram packet holds a %dx%d matrix, want %dx%d", ata.Rows, ata.Cols, n, n)
	}
	return &Gram{AtA: ata, MaxAbs: math.Float64frombits(binary.LittleEndian.Uint64(b))}, nil
}
