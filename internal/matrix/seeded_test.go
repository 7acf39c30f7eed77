package matrix

import (
	"math"
	"testing"
)

// The matrix a seed denotes is defined entry by entry: any block filled
// alone — any origin, any shape, a strided destination — equals the same
// block of the whole matrix bit for bit.
func TestFillSeededBlocksMatchWhole(t *testing.T) {
	const m, n, seed = 70, 37, 5
	whole := NewSeeded(m, n, seed)
	for _, blk := range []struct{ i0, j0, rows, cols int }{
		{0, 0, m, n}, {0, 0, 1, 1}, {69, 36, 1, 1}, {13, 7, 32, 11}, {64, 0, 6, 37}, {0, 32, 70, 5},
	} {
		host := New(blk.rows+3, blk.cols) // a view with LD > Rows
		dst := host.View(2, 0, blk.rows, blk.cols)
		FillSeeded(dst, seed, blk.i0, blk.j0)
		if d := MaxAbsDiff(dst, whole.View(blk.i0, blk.j0, blk.rows, blk.cols)); d != 0 {
			t.Errorf("block %+v differs from the whole matrix by %g", blk, d)
		}
		if host.At(0, 0) != 0 || host.At(1, 0) != 0 || host.At(blk.rows+2, blk.cols-1) != 0 {
			t.Errorf("block %+v: FillSeeded wrote outside its view", blk)
		}
	}
}

// Entries lie strictly inside (−1, 1), look uniform, and depend on the seed,
// the row and the column.
func TestSeededDistribution(t *testing.T) {
	a := NewSeeded(400, 50, 1)
	var sum, sumSq float64
	for _, v := range a.Data {
		if !(v > -1 && v < 1) || v == 0 {
			t.Fatalf("entry %v outside (−1, 1) or zero", v)
		}
		sum += v
		sumSq += v * v
	}
	cnt := float64(len(a.Data))
	if mean := sum / cnt; math.Abs(mean) > 0.02 {
		t.Errorf("mean %g, want about 0", mean)
	}
	if v := sumSq / cnt; math.Abs(v-1.0/3) > 0.02 {
		t.Errorf("second moment %g, want about 1/3", v)
	}
	if b := NewSeeded(400, 50, 2); MaxAbsDiff(a, b) == 0 {
		t.Error("seeds 1 and 2 denote the same matrix")
	}
	if a.At(0, 0) == a.At(1, 0) || a.At(0, 0) == a.At(0, 1) || a.At(1, 0) == a.At(0, 1) {
		t.Error("neighbouring entries coincide")
	}
	// Columns are distinct streams, not shifts of one another.
	for j := 1; j < a.Cols; j++ {
		for s := -2; s <= 2; s++ {
			i := 10
			if a.At(i, 0) == a.At(i+s, j) {
				t.Errorf("column %d repeats column 0 at shift %d", j, s)
			}
		}
	}
}

func TestTiledShell(t *testing.T) {
	sh := NewTiledShell(10, 7, 4)
	if sh.M != 10 || sh.N != 7 || sh.NB != 4 || sh.MT != 3 || sh.NT != 2 {
		t.Fatalf("shell layout %+v", sh)
	}
	for i := 0; i < sh.MT; i++ {
		for j := 0; j < sh.NT; j++ {
			if sh.Tile(i, j) != nil {
				t.Fatalf("shell tile (%d,%d) is allocated", i, j)
			}
		}
	}
	tile := New(2, 3) // the ragged corner
	sh.SetTile(2, 1, tile)
	if sh.Tile(2, 1) != tile {
		t.Fatal("SetTile did not place the tile")
	}
	full := NewTiled(10, 7, 4)
	for i := 0; i < full.MT; i++ {
		for j := 0; j < full.NT; j++ {
			if tl := full.Tile(i, j); tl == nil || tl.Rows != full.TileRows(i) || tl.Cols != full.TileCols(j) || tl.MaxAbs() != 0 {
				t.Fatalf("NewTiled tile (%d,%d) = %v, want a zero tile of the layout's shape", i, j, tl)
			}
		}
	}
}
