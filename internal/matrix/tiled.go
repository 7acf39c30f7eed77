package matrix

import "fmt"

// Tiled is a matrix partitioned into NB×NB tiles (edge tiles may be
// smaller). Tiles are stored independently and contiguously, which is the
// cache-friendly layout tile algorithms rely on, and which lets tiles be
// shipped between nodes as single packets.
type Tiled struct {
	M, N   int // global dimensions
	NB     int // tile size
	MT, NT int // number of tile rows / columns
	Tiles  [][]*Mat
}

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// NewTiled returns a zero Tiled matrix of global size m×n with tile size nb.
func NewTiled(m, n, nb int) *Tiled {
	t := NewTiledShell(m, n, nb)
	for i := 0; i < t.MT; i++ {
		for j := 0; j < t.NT; j++ {
			t.Tiles[i][j] = New(t.TileRows(i), t.TileCols(j))
		}
	}
	return t
}

// NewTiledShell returns the m×n layout with tile size nb and no tile
// allocated: every Tile(i, j) is nil until SetTile places one. It is the
// container for a matrix whose tiles already exist somewhere (a result being
// assembled from collected tiles) or exist only in part (the tile rows one
// rank of a fleet owns); the whole-matrix methods — ToDense, Clone — need
// every tile present.
func NewTiledShell(m, n, nb int) *Tiled {
	if m < 0 || n < 0 || nb <= 0 {
		panic(fmt.Sprintf("matrix: bad tiled dimensions m=%d n=%d nb=%d", m, n, nb))
	}
	mt, nt := ceilDiv(m, nb), ceilDiv(n, nb)
	if m == 0 {
		mt = 0
	}
	if n == 0 {
		nt = 0
	}
	t := &Tiled{M: m, N: n, NB: nb, MT: mt, NT: nt}
	t.Tiles = make([][]*Mat, mt)
	for i := range t.Tiles {
		t.Tiles[i] = make([]*Mat, nt)
	}
	return t
}

// TileRows returns the number of rows in tile row i.
func (t *Tiled) TileRows(i int) int {
	if i == t.MT-1 {
		if r := t.M - i*t.NB; r > 0 {
			return r
		}
	}
	return t.NB
}

// TileCols returns the number of columns in tile column j.
func (t *Tiled) TileCols(j int) int {
	if j == t.NT-1 {
		if c := t.N - j*t.NB; c > 0 {
			return c
		}
	}
	return t.NB
}

// Tile returns tile (i, j).
func (t *Tiled) Tile(i, j int) *Mat { return t.Tiles[i][j] }

// SetTile replaces tile (i, j). The shape must match the layout.
func (t *Tiled) SetTile(i, j int, m *Mat) {
	if m.Rows != t.TileRows(i) || m.Cols != t.TileCols(j) {
		panic(fmt.Sprintf("matrix: tile (%d,%d) shape %dx%d does not match layout %dx%d",
			i, j, m.Rows, m.Cols, t.TileRows(i), t.TileCols(j)))
	}
	t.Tiles[i][j] = m
}

// FromDense converts a dense matrix to tile layout.
func FromDense(d *Mat, nb int) *Tiled {
	t := NewTiled(d.Rows, d.Cols, nb)
	for i := 0; i < t.MT; i++ {
		for j := 0; j < t.NT; j++ {
			t.Tiles[i][j].CopyFrom(d.View(i*nb, j*nb, t.TileRows(i), t.TileCols(j)))
		}
	}
	return t
}

// ToDense converts back to a dense column-major matrix.
func (t *Tiled) ToDense() *Mat {
	d := New(t.M, t.N)
	for i := 0; i < t.MT; i++ {
		for j := 0; j < t.NT; j++ {
			d.View(i*t.NB, j*t.NB, t.TileRows(i), t.TileCols(j)).CopyFrom(t.Tiles[i][j])
		}
	}
	return d
}

// Clone returns a deep copy.
func (t *Tiled) Clone() *Tiled {
	c := NewTiled(t.M, t.N, t.NB)
	for i := 0; i < t.MT; i++ {
		for j := 0; j < t.NT; j++ {
			c.Tiles[i][j].CopyFrom(t.Tiles[i][j])
		}
	}
	return c
}

// UpperTiles returns the dense upper-triangular R factor held in the first
// NT tile rows after a QR factorization (strictly-lower parts zeroed).
func (t *Tiled) UpperTiles() *Mat { return t.UpperTilesInto(New(t.N, t.N)) }

// UpperTilesInto is UpperTiles into r, an N×N matrix, and returns r. It
// writes the upper triangle only: r's strictly lower part is left as it is.
func (t *Tiled) UpperTilesInto(r *Mat) *Mat {
	n := t.N
	for j := 0; j < t.NT; j++ {
		for i := 0; i <= j && i < t.MT; i++ {
			rows, cols := t.TileRows(i), t.TileCols(j)
			if i*t.NB >= n {
				continue
			}
			if i*t.NB+rows > n {
				rows = n - i*t.NB
			}
			src := t.Tiles[i][j]
			dst := r.View(i*t.NB, j*t.NB, rows, cols)
			if i == j {
				for jj := 0; jj < cols; jj++ {
					for ii := 0; ii <= jj && ii < rows; ii++ {
						dst.Set(ii, jj, src.At(ii, jj))
					}
				}
			} else {
				dst.CopyFrom(src.View(0, 0, rows, cols))
			}
		}
	}
	return r
}
