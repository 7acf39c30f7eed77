package matrix

// Seeded input. The matrix a seed denotes is defined entry by entry: element
// (i, j) is a pure function of (seed, i, j), uniform on (−1, 1). Any block —
// one tile, the tile rows one rank of a fleet owns, the whole matrix — can
// therefore be produced alone, in any order, and is identical however the
// matrix is tiled or distributed. (NewRand, by contrast, draws from one
// sequential stream: entry (i, j) depends on every entry before it.)
//
// Column j is a SplitMix64 stream keyed by (seed, j) and addressed by the row
// index: the stream's i-th state is key + (i+1)·γ, so reading it at row i
// costs one finalizer, not i steps.

const seedGamma = 0x9e3779b97f4a7c15 // SplitMix64's increment (2⁶⁴/φ, odd)

// mix64 is the SplitMix64 output finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// seededCol returns the stream key of column j.
func seededCol(seed int64, j int) uint64 {
	return mix64(uint64(seed) ^ mix64(uint64(j)+seedGamma))
}

// seededAt reads a column stream at row i. The top 53 bits, forced odd, are
// an integer in (−2⁵², 2⁵²), so the value is exact, never ±1 and never 0.
func seededAt(col uint64, i int) float64 {
	z := mix64(col + (uint64(i)+1)*seedGamma)
	return float64(int64(z)>>11|1) * (1.0 / (1 << 52))
}

// FillSeeded overwrites dst with the block of the seeded matrix whose
// top-left element is (i0, j0).
func FillSeeded(dst *Mat, seed int64, i0, j0 int) {
	for j := 0; j < dst.Cols; j++ {
		key := seededCol(seed, j0+j)
		col := dst.Data[j*dst.LD : j*dst.LD+dst.Rows]
		for i := range col {
			col[i] = seededAt(key, i0+i)
		}
	}
}

// NewSeeded returns the whole rows×cols seeded matrix.
func NewSeeded(rows, cols int, seed int64) *Mat {
	m := New(rows, cols)
	FillSeeded(m, seed, 0, 0)
	return m
}
