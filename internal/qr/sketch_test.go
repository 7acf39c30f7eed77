package qr

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/transport"
)

func TestRowOwnership(t *testing.T) {
	for _, tc := range []struct{ mt, nodes int }{{1, 1}, {5, 1}, {5, 2}, {5, 4}, {128, 2}, {3, 5}, {7, 3}} {
		next := 0
		for node := 0; node < tc.nodes; node++ {
			lo, hi := OwnedTileRows(tc.mt, tc.nodes, node)
			if lo != next || hi < lo {
				t.Fatalf("mt=%d nodes=%d: node %d owns [%d,%d), want a block starting at %d", tc.mt, tc.nodes, node, lo, hi, next)
			}
			for row := lo; row < hi; row++ {
				if got := TileRowOwner(tc.mt, tc.nodes, row); got != node {
					t.Errorf("mt=%d nodes=%d: row %d is in node %d's block but TileRowOwner says %d", tc.mt, tc.nodes, row, node, got)
				}
			}
			next = hi
		}
		if next != tc.mt {
			t.Errorf("mt=%d nodes=%d: blocks cover %d rows", tc.mt, tc.nodes, next)
		}
	}
}

// ownedOnly returns a's layout holding deep copies of tile rows [lo, hi)
// and nothing else: what one rank of a fleet builds.
func ownedOnly(a *matrix.Tiled, lo, hi int) *matrix.Tiled {
	out := matrix.NewTiledShell(a.M, a.N, a.NB)
	for i := lo; i < hi; i++ {
		for j := 0; j < a.NT; j++ {
			out.SetTile(i, j, a.Tile(i, j).Clone())
		}
	}
	return out
}

// sketchOfTileRows is the sketch of tile rows [lo, hi) of a under the probe
// seed denotes.
func sketchOfTileRows(a *matrix.Tiled, lo, hi int, seed int64) *Sketch {
	s := NewSketch(a.N, seed)
	for i := lo; i < hi; i++ {
		s.AddTileRow(a, i)
	}
	return s
}

// serveFleet runs FactorizeVSAIn as `ranks` in-process service ranks, each
// holding only its owned tile rows of d and their sketch under the probe
// seed `probe`, and returns rank 0's result. wrap, when non-nil, interposes
// on each rank's endpoint; mutate, when non-nil, edits a rank's owned tiles
// after their sketch was taken.
func serveFleet(t *testing.T, d *matrix.Mat, o Options, ranks int, probe int64,
	wrap func(transport.Endpoint) transport.Endpoint, mutate func(rank int, a *matrix.Tiled)) *Factorization {
	t.Helper()
	lw := transport.NewLocal(ranks)
	whole := matrix.FromDense(d, o.NB)
	results := make([]*Factorization, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lo, hi := OwnedTileRows(whole.MT, ranks, r)
			a := ownedOnly(whole, lo, hi)
			part := sketchOfTileRows(a, lo, hi, probe)
			if mutate != nil {
				mutate(r, a)
			}
			var ep transport.Endpoint = lw.Endpoint(r)
			if wrap != nil {
				ep = wrap(ep)
			}
			results[r], errs[r] = FactorizeVSAIn(context.Background(), a, nil, o, RunConfig{Threads: 2}, Env{Endpoint: ep, Part: part})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d of %d: %v", r, ranks, err)
		}
		if r > 0 && results[r] != nil {
			t.Fatalf("rank %d returned a factorization; only rank 0 assembles", r)
		}
	}
	return results[0]
}

// naiveResidual is the dense check as it was first written — two naive
// products over the dense input — kept as the oracle for the sketch.
func naiveResidual(a, r *matrix.Mat) float64 {
	ata := a.Transpose().Mul(a)
	rtr := r.Transpose().Mul(r)
	return ata.Sub(rtr).FrobNorm() / ata.FrobNorm()
}

// acceptTol is the threshold the service accepts a job's residual at
// (service.residualTol).
const acceptTol = 1e-10

// The check rank 0 makes from the ranks' partial sketches estimates the
// check the dense formula makes, for 1, 2 and 3 ranks, ragged shapes,
// tile-row counts the rank count does not divide, and every tree: the partial
// Z's sum to the whole matrix's AᵀA·X; on a correct R and on Rs perturbed
// from 1e-8 to 1e-1 of their scale, the sketched residual is within 10× of
// the dense one; and no R whose dense residual is 1e4 × the acceptance
// threshold or more passes. The probe seeds are fixed, so the outcome is too.
func TestReducedCheckEqualsDenseReference(t *testing.T) {
	trees := []Options{
		{NB: 8, IB: 4, Tree: FlatTree},
		{NB: 8, IB: 4, Tree: BinaryTree},
		{NB: 8, IB: 4, Tree: HierarchicalTree, H: 3},
	}
	seed := int64(0)
	for _, shape := range [][2]int{{61, 17}, {77, 29}, {40, 40}} { // MT = 8, 10, 5
		for _, o := range trees {
			for ranks := 1; ranks <= 3; ranks++ {
				seed++
				where := fmt.Sprintf("%v %v ranks=%d", shape, o.Tree, ranks)
				d := matrix.NewSeeded(shape[0], shape[1], seed)
				f := serveFleet(t, d, o, ranks, 1000+seed, nil, nil)
				if !f.ROnly || f.Input == nil {
					t.Fatalf("%s: served result ROnly=%v Input=%v", where, f.ROnly, f.Input)
				}
				z := d.Transpose().Mul(d.Mul(f.Input.X))
				if rel := f.Input.Z.Sub(z).FrobNorm() / z.FrobNorm(); rel > 1e-13 {
					t.Errorf("%s: reduced Z differs from AᵀA·X by %g relative", where, rel)
				}

				r := f.R()
				rng := rand.New(rand.NewSource(seed))
				type candidate struct {
					name string
					r    *matrix.Mat
				}
				cands := []candidate{{"correct R", r}}
				for _, delta := range []float64{1e-1, 1e-3, 1e-5, 1e-7, 1e-8} {
					i := rng.Intn(r.Cols)
					j := i + rng.Intn(r.Cols-i)
					one := r.Clone()
					one.Add(i, j, delta*r.MaxAbs())
					scaled := r.Clone()
					for k := range scaled.Data {
						scaled.Data[k] *= 1 + delta
					}
					noisy := r.Clone()
					for jj := 0; jj < r.Cols; jj++ {
						for ii := 0; ii <= jj; ii++ {
							noisy.Add(ii, jj, delta*r.MaxAbs()*(2*rng.Float64()-1))
						}
					}
					cands = append(cands,
						candidate{fmt.Sprintf("R(%d,%d) off by %g", i, j, delta), one},
						candidate{fmt.Sprintf("R scaled by 1+%g", delta), scaled},
						candidate{fmt.Sprintf("R with noise %g", delta), noisy})
				}
				for _, c := range cands {
					sketched, dense := f.Input.Residual(c.r), naiveResidual(d, c.r)
					if ratio := sketched / dense; !(ratio >= 0.1 && ratio <= 10) {
						t.Errorf("%s, %s: sketched residual %g, dense %g", where, c.name, sketched, dense)
					}
					if dense >= 1e4*acceptTol && sketched <= acceptTol {
						t.Errorf("%s, %s: dense residual %g, yet the sketch (%g) accepts", where, c.name, dense, sketched)
					}
				}
			}
		}
	}
}

// A tile that changes after its rank took the sketch — on a rank other than
// 0 — is factored into an R that no longer matches the reduced sketch: the
// check is of the input as it was handed over, not of whatever ran.
func TestReducedCheckSeesTileChangedAfterSketch(t *testing.T) {
	d := matrix.NewSeeded(96, 24, 7)
	o := Options{NB: 8, IB: 4, Tree: HierarchicalTree, H: 3}
	f := serveFleet(t, d, o, 2, 8, nil, func(rank int, a *matrix.Tiled) {
		if rank == 1 {
			lo, _ := OwnedTileRows(a.MT, 2, 1)
			a.Tile(lo, 1).Add(3, 2, 0.25)
		}
	})
	if res := f.Input.Residual(f.R()); res < 1e-6 {
		t.Fatalf("residual %g: a tile corrupted after its sketch went unnoticed", res)
	}
}

// sketchFlagsAsDenseDoes holds the job check to the dense formula on one of
// TestHardInputsAtDefaultTile's inputs: the sketch of d refuses f's R
// exactly when Residual does.
func sketchFlagsAsDenseDoes(t *testing.T, d *matrix.Mat, f *Factorization, nb int) {
	t.Helper()
	a := matrix.FromDense(d, nb)
	sketched, dense := sketchOfTileRows(a, 0, a.MT, 1).Residual(f.R()), f.Residual(d)
	if sketched <= acceptTol != (dense <= acceptTol) {
		t.Errorf("sketched residual %g, dense %g: the two checks disagree at %g", sketched, dense, acceptTol)
	}
}

// gatherMeter counts what a rank sends in the post-run gather.
type gatherMeter struct {
	transport.Endpoint
	bytes *atomic.Int64
}

func (g gatherMeter) Isend(data []byte, dest, tag int) transport.Request {
	if tag >= transport.GatherTagBase {
		g.bytes.Add(int64(len(data)))
	}
	return g.Endpoint.Isend(data, dest, tag)
}

// A served factorization is the full one minus the reflectors: R bitwise
// equal, the reflector-dependent methods refusing loudly, and a non-zero
// rank shipping O(n²) bytes to rank 0 where the full-log gather ships every
// reflector tile it owns.
func TestServeGathersROnly(t *testing.T) {
	const m, n = 512, 32
	o := Options{NB: 8, IB: 4, Tree: HierarchicalTree, H: 3}
	d := matrix.NewSeeded(m, n, 11)
	full, err := FactorizeVSA(matrix.FromDense(d, o.NB), nil, o, RunConfig{Nodes: 2, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}

	var sent [2]atomic.Int64
	meter := func(ep transport.Endpoint) transport.Endpoint {
		return gatherMeter{ep, &sent[ep.Rank()]}
	}
	f := serveFleet(t, d, o, 2, 12, meter, nil)
	if diff := matrix.MaxAbsDiff(f.R(), full.R()); diff != 0 {
		t.Errorf("served R differs from the full-log R by %g; want bitwise equality", diff)
	}
	if len(f.log) != 0 {
		t.Errorf("served factorization carries %d log entries", len(f.log))
	}
	for name, call := range map[string]func(){
		"ApplyQ":  func() { f.ApplyQ(matrix.NewTiled(m, 1, o.NB)) },
		"ApplyQT": func() { f.ApplyQT(matrix.NewTiled(m, 1, o.NB)) },
		"Solve":   func() { f.Solve(matrix.New(m, 1)) },
		"Q":       func() { f.Q() },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "R-only") {
					t.Errorf("%s on a served factorization: recovered %q, want a panic naming the R-only gather", name, msg)
				}
			}()
			call()
		}()
	}
	if sent[0].Load() != 0 {
		t.Errorf("rank 0 sent %d gather bytes to itself", sent[0].Load())
	}
	// Rank 1 owns no row of R here (n/nb = 4 tile rows, all rank 0's), so
	// its whole gather is its sketch: a matrix header and n×k entries.
	if got, want := sent[1].Load(), int64(8+8*n*sketchWidth); got != want {
		t.Errorf("rank 1 sent %d bytes in the gather, want its %d-byte sketch", got, want)
	}

	// The same run with the full log gathered, for scale: rank 1 ships the
	// reflectors of its half of the matrix.
	var logSent [2]atomic.Int64
	lw := transport.NewLocal(2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep := gatherMeter{lw.Endpoint(r), &logSent[r]}
			if _, err := FactorizeVSAIn(context.Background(), matrix.FromDense(d, o.NB), nil, o, RunConfig{Threads: 2}, Env{Endpoint: ep}); err != nil {
				t.Errorf("full-log rank %d: %v", r, err)
			}
		}(r)
	}
	wg.Wait()
	if got := logSent[1].Load(); got < 8*m/2*n {
		t.Errorf("full-log gather sent %d bytes from rank 1, expected at least its %d bytes of reflector tiles", got, 8*m/2*n)
	}
}

// With right-hand sides riding along, the served result still carries QᵀB
// — gathered from whichever rank finished each tile — and solves from it.
func TestServeGathersQTB(t *testing.T) {
	o := Options{NB: 8, IB: 4, Tree: HierarchicalTree, H: 3}
	d := matrix.NewSeeded(61, 17, 13)
	b := matrix.NewSeeded(61, 3, 14)
	seq, err := Factorize(matrix.FromDense(d, o.NB), matrix.FromDense(b, o.NB), o)
	if err != nil {
		t.Fatal(err)
	}
	const ranks = 3
	lw := transport.NewLocal(ranks)
	results := make([]*Factorization, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			a, bt := matrix.FromDense(d, o.NB), matrix.FromDense(b, o.NB)
			lo, hi := OwnedTileRows(a.MT, ranks, r)
			var err error
			results[r], err = FactorizeVSAIn(context.Background(), ownedOnly(a, lo, hi), ownedOnly(bt, lo, hi), o, RunConfig{Threads: 2},
				Env{Endpoint: lw.Endpoint(r), Part: sketchOfTileRows(a, lo, hi, 15)})
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
			}
		}(r)
	}
	wg.Wait()
	f := results[0]
	if f == nil {
		t.Fatal("rank 0 returned no factorization")
	}
	if diff := matrix.MaxAbsDiff(f.QTB.ToDense(), seq.QTB.ToDense()); diff != 0 {
		t.Errorf("served QᵀB differs from the sequential one by %g", diff)
	}
	if diff := matrix.MaxAbsDiff(f.SolveFromQTB(), seq.SolveFromQTB()); diff != 0 {
		t.Errorf("served least-squares solution differs by %g", diff)
	}
}

// assemble starts from a tile-less shell, so every tile of a full-log
// result must be one a collector delivered: none may be left nil, whatever
// the tree and however ragged the edges.
func TestAssembleFillsEveryTile(t *testing.T) {
	for _, o := range []Options{
		{NB: 8, IB: 4, Tree: FlatTree},
		{NB: 8, IB: 4, Tree: BinaryTree},
		{NB: 8, IB: 4, Tree: HierarchicalTree, H: 3},
	} {
		for _, shape := range [][2]int{{61, 17}, {40, 40}, {9, 3}, {64, 8}} {
			d := matrix.NewSeeded(shape[0], shape[1], 3)
			b := matrix.NewSeeded(shape[0], 5, 4)
			f, err := FactorizeVSA(matrix.FromDense(d, o.NB), matrix.FromDense(b, o.NB), o, RunConfig{Nodes: 2, Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			for name, tl := range map[string]*matrix.Tiled{"A": f.A, "QTB": f.QTB} {
				for i := 0; i < tl.MT; i++ {
					for j := 0; j < tl.NT; j++ {
						if tl.Tile(i, j) == nil {
							t.Errorf("%v %v: %s tile (%d,%d) was never placed", o.Tree, shape, name, i, j)
						}
					}
				}
			}
		}
	}
}

// A peer's sketch packet is believed only if it is exactly an n×k matrix:
// wrong dimensions, a short or long payload, or garbage are errors, never a
// panic.
func FuzzDecodeSketch(f *testing.F) {
	good := NewSketch(5, 1).encode()
	f.Add(good, 5)
	f.Add(good, 4)
	f.Add(good[:len(good)-1], 5)
	f.Add(append(good, 0), 5)
	f.Add(NewSketch(4, 1).encode(), 5)
	f.Add([]byte{}, 0)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 4, 0, 0, 0}, -1)
	f.Fuzz(func(t *testing.T, b []byte, n int) {
		z, err := decodeSketch(b, n)
		if err == nil && (z.Rows != n || z.Cols != sketchWidth || len(b) != 8+8*n*sketchWidth) {
			t.Fatalf("accepted a %dx%d sketch from %d bytes for n=%d", z.Rows, z.Cols, len(b), n)
		}
	})
}

// BenchmarkSketchOfTileRows times rank 0's share of the job_fleet check:
// 22 tile rows of an 8192×256 input at the library tile.
func BenchmarkSketchOfTileRows(b *testing.B) {
	const m, n = 8192, 256
	nb := DefaultOptions().NB
	a := matrix.FromDense(matrix.NewSeeded(m, n, 1), nb)
	lo, hi := OwnedTileRows(a.MT, 2, 0)
	s := NewSketch(n, 2)
	b.SetBytes(int64(8 * (hi - lo) * nb * n))
	b.ResetTimer()
	for range b.N {
		for i := lo; i < hi; i++ {
			s.AddTileRow(a, i)
		}
	}
}
