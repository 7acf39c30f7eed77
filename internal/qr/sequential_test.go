package qr

import (
	"math/rand"
	"testing"

	"pulsarqr/internal/matrix"
)

// allTreeOpts enumerates representative option sets covering every tree
// kind, both boundary policies, and awkward blocking parameters.
func allTreeOpts() []Options {
	return []Options{
		{NB: 8, IB: 4, Tree: FlatTree},
		{NB: 8, IB: 4, Tree: BinaryTree},
		{NB: 8, IB: 4, Tree: HierarchicalTree, H: 3},
		{NB: 8, IB: 4, Tree: HierarchicalTree, H: 3, Boundary: FixedBoundary},
		{NB: 8, IB: 3, Tree: HierarchicalTree, H: 2},
		{NB: 8, IB: 8, Tree: HierarchicalTree, H: 4},
		{NB: 5, IB: 2, Tree: HierarchicalTree, H: 3},
	}
}

func factorDense(t *testing.T, d *matrix.Mat, o Options) *Factorization {
	t.Helper()
	f, err := Factorize(matrix.FromDense(d, o.NB), nil, o)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSequentialResidualAllTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, o := range allTreeOpts() {
		for _, shape := range [][2]int{{40, 16}, {37, 11}, {64, 8}, {16, 16}, {9, 9}} {
			d := matrix.NewRand(shape[0], shape[1], rng)
			f := factorDense(t, d, o)
			if res := f.Residual(d); res > 1e-13 {
				t.Fatalf("%v %v: residual %v", o, shape, res)
			}
		}
	}
}

func TestSequentialQReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, o := range allTreeOpts() {
		m, n := 33, 13
		d := matrix.NewRand(m, n, rng)
		f := factorDense(t, d, o)

		// Build Q·R by applying Q to [R; 0] through the op log.
		r := f.R()
		stack := matrix.New(m, n)
		stack.View(0, 0, n, n).CopyFrom(r)
		st := matrix.FromDense(stack, o.NB)
		f.ApplyQ(st)
		if diff := matrix.MaxAbsDiff(st.ToDense(), d); diff > 1e-12 {
			t.Fatalf("%v: ||QR − A|| = %v", o, diff)
		}

		// Orthogonality: QᵀQ = I via applying Qᵀ then Q to random data.
		b := matrix.NewRand(m, 3, rng)
		bt := matrix.FromDense(b, o.NB)
		f.ApplyQT(bt)
		f.ApplyQ(bt)
		if diff := matrix.MaxAbsDiff(bt.ToDense(), b); diff > 1e-12 {
			t.Fatalf("%v: Q Qᵀ b != b: %v", o, diff)
		}
	}
}

func TestRideAlongMatchesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, o := range allTreeOpts() {
		m, n, nrhs := 29, 10, 4
		d := matrix.NewRand(m, n, rng)
		b := matrix.NewRand(m, nrhs, rng)

		// Path 1: ride-along.
		f1, err := Factorize(matrix.FromDense(d, o.NB), matrix.FromDense(b, o.NB), o)
		if err != nil {
			t.Fatal(err)
		}
		// Path 2: replay after the fact.
		f2 := factorDense(t, d, o)
		bt := matrix.FromDense(b, o.NB)
		f2.ApplyQT(bt)

		if diff := matrix.MaxAbsDiff(f1.QTB.ToDense(), bt.ToDense()); diff != 0 {
			t.Fatalf("%v: ride-along and replay disagree by %v", o, diff)
		}
	}
}

func TestLeastSquaresExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	o := Options{NB: 8, IB: 4, Tree: HierarchicalTree, H: 3}
	m, n := 50, 12
	d := matrix.NewRand(m, n, rng)
	xTrue := matrix.NewRand(n, 2, rng)
	b := d.Mul(xTrue)
	f := factorDense(t, d, o)
	x := f.Solve(b)
	if diff := matrix.MaxAbsDiff(x, xTrue); diff > 1e-10 {
		t.Fatalf("exact system not recovered: %v", diff)
	}
}

func TestLeastSquaresNormalEquations(t *testing.T) {
	// For inconsistent b, the solution must satisfy Aᵀ(Ax − b) = 0.
	rng := rand.New(rand.NewSource(5))
	o := Options{NB: 8, IB: 4, Tree: BinaryTree}
	m, n := 41, 9
	d := matrix.NewRand(m, n, rng)
	b := matrix.NewRand(m, 1, rng)
	f := factorDense(t, d, o)
	x := f.Solve(b)
	grad := d.Transpose().Mul(d.Mul(x).Sub(b))
	if g := grad.MaxAbs(); g > 1e-11 {
		t.Fatalf("normal equations violated: %v", g)
	}
}

func TestSolveFromQTBMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	o := Options{NB: 8, IB: 4, Tree: HierarchicalTree, H: 2}
	m, n := 30, 10
	d := matrix.NewRand(m, n, rng)
	b := matrix.NewRand(m, 3, rng)
	f, err := Factorize(matrix.FromDense(d, o.NB), matrix.FromDense(b, o.NB), o)
	if err != nil {
		t.Fatal(err)
	}
	x1 := f.SolveFromQTB()
	x2 := f.Solve(b)
	if diff := matrix.MaxAbsDiff(x1, x2); diff > 1e-12 {
		t.Fatalf("solve paths disagree: %v", diff)
	}
}

func TestFactorizeRejectsBadShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	o := Options{NB: 8, IB: 4}
	if _, err := Factorize(matrix.FromDense(matrix.NewRand(5, 9, rng), 8), nil, o); err == nil {
		t.Fatal("wide matrix must be rejected")
	}
	a := matrix.FromDense(matrix.NewRand(16, 8, rng), 4)
	if _, err := Factorize(a, nil, o); err == nil {
		t.Fatal("tile-size mismatch must be rejected")
	}
	a = matrix.FromDense(matrix.NewRand(16, 8, rng), 8)
	badB := matrix.FromDense(matrix.NewRand(8, 2, rng), 8)
	if _, err := Factorize(a, badB, o); err == nil {
		t.Fatal("rhs row mismatch must be rejected")
	}
}

func TestOpLogStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	o := Options{NB: 4, IB: 2, Tree: HierarchicalTree, H: 2}
	d := matrix.NewRand(16, 8, rng) // mt=4, nt=2
	f := factorDense(t, d, o)
	// Panel 0: 2 domains of 2 -> 2 geqrt + 2 tsqrt + 1 ttqrt.
	// Panel 1: rows 1..3 -> domains [1,2],[3] -> 2 geqrt + 1 tsqrt + 1 ttqrt.
	// The log holds one (V,T) per panel call of the listing.
	calls := panelCalls(f.A.MT, f.A.NT, f.Opts)
	var n [NumKernels]int
	for _, c := range calls {
		n[c.Kernel]++
		if c.Kernel == Geqrt && c.K != -1 {
			t.Fatal("geqrt call must have K=-1")
		}
	}
	if n[Geqrt] != 4 || n[Tsqrt] != 3 || n[Ttqrt] != 2 {
		t.Fatalf("panel calls: geqrt=%d tsqrt=%d ttqrt=%d", n[Geqrt], n[Tsqrt], n[Ttqrt])
	}
	if len(f.log) != len(calls) {
		t.Fatalf("log holds %d entries for %d panel calls", len(f.log), len(calls))
	}
	for i, e := range f.log {
		if e.V == nil || e.T == nil {
			t.Fatalf("log entry %d (%v) must carry V and T", i, calls[i].Kernel)
		}
	}
}

func TestSingleTileMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	o := Options{NB: 8, IB: 4, Tree: HierarchicalTree, H: 4}
	d := matrix.NewRand(6, 6, rng)
	f := factorDense(t, d, o)
	if res := f.Residual(d); res > 1e-13 {
		t.Fatalf("single-tile residual %v", res)
	}
	if len(f.log) != 1 || f.log[0].V != f.A.Tile(0, 0) {
		t.Fatalf("single tile should need exactly one geqrt, got %+v", f.log)
	}
}
