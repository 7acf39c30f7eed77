package qr

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/pulsar"
)

// hilbertLike builds an ill-conditioned tall matrix: Vandermonde-ish
// columns on clustered nodes. Condition number grows fast with n.
func hilbertLike(m, n int) *matrix.Mat {
	a := matrix.New(m, n)
	for i := 0; i < m; i++ {
		x := float64(i+1) / float64(m+1)
		p := 1.0
		for j := 0; j < n; j++ {
			a.Set(i, j, p)
			p *= x
		}
	}
	return a
}

func TestIllConditionedResidualStaysSmall(t *testing.T) {
	// Householder QR is backward stable: ‖QR − A‖/‖A‖ must stay at machine
	// precision even when A is terribly conditioned.
	d := hilbertLike(60, 12)
	for _, o := range []Options{
		{NB: 8, IB: 4, Tree: HierarchicalTree, H: 3},
		{NB: 8, IB: 4, Tree: BinaryTree},
		{NB: 8, IB: 4, Tree: FlatTree},
	} {
		f := factorDense(t, d, o)
		q := f.Q()
		backward := matrix.MaxAbsDiff(q.Mul(f.R()), d) / d.MaxAbs()
		if backward > 1e-13 {
			t.Fatalf("%v: backward error %v", o, backward)
		}
		ortho := matrix.MaxAbsDiff(q.Transpose().Mul(q), matrix.Identity(12))
		if ortho > 1e-12 {
			t.Fatalf("%v: orthogonality loss %v", o, ortho)
		}
	}
}

func TestZeroMatrix(t *testing.T) {
	d := matrix.New(24, 8)
	o := Options{NB: 8, IB: 4, Tree: HierarchicalTree, H: 2}
	f := factorDense(t, d, o)
	if f.R().MaxAbs() != 0 {
		t.Fatal("R of the zero matrix must be zero")
	}
	// Q must still be orthogonal (identity reflectors).
	q := f.Q()
	if diff := matrix.MaxAbsDiff(q.Transpose().Mul(q), matrix.Identity(8)); diff > 1e-14 {
		t.Fatalf("zero-matrix Q not orthonormal: %v", diff)
	}
}

func TestIdentityInput(t *testing.T) {
	d := matrix.Identity(16)
	o := Options{NB: 8, IB: 4, Tree: HierarchicalTree, H: 2}
	f := factorDense(t, d.Clone(), o)
	r := f.R()
	for j := 0; j < 16; j++ {
		for i := 0; i <= j; i++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if diff := math.Abs(math.Abs(r.At(i, j)) - want); diff > 1e-14 {
				t.Fatalf("R(%d,%d) = %v", i, j, r.At(i, j))
			}
		}
	}
}

func TestHugeAndTinyScales(t *testing.T) {
	// Entries at 1e150 and 1e-150: the scaled norms must avoid overflow
	// and underflow.
	rng := rand.New(rand.NewSource(51))
	for _, scale := range []float64{1e150, 1e-150} {
		d := matrix.NewRand(24, 6, rng)
		for j := 0; j < d.Cols; j++ {
			for i := 0; i < d.Rows; i++ {
				d.Set(i, j, d.At(i, j)*scale)
			}
		}
		o := Options{NB: 8, IB: 4, Tree: HierarchicalTree, H: 2}
		f := factorDense(t, d.Clone(), o)
		r := f.R()
		for j := 0; j < r.Cols; j++ {
			for i := 0; i <= j; i++ {
				if math.IsNaN(r.At(i, j)) || math.IsInf(r.At(i, j), 0) {
					t.Fatalf("scale %g: R(%d,%d) = %v", scale, i, j, r.At(i, j))
				}
			}
		}
		q := f.Q()
		if diff := matrix.MaxAbsDiff(q.Transpose().Mul(q), matrix.Identity(6)); diff > 1e-12 {
			t.Fatalf("scale %g: Q not orthonormal: %v", scale, diff)
		}
	}
}

func TestRankDeficientColumns(t *testing.T) {
	// Duplicate columns: QR still completes with a (numerically) singular
	// R; the factorization itself must stay backward stable.
	rng := rand.New(rand.NewSource(52))
	d := matrix.NewRand(30, 9, rng)
	for i := 0; i < 30; i++ {
		d.Set(i, 5, d.At(i, 2)) // column 5 == column 2
	}
	o := Options{NB: 8, IB: 4, Tree: BinaryTree}
	f := factorDense(t, d.Clone(), o)
	q := f.Q()
	if diff := matrix.MaxAbsDiff(q.Mul(f.R()), d); diff > 1e-12 {
		t.Fatalf("rank-deficient backward error %v", diff)
	}
	// R(5,5) must be ~0 (the dependent column adds nothing new).
	if v := math.Abs(f.R().At(5, 5)); v > 1e-12 {
		t.Fatalf("R(5,5) = %v for a dependent column", v)
	}
}

// TestStressMediumHierarchicalMultiNode is a heavier end-to-end exercise:
// a 55-tile-row, 7-tile-column factorization with ride-along right-hand
// sides across 4 nodes and 3 threads each, checked against the sequential
// reference elementwise.
func TestStressMediumHierarchicalMultiNode(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(53))
	d := matrix.NewRand(437, 55, rng) // ragged edges on both dimensions
	b := matrix.NewRand(437, 5, rng)
	o := Options{NB: 8, IB: 4, Tree: HierarchicalTree, H: 5}
	seq, err := Factorize(matrix.FromDense(d, o.NB), matrix.FromDense(b, o.NB), o)
	if err != nil {
		t.Fatal(err)
	}
	vsa, err := FactorizeVSA(matrix.FromDense(d, o.NB), matrix.FromDense(b, o.NB), o,
		RunConfig{Nodes: 4, Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	assertFactorizationsEqual(t, seq, vsa)
	if res := vsa.Residual(d); res > 1e-13 {
		t.Fatalf("stress residual %v", res)
	}
}

// hardInput is one matrix of the hard-input table at the default tile.
type hardInput struct {
	name    string
	d       *matrix.Mat
	uniqueR bool // false: A is rank-deficient, exactly or numerically, so R is not unique
}

// The hard-input table's shape and the columns its rank-deficient inputs
// make dependent.
const (
	hardM, hardN                  = 960, 96
	hardDupFrom, hardDupTo        = 2, 29 // a dependent column in a later inner block
	hardSumA, hardSumB, hardSumTo = 5, 40, 61
	hardZeroCol                   = 50
)

// hardInputs builds the hard-input table from one seeded generator, so
// every test that reads it sees the same matrices.
func hardInputs() []hardInput {
	const m, n = hardM, hardN
	rng := rand.New(rand.NewSource(54))
	scaled := func(s float64) *matrix.Mat {
		d := matrix.NewRand(m, n, rng)
		for i := range d.Data {
			d.Data[i] *= s
		}
		return d
	}
	dup := matrix.NewRand(m, n, rng)
	for i := 0; i < m; i++ {
		dup.Set(i, hardDupTo, dup.At(i, hardDupFrom))
	}
	// Exact rank deficiency: a column that is the sum of two others, from two
	// earlier inner blocks.
	sum := matrix.NewRand(m, n, rng)
	for i := 0; i < m; i++ {
		sum.Set(i, hardSumTo, sum.At(i, hardSumA)+sum.At(i, hardSumB))
	}
	zero := matrix.NewRand(m, n, rng)
	for i := 0; i < m; i++ {
		zero.Set(i, hardZeroCol, 0)
	}
	big, small := scaled(1e150), scaled(1e-150)
	return []hardInput{
		// 96 monomial columns on [0, 1]: numerically rank-deficient.
		{"ill-conditioned", hilbertLike(m, n), false},
		{"scale 1e150", big, true},
		{"scale 1e-150", small, true},
		{"duplicate column", dup, false},
		{"sum of two columns", sum, false},
		{"zero column", zero, false},
	}
}

// TestHardInputsAtDefaultTile runs the hard cases above again where the
// library runs: the tests above factor ≤ 60×12 matrices at nb=8/ib=4, whose
// 8³ products stay far below the blocked Dgemm's threshold, so the packing,
// the micro-kernels and the fused applies never see them. At DefaultOptions
// a 960×96 matrix is five tile rows of one 96-column panel: four inner
// blocks, so the panel kernels' block applies — and the update kernels, when
// Q is formed — run on the packed engine. The sequential reference and the
// systolic engine on one node and on two must agree bitwise and meet the
// bounds the small cases meet; the task-superscalar engine (2 workers) and
// the domino array (its flat tree) must agree bitwise with the reference at
// the options they resolved.
func TestHardInputsAtDefaultTile(t *testing.T) {
	const n = hardN
	o := DefaultOptions()
	orthonormal := func(t *testing.T, q *matrix.Mat) {
		t.Helper()
		if diff := matrix.MaxAbsDiff(q.Transpose().Mul(q), matrix.Identity(n)); diff > 1e-12 {
			t.Fatalf("Q not orthonormal: %v", diff)
		}
	}
	finiteR := func(t *testing.T, d *matrix.Mat, f *Factorization) {
		r := f.R()
		for j := 0; j < n; j++ {
			for i := 0; i <= j; i++ {
				if v := r.At(i, j); math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("R(%d,%d) = %v", i, j, v)
				}
			}
		}
		orthonormal(t, f.Q())
	}
	backward := func(t *testing.T, d *matrix.Mat, f *Factorization) *matrix.Mat {
		t.Helper()
		q := f.Q()
		if diff := matrix.MaxAbsDiff(q.Mul(f.R()), d); diff > 1e-12 {
			t.Fatalf("backward error %v", diff)
		}
		orthonormal(t, q)
		return f.R()
	}
	dependent := func(k int) func(*testing.T, *matrix.Mat, *Factorization) {
		return func(t *testing.T, d *matrix.Mat, f *Factorization) {
			if v := math.Abs(backward(t, d, f).At(k, k)); v > 1e-12 {
				t.Fatalf("R(%d,%d) = %v for a dependent column", k, k, v)
			}
		}
	}
	checks := map[string]func(t *testing.T, d *matrix.Mat, f *Factorization){
		"ill-conditioned": func(t *testing.T, d *matrix.Mat, f *Factorization) {
			q := f.Q()
			if backward := matrix.MaxAbsDiff(q.Mul(f.R()), d) / d.MaxAbs(); backward > 1e-13 {
				t.Fatalf("backward error %v", backward)
			}
			orthonormal(t, q)
		},
		"scale 1e150":        finiteR,
		"scale 1e-150":       finiteR,
		"duplicate column":   dependent(hardDupTo),
		"sum of two columns": dependent(hardSumTo),
		"zero column": func(t *testing.T, d *matrix.Mat, f *Factorization) {
			r := backward(t, d, f)
			for i := 0; i <= hardZeroCol; i++ {
				if v := r.At(i, hardZeroCol); v != 0 {
					t.Fatalf("R(%d,%d) = %v for a zero column", i, hardZeroCol, v)
				}
			}
		},
	}
	for _, tc := range hardInputs() {
		t.Run(tc.name, func(t *testing.T) {
			for _, nodes := range []int{1, 2} {
				vsa, err := FactorizeVSA(matrix.FromDense(tc.d, o.NB), nil, o, RunConfig{Nodes: nodes, Threads: 2})
				if err != nil {
					t.Fatal(err)
				}
				// The reference runs the tree the engine resolved (h = 3 on
				// two workers, 2 on four).
				seq := factorDense(t, tc.d, vsa.Opts)
				assertFactorizationsEqual(t, seq, vsa)
				got, want := vsa.R(), seq.R()
				for i := range want.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
						t.Fatalf("%d nodes: R[%d] = %v, sequential %v", nodes, i, got.Data[i], want.Data[i])
					}
				}
				checks[tc.name](t, tc.d, seq)
				sketchFlagsAsDenseDoes(t, tc.d, seq, o.NB)
			}
			qk, err := FactorizeQuark(matrix.FromDense(tc.d, o.NB), nil, o, 2)
			if err != nil {
				t.Fatal(err)
			}
			assertFactorizationsEqual(t, factorDense(t, tc.d, qk.Opts), qk)
			dom, err := FactorizeDomino(matrix.FromDense(tc.d, o.NB), nil, o, RunConfig{Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			assertFactorizationsEqual(t, factorDense(t, tc.d, dom.Opts), dom)
		})
	}
}

// TestWarmPoolCarriesNothingIntoNextJob holds the determinism contract of
// the per-worker workspaces the way the server runs them: one persistent
// pool whose workers keep their kernels.Workspace from job to job. A job whose
// input holds NaN and ±Inf leaves every buffer it touched poisoned; the next
// job on the same workers must produce an R bitwise equal to the one the same
// clean input gets from a fresh pool. 960×576 is five tile rows and three
// tile columns at the default 192/24, so the panel, TS/TT and update kernels
// all fire, under both the flat and the hierarchical tree.
func TestWarmPoolCarriesNothingIntoNextJob(t *testing.T) {
	const m, n = 960, 576
	rng := rand.New(rand.NewSource(55))
	clean := matrix.NewRand(m, n, rng)
	poisoned := matrix.NewRand(m, n, rng)
	for k, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for j := k; j < n; j += 97 {
			poisoned.Set((j*31+k*200)%m, j, v)
		}
	}
	newPool := func() *pulsar.Pool {
		return pulsar.NewPool(2, func(int) any { return kernels.NewWorkspace() })
	}
	run := func(t *testing.T, pool *pulsar.Pool, d *matrix.Mat, o Options) *matrix.Mat {
		t.Helper()
		ta := matrix.FromDense(d, o.NB)
		f, err := FactorizeVSAIn(context.Background(), ta, nil, o, RunConfig{}, Env{Pool: pool, Part: sketchOfTileRows(ta, 0, ta.MT, 1)})
		if err != nil {
			t.Fatal(err)
		}
		return f.R()
	}
	hier := DefaultOptions()
	hier.H = 4 // two domains of the five tile rows, so merges fire: RunConfig{} derives one
	flat := hier
	flat.Tree = FlatTree
	for _, o := range []Options{flat, hier} {
		t.Run(o.Tree.String(), func(t *testing.T) {
			fresh := newPool()
			want := run(t, fresh, clean, o)
			fresh.Close()

			warm := newPool()
			defer warm.Close()
			finite := true
			for _, v := range run(t, warm, poisoned, o).Data {
				finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
			}
			if finite {
				t.Fatal("the poisoned job's R is finite: the input did not reach the kernels")
			}
			got := run(t, warm, clean, o)
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("R[%d] = %v after a poisoned job, %v on a fresh pool", i, got.Data[i], want.Data[i])
				}
			}
		})
	}
}
