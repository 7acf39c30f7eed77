package pulsarqr

import (
	"math"
	"strings"
	"testing"

	"pulsarqr/internal/matrix"
)

func TestFactorEnginesAgree(t *testing.T) {
	a := RandomMatrix(90, 30, 1)
	opts := DefaultOptions()
	opts.NB, opts.IB, opts.H = 16, 4, 3
	var rs []*Matrix
	for _, e := range []Engine{Sequential, Systolic, TaskSuperscalar} {
		opts.Engine = e
		f, err := Factor(a, opts)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if res := f.Residual(a); res > 1e-13 {
			t.Fatalf("%v: residual %v", e, res)
		}
		rs = append(rs, f.R())
	}
	for k := 1; k < len(rs); k++ {
		if d := matrix.MaxAbsDiff(rs[0], rs[k]); d != 0 {
			t.Fatalf("engine %d produced different R (diff %v)", k, d)
		}
	}
}

func TestDominoEngineMatchesFlat(t *testing.T) {
	a := RandomMatrix(90, 30, 1)
	opts := DefaultOptions()
	opts.NB, opts.IB, opts.Tree = 16, 4, Flat
	var rs []*Matrix
	for _, e := range []Engine{Sequential, Domino} {
		opts.Engine = e
		f, err := Factor(a, opts)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if res := f.Residual(a); res > 1e-13 {
			t.Fatalf("%v: residual %v", e, res)
		}
		rs = append(rs, f.R())
	}
	for k := 1; k < len(rs); k++ {
		if d := matrix.MaxAbsDiff(rs[0], rs[k]); d != 0 {
			t.Fatalf("engine %d produced different R (diff %v)", k, d)
		}
	}
}

func TestFactorDoesNotMutateInput(t *testing.T) {
	a := RandomMatrix(40, 16, 2)
	orig := a.Clone()
	opts := DefaultOptions()
	opts.NB, opts.IB = 8, 4
	if _, err := Factor(a, opts); err != nil {
		t.Fatal(err)
	}
	if matrix.MaxAbsDiff(a, orig) != 0 {
		t.Fatal("Factor mutated its input")
	}
}

func TestLeastSquaresAPI(t *testing.T) {
	a := RandomMatrix(120, 20, 3)
	xTrue := RandomMatrix(20, 2, 4)
	b := a.Mul(xTrue)
	opts := DefaultOptions()
	opts.NB, opts.IB, opts.Nodes, opts.Threads = 16, 8, 2, 2
	x, err := LeastSquares(a, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(x, xTrue); d > 1e-10 {
		t.Fatalf("least squares off by %v", d)
	}
}

func TestAllTreesThroughPublicAPI(t *testing.T) {
	a := RandomMatrix(64, 24, 5)
	for _, tree := range []Tree{Hierarchical, Flat, Binary} {
		opts := DefaultOptions()
		opts.NB, opts.IB, opts.Tree = 8, 4, tree
		f, err := Factor(a, opts)
		if err != nil {
			t.Fatalf("%v: %v", tree, err)
		}
		if res := f.Residual(a); res > 1e-13 {
			t.Fatalf("%v: residual %v", tree, res)
		}
		// R has positive-magnitude diagonal entries (nonsingular input).
		r := f.R()
		for i := 0; i < r.Rows; i++ {
			if math.Abs(r.At(i, i)) < 1e-12 {
				t.Fatalf("%v: tiny diagonal at %d", tree, i)
			}
		}
	}
}

func TestFactorWithRHSRequiresB(t *testing.T) {
	if _, err := FactorWithRHS(RandomMatrix(8, 4, 6), nil, DefaultOptions()); err == nil {
		t.Fatal("nil rhs must error")
	}
}

func TestWideMatrixRejected(t *testing.T) {
	if _, err := Factor(RandomMatrix(4, 8, 7), DefaultOptions()); err == nil {
		t.Fatal("wide matrix must be rejected")
	}
}

func TestDefaultsFilled(t *testing.T) {
	// Zero-valued options must still work.
	a := RandomMatrix(70, 10, 8)
	f, err := Factor(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res := f.Residual(a); res > 1e-13 {
		t.Fatalf("residual %v", res)
	}
}

// A rank-deficient A has no unique least-squares minimizer. LeastSquares
// reports the zero diagonal entry of R, as LAPACK's DGELS does, instead of
// back-substituting through it into NaN and −Inf; on a full-rank A it returns
// the unguarded solve's x bit for bit.
func TestLeastSquaresRejectsRankDeficient(t *testing.T) {
	b := RandomMatrix(300, 1, 12)
	a := RandomMatrix(300, 8, 11)
	want, err := FactorWithRHS(a, b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	x, err := LeastSquares(a, b, DefaultOptions())
	if err != nil {
		t.Fatalf("full rank: %v", err)
	}
	for i, v := range want.SolveFromQTB().Data {
		if math.Float64bits(x.Data[i]) != math.Float64bits(v) {
			t.Fatalf("full rank: x[%d] = %v, unguarded solve %v", i, x.Data[i], v)
		}
	}

	for i := 0; i < a.Rows; i++ {
		a.Set(i, 3, 0)
	}
	x, err = LeastSquares(a, b, DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "R(3,3)") {
		t.Fatalf("column 3 zeroed: x = %v, err = %v; want an error naming R(3,3)", x, err)
	}
	if x != nil {
		t.Fatalf("column 3 zeroed: x = %v returned with the error", x)
	}
}

// A matrix with no columns has an empty R, and QᵀB is B: every engine must
// return what the sequential reference does, at 16×0 and at 0×0, through
// Factor, FactorWithRHS + SolveFromQTB and LeastSquares.
func TestZeroColumnsEveryEngine(t *testing.T) {
	same := func(what string, got, want *Matrix) {
		t.Helper()
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("%s is %d×%d, sequential's %d×%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		if d := matrix.MaxAbsDiff(got, want); d != 0 {
			t.Fatalf("%s differs from sequential's by %v", what, d)
		}
	}
	for _, m := range []int{16, 0} {
		a, b := RandomMatrix(m, 0, 13), RandomMatrix(m, 2, 14)
		run := func(e Engine) (r, qtbx, x *Matrix) {
			opts := DefaultOptions()
			opts.NB, opts.IB, opts.Engine = 8, 4, e
			f, err := Factor(a, opts)
			if err != nil {
				t.Fatalf("%v %d×0: Factor: %v", e, m, err)
			}
			fb, err := FactorWithRHS(a, b, opts)
			if err != nil {
				t.Fatalf("%v %d×0: FactorWithRHS: %v", e, m, err)
			}
			x, err = LeastSquares(a, b, opts)
			if err != nil {
				t.Fatalf("%v %d×0: LeastSquares: %v", e, m, err)
			}
			return f.R(), fb.SolveFromQTB(), x
		}
		wr, wq, wx := run(Sequential)
		for _, e := range []Engine{Systolic, TaskSuperscalar, Domino} {
			r, q, x := run(e)
			same(e.String()+" R", r, wr)
			same(e.String()+" SolveFromQTB", q, wq)
			same(e.String()+" LeastSquares", x, wx)
		}
	}
}
