package batch

import (
	"math"
	"math/rand"
	"testing"

	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
)

// oracleR computes the sign-canonical R of a with a textbook unblocked
// Householder QR in plain Go loops — no blas, no kernels — so the property
// tests hold both batch engines to a reference that shares no code with
// either of them.
func oracleR(a *matrix.Mat) *matrix.Mat {
	m, n := a.Rows, a.Cols
	c := a.Clone()
	for j := 0; j < n; j++ {
		var norm float64
		for i := j; i < m; i++ {
			norm = math.Hypot(norm, c.At(i, j))
		}
		if norm == 0 {
			continue
		}
		// v = x − β·e₁ with β = −sign(x₀)·‖x‖; H = I − 2vvᵀ/vᵀv maps x to β·e₁.
		v := make([]float64, m-j)
		var vv float64
		for i := range v {
			v[i] = c.At(j+i, j)
		}
		v[0] += math.Copysign(norm, v[0])
		for _, x := range v {
			vv += x * x
		}
		for k := j; k < n; k++ {
			var s float64
			for i, x := range v {
				s += x * c.At(j+i, k)
			}
			s *= 2 / vv
			for i, x := range v {
				c.Add(j+i, k, -s*x)
			}
		}
	}
	r := matrix.New(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			r.Set(i, j, c.At(i, j))
		}
	}
	Canonicalize(r)
	return r
}

// rTop returns the leading n×n block of a factored matrix (where FactorWS
// leaves R).
func rTop(a *matrix.Mat) *matrix.Mat {
	return a.View(0, 0, a.Cols, a.Cols).Clone()
}

// checkR compares a computed R against the oracle elementwise, with a
// tolerance scaled to the problem: Givens and Householder accumulate
// rounding differently, so exact equality only holds within one engine.
func checkR(t *testing.T, label string, got, want *matrix.Mat, scale float64) {
	t.Helper()
	tol := 1e-12 * math.Max(1, scale) * float64(want.Rows+1)
	if d := matrix.MaxAbsDiff(got, want); d > tol {
		t.Errorf("%s: R differs from oracle by %g (tol %g)", label, d, tol)
	}
}

// testShapes enumerates the crossover-boundary shapes the satellite task
// names: every size across 1×1 … 96×96 around the Givens/Householder
// threshold, tall, skinny, square.
func testShapes() [][2]int {
	var shapes [][2]int
	for n := 1; n <= 96; n = n + 1 + n/8 {
		shapes = append(shapes, [2]int{n, n}) // square
		if 2*n <= 192 {
			shapes = append(shapes, [2]int{2 * n, n}) // tall
		}
		shapes = append(shapes, [2]int{n + 3, n}) // barely tall
	}
	// Pin the exact crossover boundary: n = crossover-1, crossover,
	// crossover+1 all at several aspect ratios.
	for _, n := range []int{DefaultCrossover - 1, DefaultCrossover, DefaultCrossover + 1} {
		shapes = append(shapes, [2]int{n, n}, [2]int{3 * n, n}, [2]int{96, n})
	}
	return shapes
}

// The core numerics property: the Givens sweep, the unblocked
// Householder path, and the scalar oracle agree elementwise (within
// tolerance) on every shape across the threshold boundary — both engines
// forced on both sides of the crossover.
func TestFactorEnginesAgree(t *testing.T) {
	ws := kernels.NewWorkspace()
	rng := rand.New(rand.NewSource(42))
	for _, sh := range testShapes() {
		m, n := sh[0], sh[1]
		a := matrix.NewRand(m, n, rng)
		want := oracleR(a)

		giv := a.Clone()
		givensQR(giv)
		canonicalizeR(giv)
		checkR(t, labelOf("givens", m, n), rTop(giv), want, float64(m))

		// Force the Householder path regardless of size (crossover 0 means
		// "default"; use a negative... the API treats <=0 as default, so
		// call the engine underneath via FactorWS with crossover below n).
		if n > 1 {
			hh := a.Clone()
			if err := FactorWS(ws, hh, n-1); err != nil {
				t.Fatalf("FactorWS(%dx%d): %v", m, n, err)
			}
			checkR(t, labelOf("householder", m, n), rTop(hh), want, float64(m))
		}

		// And the production policy (default crossover picks the engine).
		def := a.Clone()
		if err := FactorWS(ws, def, 0); err != nil {
			t.Fatalf("FactorWS default(%dx%d): %v", m, n, err)
		}
		checkR(t, labelOf("default", m, n), rTop(def), want, float64(m))
	}
}

func labelOf(engine string, m, n int) string {
	return engine + " " + itoa(m) + "x" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// Rank-deficient inputs — zero columns, duplicated columns, zero matrices —
// must not blow up either engine. Elementwise agreement is NOT a valid
// property here: a zero diagonal entry makes the triangular factor of the
// singular Gram matrix non-unique beyond row signs, so different elimination
// orders legitimately produce different (all correct) Rs. The invariant that
// does hold is RᵀR = AᵀA with finite entries and clean structure.
func TestFactorRankDeficient(t *testing.T) {
	ws := kernels.NewWorkspace()
	rng := rand.New(rand.NewSource(7))
	for _, sh := range [][2]int{{8, 8}, {16, 8}, {13, 13}, {32, 20}, {96, 64}} {
		m, n := sh[0], sh[1]
		cases := map[string]*matrix.Mat{}

		zc := matrix.NewRand(m, n, rng) // a zero column mid-panel
		for i := 0; i < m; i++ {
			zc.Set(i, n/2, 0)
		}
		cases["zero-column"] = zc

		dup := matrix.NewRand(m, n, rng) // two identical columns
		for i := 0; i < m; i++ {
			dup.Set(i, n-1, dup.At(i, 0))
		}
		cases["dup-column"] = dup

		cases["all-zero"] = matrix.New(m, n)

		r1 := matrix.NewRand(m, 1, rng) // rank 1: outer product
		r2 := matrix.NewRand(n, 1, rng)
		cases["rank-1"] = r1.Mul(r2.Transpose())

		for name, a := range cases {
			giv := a.Clone()
			givensQR(giv)
			canonicalizeR(giv)
			checkGram(t, name+" givens "+labelOf("", m, n), a, rTop(giv))
			if n > 1 {
				hh := a.Clone()
				if err := FactorWS(ws, hh, 1); err != nil {
					t.Fatalf("%s FactorWS: %v", name, err)
				}
				checkGram(t, name+" householder "+labelOf("", m, n), a, rTop(hh))
			}
		}
	}
}

// checkGram asserts the sign-free factorization-quality invariant
// RᵀR = AᵀA, that r is upper triangular, and that every entry is finite.
func checkGram(t *testing.T, label string, a, r *matrix.Mat) {
	t.Helper()
	for j := 0; j < r.Cols; j++ {
		for i := 0; i < r.Rows; i++ {
			v := r.At(i, j)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: R[%d,%d] = %g", label, i, j, v)
			}
			if i > j && v != 0 {
				t.Fatalf("%s: R[%d,%d] = %g below the diagonal", label, i, j, v)
			}
		}
	}
	ata := a.Transpose().Mul(a)
	rtr := r.Transpose().Mul(r)
	if d := ata.Sub(rtr).FrobNorm() / math.Max(ata.FrobNorm(), 1e-300); d > 1e-12*float64(a.Rows+1) {
		t.Errorf("%s: ‖AᵀA − RᵀR‖/‖AᵀA‖ = %g", label, d)
	}
}

// R must satisfy RᵀR = AᵀA (the factorization-quality invariant that does
// not depend on sign conventions at all).
func TestFactorGram(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sh := range [][2]int{{1, 1}, {5, 3}, {12, 12}, {33, 17}, {96, 96}} {
		m, n := sh[0], sh[1]
		a := matrix.NewRand(m, n, rng)
		f := a.Clone()
		if err := Factor(f); err != nil {
			t.Fatal(err)
		}
		r := rTop(f)
		ata := a.Transpose().Mul(a)
		rtr := r.Transpose().Mul(r)
		if d := ata.Sub(rtr).FrobNorm() / math.Max(ata.FrobNorm(), 1e-300); d > 1e-12*float64(m) {
			t.Errorf("%dx%d: ‖AᵀA − RᵀR‖/‖AᵀA‖ = %g", m, n, d)
		}
	}
}

// Shape validation: wide and degenerate matrices are refused, oversized
// ones pointed at the VSA path.
func TestFactorValidation(t *testing.T) {
	if err := Factor(matrix.New(3, 5)); err == nil {
		t.Error("wide matrix accepted")
	}
	if err := Factor(matrix.New(0, 0)); err == nil {
		t.Error("empty matrix accepted")
	}
	if err := Factor(matrix.New(MaxDim+1, 4)); err == nil {
		t.Error("oversized matrix accepted")
	}
}

// Steady-state factorization must not allocate: the workspace absorbs all
// scratch for both engines.
func TestFactorZeroAlloc(t *testing.T) {
	ws := kernels.NewWorkspace()
	rng := rand.New(rand.NewSource(9))
	giv := matrix.NewRand(24, 8, rng) // Givens path
	hh := matrix.NewRand(48, 32, rng) // Householder path
	warmG, warmH := giv.Clone(), hh.Clone()
	FactorWS(ws, warmG, 0)
	FactorWS(ws, warmH, 0)

	gBuf, hBuf := giv.Clone(), hh.Clone()
	allocs := testing.AllocsPerRun(50, func() {
		gBuf.CopyFrom(giv)
		hBuf.CopyFrom(hh)
		FactorWS(ws, gBuf, 0)
		FactorWS(ws, hBuf, 0)
	})
	if allocs > 0 {
		t.Errorf("steady-state FactorWS allocates %.1f times per run, want 0", allocs)
	}
}

// A matrix of subnormal scale factors like the same matrix at normal scale:
// B has subnormal entries and A = B·2¹⁰⁴⁰ exactly, so R(B)·2¹⁰⁴⁰ must be
// finite and match R(A). Without Dlarfg's rescale 1/(α−β) overflowed and
// about half of R(B) came back NaN or ±Inf, with no error.
func TestFactorSubnormalScale(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, scale := range []float64{0x1p-1026, 0x1p-1028, 0x1p-1030} {
		b := matrix.NewRand(32, 32, rng)
		for i := range b.Data {
			b.Data[i] *= scale
		}
		a := b.Clone()
		for i := range a.Data {
			a.Data[i] = math.Ldexp(a.Data[i], 1040)
		}
		if err := Factor(a); err != nil {
			t.Fatal(err)
		}
		if err := Factor(b); err != nil {
			t.Fatal(err)
		}
		for i := range b.Data {
			b.Data[i] = math.Ldexp(b.Data[i], 1040)
		}
		if !finite(b) {
			t.Fatalf("scale %g: R has non-finite entries", scale)
		}
		if d, tol := matrix.MaxAbsDiff(b, a), 1e-12*a.MaxAbs(); !(d <= tol) {
			t.Errorf("scale %g: R(B)·2¹⁰⁴⁰ differs from R(A) by %g (tol %g)", scale, d, tol)
		}
	}
}

func finite(a *matrix.Mat) bool {
	for _, v := range a.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// BenchmarkFactorWS times one n×n factorization per op on each engine,
// forced through the crossover argument, at the sizes around
// DefaultCrossover and at the 32×32 of the batch_small workload. The
// crossover table in docs/BATCH.md is read from it.
func BenchmarkFactorWS(b *testing.B) {
	for _, n := range []int{4, 8, 12, 16, 32} {
		for _, eng := range []struct {
			name      string
			crossover int
		}{{"givens", n}, {"householder", n - 1}} {
			b.Run(eng.name+"/n="+itoa(n), func(b *testing.B) {
				ws := kernels.NewWorkspace()
				a := matrix.NewRand(n, n, rand.New(rand.NewSource(int64(n))))
				buf := a.Clone()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					buf.CopyFrom(a)
					if err := FactorWS(ws, buf, eng.crossover); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
