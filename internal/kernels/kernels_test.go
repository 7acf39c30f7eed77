package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pulsarqr/internal/matrix"
)

const tol = 1e-12

// explicitH builds the dense Householder matrix I − tau·v·vᵀ.
func explicitH(tau float64, v []float64) *matrix.Mat {
	n := len(v)
	h := matrix.Identity(n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			h.Add(i, j, -tau*v[i]*v[j])
		}
	}
	return h
}

func TestDlarfgAnnihilates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 5, 17} {
		alpha := 2*rng.Float64() - 1
		x := make([]float64, n-1)
		for i := range x {
			x[i] = 2*rng.Float64() - 1
		}
		orig := append([]float64{alpha}, x...)
		a := alpha
		tau := Dlarfg(&a, x)
		v := append([]float64{1}, x...)
		res := explicitH(tau, v).Mul(matrix.FromColMajor(n, 1, n, orig))
		if math.Abs(res.At(0, 0)-a) > tol {
			t.Fatalf("n=%d: beta mismatch %v vs %v", n, res.At(0, 0), a)
		}
		for i := 1; i < n; i++ {
			if math.Abs(res.At(i, 0)) > tol {
				t.Fatalf("n=%d: entry %d not annihilated: %v", n, i, res.At(i, 0))
			}
		}
		// Norm preservation.
		want := 0.0
		for _, u := range orig {
			want += u * u
		}
		if math.Abs(a*a-want) > 1e-11 {
			t.Fatalf("n=%d: norm not preserved", n)
		}
	}
}

func TestDlarfgZeroTail(t *testing.T) {
	a := -3.5
	tau := Dlarfg(&a, []float64{0, 0})
	if tau != 0 || a != -3.5 {
		t.Fatal("zero tail must yield identity reflector")
	}
	a = 2.0
	tau = Dlarfg(&a, nil)
	if tau != 0 || a != 2.0 {
		t.Fatal("empty tail must yield identity reflector")
	}
}

// A tile of subnormal scale factors like the same tile at normal scale: B
// has subnormal entries and A = B·2¹⁰⁴⁰ exactly, so R(B)·2¹⁰⁴⁰ must be
// finite and match R(A). Without Dlarfg's rescale 1/(α−β) overflowed and
// R(B) filled with NaN and ±Inf.
func TestDgeqrtSubnormalScale(t *testing.T) {
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
		DgeqrtWS(nil, 8, a, matrix.New(8, 32))
		DgeqrtWS(nil, 8, b, matrix.New(8, 32))
		ra, rb := upperTrap(a), upperTrap(b)
		for i, v := range rb.Data {
			rb.Data[i] = math.Ldexp(v, 1040)
			if math.IsNaN(rb.Data[i]) || math.IsInf(rb.Data[i], 0) {
				t.Fatalf("scale %g: R[%d] = %g", scale, i, rb.Data[i])
			}
		}
		if d, tol := matrix.MaxAbsDiff(rb, ra), 1e-12*ra.MaxAbs(); !(d <= tol) {
			t.Errorf("scale %g: R(B)·2¹⁰⁴⁰ differs from R(A) by %g (tol %g)", scale, d, tol)
		}
	}
}

// geqrtQ builds the explicit m×m Q from a Dgeqrt output by applying Q to
// the identity.
func geqrtQ(ib int, v, tm *matrix.Mat) *matrix.Mat {
	q := matrix.Identity(v.Rows)
	DormqrWS(nil, false, ib, v, tm, q)
	return q
}

// upperTrap extracts the m×n upper-trapezoidal R from a factored tile.
func upperTrap(a *matrix.Mat) *matrix.Mat {
	r := matrix.New(a.Rows, a.Cols)
	for j := 0; j < a.Cols; j++ {
		for i := 0; i <= j && i < a.Rows; i++ {
			r.Set(i, j, a.At(i, j))
		}
	}
	return r
}

func checkOrtho(t *testing.T, q *matrix.Mat, what string) {
	t.Helper()
	qtq := q.Transpose().Mul(q)
	d := matrix.MaxAbsDiff(qtq, matrix.Identity(q.Cols))
	if d > 1e-11 {
		t.Fatalf("%s: ||QᵀQ − I|| = %v", what, d)
	}
}

func TestDgeqrtReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	shapes := []struct{ m, n, ib int }{
		{1, 1, 1}, {4, 4, 2}, {8, 8, 3}, {8, 8, 8}, {8, 8, 1},
		{12, 5, 2}, {5, 12, 2}, {7, 7, 4}, {16, 16, 4}, {9, 6, 4},
	}
	for _, s := range shapes {
		a := matrix.NewRand(s.m, s.n, rng)
		orig := a.Clone()
		tm := matrix.New(min(s.ib, min(s.m, s.n)), min(s.m, s.n))
		DgeqrtWS(nil, s.ib, a, tm)
		q := geqrtQ(s.ib, a, tm)
		checkOrtho(t, q, "dgeqrt")
		qr := q.Mul(upperTrap(a))
		if d := matrix.MaxAbsDiff(qr, orig); d > 1e-11 {
			t.Fatalf("m=%d n=%d ib=%d: ||QR − A|| = %v", s.m, s.n, s.ib, d)
		}
	}
}

func TestDormqrRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, n, ib := 10, 6, 3
	a := matrix.NewRand(m, n, rng)
	tm := matrix.New(ib, n)
	DgeqrtWS(nil, ib, a, tm)
	c := matrix.NewRand(m, 4, rng)
	orig := c.Clone()
	DormqrWS(nil, true, ib, a, tm, c)  // C ← QᵀC
	DormqrWS(nil, false, ib, a, tm, c) // C ← Q QᵀC
	if d := matrix.MaxAbsDiff(c, orig); d > 1e-11 {
		t.Fatalf("Q Qᵀ C != C: %v", d)
	}
}

func TestDormqrMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, n, ib := 9, 5, 2
	a := matrix.NewRand(m, n, rng)
	tm := matrix.New(ib, n)
	DgeqrtWS(nil, ib, a, tm)
	q := geqrtQ(ib, a, tm)
	c := matrix.NewRand(m, 3, rng)
	want := q.Transpose().Mul(c)
	DormqrWS(nil, true, ib, a, tm, c)
	if d := matrix.MaxAbsDiff(c, want); d > 1e-11 {
		t.Fatalf("dormqr vs explicit: %v", d)
	}
}

// tsFactor runs Dtsqrt (tri=false) or Dttqrt (tri=true) on fresh random
// data and returns everything needed for checks.
func tsFactor(rng *rand.Rand, n, m2, ib int, tri bool) (a1, a2, tm, origStack *matrix.Mat) {
	a1 = matrix.NewRand(n, n, rng)
	// a1 plays the role of an R factor: make it upper triangular.
	for j := 0; j < n; j++ {
		for i := j + 1; i < n; i++ {
			a1.Set(i, j, 0)
		}
	}
	a2 = matrix.NewRand(m2, n, rng)
	if tri {
		for j := 0; j < n; j++ {
			for i := j + 1; i < m2; i++ {
				a2.Set(i, j, 0)
			}
		}
	}
	origStack = matrix.New(n+m2, n)
	origStack.View(0, 0, n, n).CopyFrom(a1)
	origStack.View(n, 0, m2, n).CopyFrom(a2)
	tm = matrix.New(min(ib, n), n)
	if tri {
		DttqrtWS(nil, ib, a1, a2, tm)
	} else {
		DtsqrtWS(nil, ib, a1, a2, tm)
	}
	return a1, a2, tm, origStack
}

// tsQ builds the explicit (n+m2)×(n+m2) Q of a TS/TT factorization by
// applying Q to the identity through the MQR kernel.
func tsQ(ib int, v2, tm *matrix.Mat, n, m2 int, tri bool) *matrix.Mat {
	q := matrix.New(n+m2, n+m2)
	b1 := matrix.Identity(n+m2).View(0, 0, n, n+m2).Clone()
	b2 := matrix.New(m2, n+m2)
	for i := 0; i < m2; i++ {
		b2.Set(i, n+i, 1)
	}
	if tri {
		DttmqrWS(nil, false, ib, v2, tm, b1, b2)
	} else {
		DtsmqrWS(nil, false, ib, v2, tm, b1, b2)
	}
	q.View(0, 0, n, n+m2).CopyFrom(b1)
	q.View(n, 0, m2, n+m2).CopyFrom(b2)
	return q
}

func TestDtsqrtReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct{ n, m2, ib int }{
		{1, 1, 1}, {4, 4, 2}, {6, 6, 6}, {6, 6, 1},
		{5, 9, 2}, {9, 3, 4}, {8, 8, 3}, {6, 0, 2},
	}
	for _, c := range cases {
		a1, a2, tm, orig := tsFactor(rng, c.n, c.m2, c.ib, false)
		q := tsQ(c.ib, a2, tm, c.n, c.m2, false)
		checkOrtho(t, q, "dtsqrt")
		// Q · [R; 0] must reproduce the original stack.
		rstack := matrix.New(c.n+c.m2, c.n)
		rstack.View(0, 0, c.n, c.n).CopyFrom(upperTrap(a1))
		got := q.Mul(rstack)
		if d := matrix.MaxAbsDiff(got, orig); d > 1e-11 {
			t.Fatalf("n=%d m2=%d ib=%d: ||Q[R;0] − [A1;A2]|| = %v", c.n, c.m2, c.ib, d)
		}
	}
}

func TestDttqrtReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cases := []struct{ n, m2, ib int }{
		{1, 1, 1}, {4, 4, 2}, {6, 6, 6}, {6, 6, 1}, {8, 8, 3}, {5, 5, 4},
	}
	for _, c := range cases {
		a1, a2, tm, orig := tsFactor(rng, c.n, c.m2, c.ib, true)
		q := tsQ(c.ib, a2, tm, c.n, c.m2, true)
		checkOrtho(t, q, "dttqrt")
		rstack := matrix.New(c.n+c.m2, c.n)
		rstack.View(0, 0, c.n, c.n).CopyFrom(upperTrap(a1))
		got := q.Mul(rstack)
		if d := matrix.MaxAbsDiff(got, orig); d > 1e-11 {
			t.Fatalf("n=%d ib=%d: ||Q[R;0] − [R1;R2]|| = %v", c.n, c.ib, d)
		}
	}
}

func TestDttqrtPreservesForeignLowerParts(t *testing.T) {
	// In the hierarchical algorithm both TT operands carry Householder
	// vectors of earlier factorizations below their diagonals. The kernel
	// must neither read nor write those entries.
	rng := rand.New(rand.NewSource(7))
	n, ib := 6, 2
	mkUpper := func(seed int64) *matrix.Mat {
		r := rand.New(rand.NewSource(seed))
		m := matrix.NewRand(n, n, r)
		for j := 0; j < n; j++ {
			for i := j + 1; i < n; i++ {
				m.Set(i, j, 0)
			}
		}
		return m
	}
	a1c, a2c := mkUpper(10), mkUpper(11)
	tmc := matrix.New(ib, n)
	DttqrtWS(nil, ib, a1c.Clone(), a2c.Clone(), tmc) // clean run for reference
	refA1, refA2 := a1c.Clone(), a2c.Clone()
	refT := matrix.New(ib, n)
	DttqrtWS(nil, ib, refA1, refA2, refT)

	// Dirty run: poison strictly-lower parts with garbage.
	a1d, a2d := a1c.Clone(), a2c.Clone()
	garbage := func(m *matrix.Mat, base float64) {
		for j := 0; j < n; j++ {
			for i := j + 1; i < n; i++ {
				m.Set(i, j, base+float64(i*n+j))
			}
		}
	}
	garbage(a1d, 1e6)
	garbage(a2d, -1e6)
	a1dOrig, a2dOrig := a1d.Clone(), a2d.Clone()
	tmd := matrix.New(ib, n)
	DttqrtWS(nil, ib, a1d, a2d, tmd)

	// Upper parts must match the clean run exactly.
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			if a1d.At(i, j) != refA1.At(i, j) || a2d.At(i, j) != refA2.At(i, j) {
				t.Fatalf("garbage below diagonal affected results at (%d,%d)", i, j)
			}
		}
		for i := j + 1; i < n; i++ {
			if a1d.At(i, j) != a1dOrig.At(i, j) || a2d.At(i, j) != a2dOrig.At(i, j) {
				t.Fatalf("kernel overwrote foreign data at (%d,%d)", i, j)
			}
		}
	}
	if matrix.MaxAbsDiff(tmd, refT) != 0 {
		t.Fatal("T factors differ between clean and dirty runs")
	}
	_ = rng
}

func TestDttmqrPreservesForeignData(t *testing.T) {
	// Dttmqr's v2 tile carries foreign reflectors below its diagonal, and
	// B2 may have rows beyond the reflector span that must stay untouched.
	rng := rand.New(rand.NewSource(8))
	n, m2, ib, nc := 5, 8, 2, 4
	a1, a2, tm, _ := tsFactor(rng, n, n, ib, true)
	_ = a1
	b1 := matrix.NewRand(n, nc, rng)
	b2 := matrix.NewRand(m2, nc, rng)
	b1ref, b2ref := b1.Clone(), b2.Clone()
	DttmqrWS(nil, true, ib, a2, tm, b1ref, b2ref)

	// Dirty v2: poison below-diagonal.
	v2d := a2.Clone()
	for j := 0; j < n; j++ {
		for i := j + 1; i < n; i++ {
			v2d.Set(i, j, 1e9)
		}
	}
	b1d, b2d := b1.Clone(), b2.Clone()
	DttmqrWS(nil, true, ib, v2d, tm, b1d, b2d)
	if matrix.MaxAbsDiff(b1d, b1ref) != 0 || matrix.MaxAbsDiff(b2d, b2ref) != 0 {
		t.Fatal("dttmqr read foreign below-diagonal data")
	}
	// Rows n..m2-1 of B2 must be untouched.
	for j := 0; j < nc; j++ {
		for i := n; i < m2; i++ {
			if b2d.At(i, j) != b2.At(i, j) {
				t.Fatalf("dttmqr wrote beyond reflector span at (%d,%d)", i, j)
			}
		}
	}
}

func TestDtsmqrMatchesExplicitQ(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, m2, ib, nc := 5, 7, 2, 3
	_, a2, tm, _ := tsFactor(rng, n, m2, ib, false)
	q := tsQ(ib, a2, tm, n, m2, false)
	b1 := matrix.NewRand(n+2, nc, rng) // extra rows beyond k must be ignored
	b2 := matrix.NewRand(m2, nc, rng)
	stack := matrix.New(n+m2, nc)
	stack.View(0, 0, n, nc).CopyFrom(b1.View(0, 0, n, nc))
	stack.View(n, 0, m2, nc).CopyFrom(b2)
	want := q.Transpose().Mul(stack)
	b1orig := b1.Clone()
	DtsmqrWS(nil, true, ib, a2, tm, b1, b2)
	for j := 0; j < nc; j++ {
		for i := 0; i < n; i++ {
			if math.Abs(b1.At(i, j)-want.At(i, j)) > 1e-11 {
				t.Fatalf("b1 mismatch (%d,%d)", i, j)
			}
		}
		for i := n; i < n+2; i++ {
			if b1.At(i, j) != b1orig.At(i, j) {
				t.Fatal("dtsmqr touched b1 rows beyond k")
			}
		}
		for i := 0; i < m2; i++ {
			if math.Abs(b2.At(i, j)-want.At(n+i, j)) > 1e-11 {
				t.Fatalf("b2 mismatch (%d,%d)", i, j)
			}
		}
	}
}

func TestTSRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(7) + 1
		m2 := rng.Intn(8)
		ib := rng.Intn(n) + 1
		tri := rng.Intn(2) == 0
		if tri {
			m2 = n
		}
		_, a2, tm, _ := tsFactor(rng, n, m2, ib, tri)
		nc := rng.Intn(4) + 1
		b1 := matrix.NewRand(n, nc, rng)
		b2 := matrix.NewRand(m2, nc, rng)
		o1, o2 := b1.Clone(), b2.Clone()
		if tri {
			DttmqrWS(nil, true, ib, a2, tm, b1, b2)
			DttmqrWS(nil, false, ib, a2, tm, b1, b2)
		} else {
			DtsmqrWS(nil, true, ib, a2, tm, b1, b2)
			DtsmqrWS(nil, false, ib, a2, tm, b1, b2)
		}
		return matrix.MaxAbsDiff(b1, o1) < 1e-10 && matrix.MaxAbsDiff(b2, o2) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGeqrtRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := rng.Intn(12) + 1
		n := rng.Intn(12) + 1
		k := min(m, n)
		ib := rng.Intn(k) + 1
		a := matrix.NewRand(m, n, rng)
		orig := a.Clone()
		tm := matrix.New(min(ib, k), k)
		DgeqrtWS(nil, ib, a, tm)
		q := geqrtQ(ib, a, tm)
		return matrix.MaxAbsDiff(q.Mul(upperTrap(a)), orig) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFlopsPositiveAndOrdered(t *testing.T) {
	b := 64
	if FlopsQR(4*b, b) <= 0 || FlopsGeqrt(b, b) <= 0 {
		t.Fatal("flop counts must be positive")
	}
	// TT must be cheaper than TS at equal sizes (the point of triangles).
	if FlopsTtqrt(b) >= FlopsTsqrt(b, b) {
		t.Fatal("ttqrt should cost less than tsqrt")
	}
	if FlopsTtmqr(b, b) >= FlopsTsmqr(b, b, b) {
		t.Fatal("ttmqr should cost less than tsmqr")
	}
	// QR flops grow with m.
	if FlopsQR(8*b, b) <= FlopsQR(4*b, b) {
		t.Fatal("flops must grow with m")
	}
}
