package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroInitialized(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || m.LD != 3 {
		t.Fatalf("bad shape %dx%d ld %d", m.Rows, m.Cols, m.LD)
	}
	for j := 0; j < 4; j++ {
		for i := 0; i < 3; i++ {
			if m.At(i, j) != 0 {
				t.Fatal("not zero initialized")
			}
		}
	}
}

func TestNewZeroDims(t *testing.T) {
	for _, d := range [][2]int{{0, 0}, {0, 3}, {3, 0}} {
		m := New(d[0], d[1])
		if m.Rows != d[0] || m.Cols != d[1] {
			t.Fatalf("bad shape for %v", d)
		}
		if m.FrobNorm() != 0 {
			t.Fatal("norm of empty must be 0")
		}
	}
}

func TestSetAtAdd(t *testing.T) {
	m := New(2, 2)
	m.Set(1, 0, 5)
	m.Add(1, 0, 2.5)
	if got := m.At(1, 0); got != 7.5 {
		t.Fatalf("got %v", got)
	}
}

func TestViewAliases(t *testing.T) {
	m := New(4, 4)
	v := m.View(1, 2, 2, 2)
	v.Set(0, 0, 9)
	if m.At(1, 2) != 9 {
		t.Fatal("view must alias parent storage")
	}
	if v.Rows != 2 || v.Cols != 2 || v.LD != 4 {
		t.Fatalf("bad view shape %dx%d ld %d", v.Rows, v.Cols, v.LD)
	}
}

func TestViewBounds(t *testing.T) {
	m := New(3, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range view must panic")
		}
	}()
	m.View(2, 2, 2, 2)
}

// An empty view inside the bounds is a view, even where it starts past the
// last element: a column-less one at a row offset of a column-less matrix,
// or a row-less one past the last column of a short-LD matrix.
func TestEmptyViewsInBounds(t *testing.T) {
	for _, tc := range []struct {
		m                *Mat
		i, j, rows, cols int
	}{
		{New(4, 0), 1, 0, 3, 0},
		{New(4, 0), 4, 0, 0, 0},
		{New(0, 3), 0, 3, 0, 0},
		{New(2, 2), 2, 2, 0, 0},
		{New(2, 2).View(1, 1, 1, 1), 1, 0, 0, 1},
	} {
		for name, view := range map[string]func() *Mat{
			"View":     func() *Mat { return tc.m.View(tc.i, tc.j, tc.rows, tc.cols) },
			"ViewInto": func() *Mat { return tc.m.ViewInto(&Mat{}, tc.i, tc.j, tc.rows, tc.cols) },
		} {
			v := view()
			if v.Rows != tc.rows || v.Cols != tc.cols || v.LD != tc.m.LD {
				t.Fatalf("%s(%d, %d, %d, %d) of %dx%d: %dx%d ld %d", name, tc.i, tc.j, tc.rows, tc.cols, tc.m.Rows, tc.m.Cols, v.Rows, v.Cols, v.LD)
			}
			if c := v.Clone(); c.Rows != tc.rows || c.Cols != tc.cols {
				t.Fatalf("%s: clone of a %dx%d view is %dx%d", name, tc.rows, tc.cols, c.Rows, c.Cols)
			}
		}
	}
}

func TestCloneCompactAndIndependent(t *testing.T) {
	m := NewRand(5, 5, rand.New(rand.NewSource(1)))
	v := m.View(1, 1, 3, 3)
	c := v.Clone()
	if c.LD != 3 {
		t.Fatalf("clone not compact, ld=%d", c.LD)
	}
	if MaxAbsDiff(c, v) != 0 {
		t.Fatal("clone differs")
	}
	c.Set(0, 0, 1e9)
	if v.At(0, 0) == 1e9 {
		t.Fatal("clone aliases")
	}
}

func TestCopyFromStrided(t *testing.T) {
	src := NewRand(6, 6, rand.New(rand.NewSource(2)))
	dst := New(6, 6)
	dst.View(2, 2, 3, 3).CopyFrom(src.View(0, 0, 3, 3))
	if dst.At(2, 2) != src.At(0, 0) || dst.At(4, 4) != src.At(2, 2) {
		t.Fatal("strided copy wrong")
	}
	if dst.At(0, 0) != 0 || dst.At(5, 5) != 0 {
		t.Fatal("copy wrote outside the view")
	}
}

func TestTransposeMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewRand(3, 4, rng)
	b := NewRand(4, 2, rng)
	c := a.Mul(b)
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			var s float64
			for k := 0; k < 4; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			if math.Abs(c.At(i, j)-s) > 1e-14 {
				t.Fatalf("mul (%d,%d): %v vs %v", i, j, c.At(i, j), s)
			}
		}
	}
	at := a.Transpose()
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if at.At(j, i) != a.At(i, j) {
				t.Fatal("transpose wrong")
			}
		}
	}
}

func TestIdentityMulProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(8) + 1
		a := NewRand(n, n, rng)
		return MaxAbsDiff(a.Mul(Identity(n)), a) == 0 &&
			MaxAbsDiff(Identity(n).Mul(a), a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFrobNormKnown(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, 3)
	m.Set(1, 1, 4)
	if got := m.FrobNorm(); math.Abs(got-5) > 1e-15 {
		t.Fatalf("frob = %v", got)
	}
}

func TestFrobNormOverflowSafe(t *testing.T) {
	m := New(2, 1)
	m.Set(0, 0, 1e200)
	m.Set(1, 0, 1e200)
	got := m.FrobNorm()
	want := 1e200 * math.Sqrt2
	if math.IsInf(got, 0) || math.Abs(got-want)/want > 1e-14 {
		t.Fatalf("frob = %v want %v", got, want)
	}
}

func TestMaxAbsAndDiff(t *testing.T) {
	a := New(2, 2)
	a.Set(0, 1, -7)
	if a.MaxAbs() != 7 {
		t.Fatal("MaxAbs wrong")
	}
	b := a.Clone()
	b.Set(1, 0, 2)
	if MaxAbsDiff(a, b) != 2 {
		t.Fatal("MaxAbsDiff wrong")
	}
}

// A NaN difference is never smaller than another, so no "== 0" check can
// pass on it: a NaN on one side or on both makes the result NaN, even when
// a larger finite difference follows it.
func TestMaxAbsDiffSeesNaN(t *testing.T) {
	a, b := New(3, 1), New(3, 1)
	a.Set(0, 0, math.NaN())
	b.Set(2, 0, 5)
	if d := MaxAbsDiff(a, b); !math.IsNaN(d) {
		t.Fatalf("NaN on one side: %v, want NaN", d)
	}
	if d := MaxAbsDiff(b, a); !math.IsNaN(d) {
		t.Fatalf("NaN on the other side: %v, want NaN", d)
	}
	if d := MaxAbsDiff(a, a.Clone()); !math.IsNaN(d) {
		t.Fatalf("NaN on both sides: %v, want NaN", d)
	}
}

func TestSubFillZero(t *testing.T) {
	a := New(2, 3)
	a.Fill(2)
	b := New(2, 3)
	b.Fill(0.5)
	d := a.Sub(b)
	if d.At(1, 2) != 1.5 {
		t.Fatal("sub wrong")
	}
	a.Zero()
	if a.MaxAbs() != 0 {
		t.Fatal("zero wrong")
	}
}

func TestUpperTriangle(t *testing.T) {
	m := NewRand(3, 3, rand.New(rand.NewSource(4)))
	u := m.UpperTriangle()
	for j := 0; j < 3; j++ {
		for i := 0; i < 3; i++ {
			want := m.At(i, j)
			if i > j {
				want = 0
			}
			if u.At(i, j) != want {
				t.Fatal("upper triangle wrong")
			}
		}
	}
}

func TestFromColMajor(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m := FromColMajor(2, 3, 2, data)
	if m.At(0, 0) != 1 || m.At(1, 0) != 2 || m.At(0, 2) != 5 {
		t.Fatal("FromColMajor layout wrong")
	}
	m.Set(0, 0, 9)
	if data[0] != 9 {
		t.Fatal("FromColMajor must not copy")
	}
}
