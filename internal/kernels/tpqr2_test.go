package kernels_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pulsarqr/internal/batch"
	. "pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
)

// randR returns the R factor of a random 2n×n matrix: the well-conditioned
// upper triangle a reduction carries, with zeros below it.
func randR(n int, rng *rand.Rand) *matrix.Mat {
	a := matrix.NewRand(2*n, n, rng)
	Dgeqr2(a, make([]float64, n))
	return a.View(0, 0, n, n).UpperTriangle()
}

// pentagon returns a random m×n block whose bottom l rows are upper
// trapezoidal (the R of a random matrix), with fill below the trapezoid.
func pentagon(m, n, l int, fill float64, rng *rand.Rand) *matrix.Mat {
	b := matrix.NewRand(m, n, rng)
	if l == 0 {
		return b
	}
	b.View(m-l, 0, l, n).CopyFrom(randR(n, rng).View(0, 0, l, n))
	for j := 0; j < n; j++ {
		for i := m - l + j + 1; i < m; i++ {
			b.Set(i, j, fill)
		}
	}
	return b
}

// canon applies the batch's sign convention (diag(R) ≥ 0) to r and flips the
// rows of c1 (when non-nil) whose R row it flips.
func canon(r, c1 *matrix.Mat) {
	for i := 0; c1 != nil && i < r.Cols; i++ {
		if r.At(i, i) < 0 {
			for j := 0; j < c1.Cols; j++ {
				c1.Set(i, j, -c1.At(i, j))
			}
		}
	}
	batch.Canonicalize(r)
}

// sameBits reports whether two same-shaped matrices hold the same bits.
func sameBits(a, b *matrix.Mat) bool {
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// stackNorm is ‖[top; bottom]‖_F.
func stackNorm(top, bottom *matrix.Mat) float64 {
	return math.Hypot(top.FrobNorm(), bottom.FrobNorm())
}

// trapezoid returns a copy of b with zeros below its trapezoid: the dense
// block the pair [R; B] stands for.
func trapezoid(b *matrix.Mat, l int) *matrix.Mat {
	d := b.Clone()
	for j := 0; j < d.Cols; j++ {
		for i := d.Rows - l + j + 1; i < d.Rows; i++ {
			d.Set(i, j, 0)
		}
	}
	return d
}

// stack returns the dense (top.Rows+bottom.Rows)×cols matrix [top; bottom].
func stack(top, bottom *matrix.Mat) *matrix.Mat {
	s := matrix.New(top.Rows+bottom.Rows, top.Cols)
	s.View(0, 0, top.Rows, top.Cols).CopyFrom(top)
	s.View(top.Rows, 0, bottom.Rows, bottom.Cols).CopyFrom(bottom)
	return s
}

// Dtpqr2 against the blocked kernels on the explicitly stacked dense
// [R; B] (zeros below b's trapezoid): DgeqrtWS with one inner block, which
// is Dgeqr2 on the whole stack, and DormqrWS for the trailing columns.
// After sign canonicalization R agrees within 16·ε·‖[R; B]‖_F and the
// trailing columns within that plus 16·ε·‖[C1; C2]‖_F. b carries NaN below
// its trapezoid, which Dtpqr2 must neither read nor write.
//
// R only (t nil), b is not written. With t, R and the trailing columns are
// bitwise the R-only call's, the NaN below the trapezoid comes back
// bitwise, and the V left in b with T rebuild [R; B] from [R_new; 0] through
// DtsmqrWS (or DttmqrWS when all of b is trapezoid) with trans = false.
func TestDtpqr2MatchesBlocked(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	ws := NewWorkspace()
	eps := 0x1p-52
	for _, m := range []int{1, 7, 63, 64, 65, 192} {
		for _, n := range []int{1, 8, 64, 65} {
			ls := []int{0, min(m, n) / 2, min(m, n)}
			for i, l := range ls {
				if i > 0 && l == ls[i-1] {
					continue // min(m, n) < 2: the middle l is l = 0 again
				}
				for _, k := range []int{0, 1, 3} {
					name := fmt.Sprintf("m%d_n%d_l%d_k%d", m, n, l, k)
					r := randR(n, rng)
					b := pentagon(m, n, l, math.NaN(), rng)
					var c1, c2 *matrix.Mat
					if k > 0 {
						c1, c2 = matrix.NewRand(n, k, rng), matrix.NewRand(m, k, rng)
					}
					r0, dense := r.Clone(), trapezoid(b, l)
					tol := 16 * eps * stackNorm(r, dense)

					a := stack(r, dense)
					tf := matrix.New(n, n)
					DgeqrtWS(ws, n, a, tf)
					wantR := a.View(0, 0, n, n).UpperTriangle()
					var wantC1, wantC2 *matrix.Mat
					if k > 0 {
						tol += 16 * eps * stackNorm(c1, c2)
						c := stack(c1, c2)
						DormqrWS(ws, true, n, a, tf, c)
						wantC1, wantC2 = c.View(0, 0, n, k).Clone(), c.View(n, 0, m, k).Clone()
					}

					rT, bT := r.Clone(), b.Clone()
					var c1T, c2T *matrix.Mat
					if k > 0 {
						c1T, c2T = c1.Clone(), c2.Clone()
					}
					b0 := b.Clone()
					Dtpqr2(ws, l, r, b, nil, c1, c2)
					if !sameBits(b, b0) {
						t.Fatalf("%s: b was written", name)
					}
					tm := matrix.New(n, n)
					for i := range tm.Data {
						tm.Data[i] = math.NaN()
					}
					Dtpqr2(ws, l, rT, bT, tm, c1T, c2T)
					if !sameBits(rT, r) || (k > 0 && (!sameBits(c1T, c1) || !sameBits(c2T, c2))) {
						t.Fatalf("%s: building T moved R or the trailing columns", name)
					}
					for j := 0; j < n; j++ {
						h := m - l + min(j+1, l)
						if !sameBits(bT.View(h, j, m-h, 1), b0.View(h, j, m-h, 1)) {
							t.Fatalf("%s: column %d below the trapezoid was written", name, j)
						}
					}

					top, bottom := rT.Clone(), matrix.New(m, n)
					if l == m {
						DttmqrWS(ws, false, n, bT, tm, top, bottom)
					} else {
						DtsmqrWS(ws, false, n, trapezoid(bT, l), tm, top, bottom)
					}
					if d := math.Max(matrix.MaxAbsDiff(top, r0), matrix.MaxAbsDiff(bottom, dense)); !(d <= tol) {
						t.Fatalf("%s: Q from V and T rebuilds [R; B] off by %g (tol %g)", name, d, tol)
					}

					canon(r, c1)
					canon(wantR, wantC1)
					if d := matrix.MaxAbsDiff(r, wantR); !(d <= tol) {
						t.Fatalf("%s: R differs from the blocked kernel's by %g (tol %g)", name, d, tol)
					}
					if k > 0 {
						if d := math.Max(matrix.MaxAbsDiff(c1, wantC1), matrix.MaxAbsDiff(c2, wantC2)); !(d <= tol) {
							t.Fatalf("%s: trailing columns differ from the blocked update's by %g (tol %g)", name, d, tol)
						}
					}
				}
			}
		}
	}
}

// A zero column makes τ = 0: the reflector is the identity, R's row keeps
// its bits and nothing turns non-finite.
func TestDtpqr2ZeroColumn(t *testing.T) {
	const m, n = 16, 8
	rng := rand.New(rand.NewSource(41))
	r := randR(n, rng)
	b := matrix.NewRand(m, n, rng)
	for i := 0; i < m; i++ {
		b.Set(i, 0, 0)
	}
	row0 := r.View(0, 0, 1, n).Clone()
	c1, c2 := matrix.NewRand(n, 2, rng), matrix.NewRand(m, 2, rng)
	wantC1 := c1.View(0, 0, 1, 2).Clone()
	Dtpqr2(nil, 0, r, b, nil, c1, c2)
	if !sameBits(r.View(0, 0, 1, n), row0) || !sameBits(c1.View(0, 0, 1, 2), wantC1) {
		t.Fatal("an identity reflector moved row 0 of R or c1")
	}
	for _, mat := range []*matrix.Mat{r, b, c1, c2} {
		for _, v := range mat.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("a zero column produced a non-finite entry")
			}
		}
	}
}

// A NaN block poisons its own R and leaves nothing behind: the next call on
// the same workspace is bitwise a fresh workspace's, for both shapes.
func TestDtpqr2AfterNaNBlock(t *testing.T) {
	const m, n, k = 70, 16, 2
	rng := rand.New(rand.NewSource(42))
	for _, l := range []int{0, n} {
		ws := NewWorkspace()
		bad := pentagon(m, n, l, 0, rng)
		bad.Set(m-1, n-1, math.NaN())
		r := randR(n, rng)
		Dtpqr2(ws, l, r, bad, nil, matrix.NewRand(n, k, rng), matrix.NewRand(m, k, rng))
		if !math.IsNaN(r.At(n-1, n-1)) {
			t.Fatalf("l=%d: the NaN did not reach R", l)
		}

		r0, b0 := randR(n, rng), pentagon(m, n, l, 0, rng)
		c10, c20 := matrix.NewRand(n, k, rng), matrix.NewRand(m, k, rng)
		gotR, gotC1, gotC2 := r0.Clone(), c10.Clone(), c20.Clone()
		Dtpqr2(ws, l, gotR, b0, nil, gotC1, gotC2)
		Dtpqr2(NewWorkspace(), l, r0, b0, nil, c10, c20)
		for _, p := range [][2]*matrix.Mat{{gotR, r0}, {gotC1, c10}, {gotC2, c20}} {
			if !sameBits(p[0], p[1]) {
				t.Fatalf("l=%d: a call after a NaN block differs from a fresh workspace's", l)
			}
		}
	}
}
