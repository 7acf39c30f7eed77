package blas

import (
	"math"
	"math/rand"
	"testing"
)

// Differential tests for the blocked level-3 engine: the blocked paths must
// agree with the retained scalar references (dgemmScalar, trmmLeftScalar)
// to rounding on every shape, including the adversarial ones around the
// micro-kernel and blocking boundaries.

// boundarySizes straddles every compile-time blocking constant: the
// micro-tile edges (MR=8, NR=6), the cache blocks (MC=128, KC=256), primes,
// and the degenerate 0/1 cases.
var boundarySizes = []int{0, 1, 2, 3, 5, 6, 7, 8, 9, 13, 16, 17, 31, 48, 97, 127, 128, 129, 257}

// gemmDiff runs the public Dgemm (which may route to the blocked engine)
// against dgemmScalar on identical inputs and returns the max abs error.
func gemmDiff(t *testing.T, rng *rand.Rand, transA, transB bool, m, n, k int, alpha, beta float64) {
	t.Helper()
	ar, ac := m, k
	if transA {
		ar, ac = k, m
	}
	br, bc := k, n
	if transB {
		br, bc = n, k
	}
	lda, ldb, ldc := ar+3, br+1, m+2
	if lda < 1 {
		lda = 1
	}
	if ldb < 1 {
		ldb = 1
	}
	if ldc < 1 {
		ldc = 1
	}
	a := colMajor(rng, ar, ac, lda)
	b := colMajor(rng, br, bc, ldb)
	c := colMajor(rng, m, n, ldc)
	want := make([]float64, len(c))
	copy(want, c)
	dgemmScalar(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, want, ldc)
	Dgemm(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
	// Elementwise error bound: each entry is a k-term inner product of
	// values in [-1,1] plus beta*C; reassociation error grows with k.
	tol := 1e-13 * float64(k+4)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			if d := math.Abs(c[i+j*ldc] - want[i+j*ldc]); d > tol {
				t.Fatalf("gemm(tA=%v tB=%v m=%d n=%d k=%d alpha=%v beta=%v): |diff|=%g at (%d,%d)",
					transA, transB, m, n, k, alpha, beta, d, i, j)
			}
		}
	}
	checkPadding(t, c, m, n, ldc, "C")
}

func TestDgemmBlockedMatchesScalarShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, transA := range []bool{false, true} {
		for _, transB := range []bool{false, true} {
			for _, m := range boundarySizes {
				for _, n := range boundarySizes {
					for _, k := range boundarySizes {
						// Keep the full sweep affordable: skip triples where
						// every dimension is large — the boundary behavior
						// they exercise is covered by the mixed triples.
						if m*n*k > 48*48*97 {
							continue
						}
						gemmDiff(t, rng, transA, transB, m, n, k, 0.5, -1)
					}
				}
			}
		}
	}
}

func TestDgemmBlockedMatchesScalarCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, alpha := range []float64{0, 1, -1, 0.5} {
		for _, beta := range []float64{0, 1, -1, 0.5} {
			for _, sz := range [][3]int{{48, 48, 48}, {17, 129, 31}, {9, 7, 257}} {
				gemmDiff(t, rng, false, false, sz[0], sz[1], sz[2], alpha, beta)
				gemmDiff(t, rng, true, false, sz[0], sz[1], sz[2], alpha, beta)
			}
		}
	}
}

// TestDgemmBlockedDeterministic locks in the determinism contract: repeated
// blocked runs on the same inputs must agree bitwise, regardless of which
// pooled scratch buffer they draw.
func TestDgemmBlockedDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m, n, k := 97, 65, 129
	a := colMajor(rng, m, k, m)
	b := colMajor(rng, k, n, k)
	c0 := colMajor(rng, m, n, m)
	c1 := make([]float64, len(c0))
	copy(c1, c0)
	Dgemm(false, false, m, n, k, 1.5, a, m, b, k, 0.5, c0, m)
	Dgemm(false, false, m, n, k, 1.5, a, m, b, k, 0.5, c1, m)
	for i := range c0 {
		if c0[i] != c1[i] {
			t.Fatalf("blocked Dgemm not bitwise deterministic at %d", i)
		}
	}
}

func trmmDiff(t *testing.T, rng *rand.Rand, upper, trans, unit bool, m, n int, alpha float64) {
	t.Helper()
	lda, ldb := m+2, m+1
	if m == 0 {
		lda, ldb = 1, 1
	}
	a := colMajor(rng, m, m, lda)
	b := colMajor(rng, m, n, ldb)
	want := make([]float64, len(b))
	copy(want, b)
	trmmLeftScalar(upper, trans, unit, m, n, alpha, a, lda, want, ldb)
	Dtrmm(true, upper, trans, unit, m, n, alpha, a, lda, b, ldb)
	tol := 1e-13 * float64(m+4)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			if d := math.Abs(b[i+j*ldb] - want[i+j*ldb]); d > tol {
				t.Fatalf("trmm(upper=%v trans=%v unit=%v m=%d n=%d alpha=%v): |diff|=%g at (%d,%d)",
					upper, trans, unit, m, n, alpha, d, i, j)
			}
		}
	}
	checkPadding(t, b, m, n, ldb, "B")
}

func TestDtrmmBlockedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, upper := range []bool{false, true} {
		for _, trans := range []bool{false, true} {
			for _, unit := range []bool{false, true} {
				for _, m := range []int{1, 2, 7, 15, 16, 17, 24, 31, 48, 97, 129} {
					for _, n := range []int{1, 5, 48, 193} {
						trmmDiff(t, rng, upper, trans, unit, m, n, 1)
					}
				}
				for _, alpha := range []float64{0, -1, 0.5} {
					trmmDiff(t, rng, upper, trans, unit, 49, 33, alpha)
				}
			}
		}
	}
}

// FuzzDgemmBlocked cross-checks the blocked engine against the scalar
// reference on fuzzer-chosen shapes and coefficients.
func FuzzDgemmBlocked(f *testing.F) {
	f.Add(int64(1), uint8(48), uint8(48), uint8(48), uint8(0), 1.0, 0.0)
	f.Add(int64(2), uint8(129), uint8(7), uint8(255), uint8(1), 0.5, -1.0)
	f.Add(int64(3), uint8(9), uint8(6), uint8(8), uint8(3), -1.0, 0.5)
	f.Fuzz(func(t *testing.T, seed int64, mm, nn, kk, flags uint8, alpha, beta float64) {
		m, n, k := int(mm), int(nn), int(kk)
		if m == 0 || n == 0 || k == 0 {
			return
		}
		if !(math.Abs(alpha) <= 4 && math.Abs(beta) <= 4) {
			return // keep magnitudes comparable so tolerances stay meaningful
		}
		transA := flags&1 != 0
		transB := flags&2 != 0
		rng := rand.New(rand.NewSource(seed))
		ar, ac := m, k
		if transA {
			ar, ac = k, m
		}
		br, bc := k, n
		if transB {
			br, bc = n, k
		}
		a := colMajor(rng, ar, ac, ar)
		b := colMajor(rng, br, bc, br)
		c := colMajor(rng, m, n, m)
		want := make([]float64, len(c))
		copy(want, c)
		dgemmScalar(transA, transB, m, n, k, alpha, a, ar, b, br, beta, want, m)
		Dgemm(transA, transB, m, n, k, alpha, a, ar, b, br, beta, c, m)
		tol := 1e-13 * float64(k+4) * (math.Abs(alpha) + math.Abs(beta) + 1)
		for i := range c {
			if d := math.Abs(c[i] - want[i]); d > tol {
				t.Fatalf("blocked/scalar mismatch: m=%d n=%d k=%d tA=%v tB=%v alpha=%v beta=%v |diff|=%g",
					m, n, k, transA, transB, alpha, beta, d)
			}
		}
	})
}

// TestDgemmBlockedHardInputs takes the blocked engine — packing, the
// micro-kernels, the ragged-edge fold — through the panel applies' products
// at the default tile (W += V2ᵀ·C2 is TN 24×168×192, C2 -= V2·W is NN
// 192×168×24) and a ragged neighbour, on operands the well-conditioned
// sweeps above never hold. Finite hard values (denormals, ±1e150 and 1e-150
// scales, ±0) must agree with dgemmScalar to the differential tolerance,
// scaled by the magnitudes that entered each sum; NaN and ±Inf, in operands
// with no exact zero, must come out in exactly the same places. With an
// exact zero the two engines legitimately differ — see the last block.
func TestDgemmBlockedHardInputs(t *testing.T) {
	type shape struct {
		transA  bool
		m, n, k int
	}
	shapes := []shape{{true, 24, 168, 192}, {false, 192, 168, 24}, {true, 23, 61, 187}, {false, 23, 61, 187}}
	den := math.SmallestNonzeroFloat64
	finiteHard := []float64{den, -den * 3, den * (1 << 30), 1e150, -1e150, 1e-150, 0, math.Copysign(0, -1)}
	nonFinite := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	const alpha = 1.25
	// operands returns A and B, one entry in oneIn drawn from specials and no
	// other exactly zero, and C.
	operands := func(rng *rand.Rand, sh shape, specials []float64, oneIn int) (a, b, c []float64, lda, ldb, ldc int) {
		ar, ac := sh.m, sh.k
		if sh.transA {
			ar, ac = sh.k, sh.m
		}
		lda, ldb, ldc = ar+3, sh.k+1, sh.m+2
		a, b, c = colMajor(rng, ar, ac, lda), colMajor(rng, sh.k, sh.n, ldb), colMajor(rng, sh.m, sh.n, ldc)
		for _, op := range [][]float64{a, b} {
			for i := range op {
				if op[i] == 0 {
					op[i] = 0.5
				}
				if len(specials) > 0 && rng.Intn(oneIn) == 0 {
					op[i] = specials[rng.Intn(len(specials))]
				}
			}
		}
		return
	}
	at := func(a []float64, lda int, trans bool, i, l int) float64 {
		if trans {
			return a[l+i*lda]
		}
		return a[i+l*lda]
	}
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(37))
		for _, sh := range shapes {
			if !useBlocked(sh.m, sh.n, sh.k) {
				t.Fatalf("shape %+v does not reach the blocked engine", sh)
			}
			a, b, c, lda, ldb, ldc := operands(rng, sh, finiteHard, 16)
			want := append([]float64(nil), c...)
			dgemmScalar(sh.transA, false, sh.m, sh.n, sh.k, alpha, a, lda, b, ldb, 1, want, ldc)
			Dgemm(sh.transA, false, sh.m, sh.n, sh.k, alpha, a, lda, b, ldb, 1, c, ldc)
			for j := 0; j < sh.n; j++ {
				for i := 0; i < sh.m; i++ {
					mag := math.Abs(want[i+j*ldc])
					for l := 0; l < sh.k; l++ {
						mag += math.Abs(alpha * at(a, lda, sh.transA, i, l) * b[l+j*ldb])
					}
					got, w := c[i+j*ldc], want[i+j*ldc]
					if d := math.Abs(got - w); !(d <= 1e-13*float64(sh.k+4)*math.Max(1, mag)) {
						t.Fatalf("%s %+v finite hard values: C(%d,%d) = %v, scalar %v", kp.name, sh, i, j, got, w)
					}
				}
			}
			checkPadding(t, c, sh.m, sh.n, ldc, "C")

			// Sparse enough that finite, infinite and NaN entries of C all occur.
			a, b, c, lda, ldb, ldc = operands(rng, sh, nonFinite, 512)
			want = append(want[:0], c...)
			dgemmScalar(sh.transA, false, sh.m, sh.n, sh.k, alpha, a, lda, b, ldb, 1, want, ldc)
			Dgemm(sh.transA, false, sh.m, sh.n, sh.k, alpha, a, lda, b, ldb, 1, c, ldc)
			var finite, inf, nan int
			for j := 0; j < sh.n; j++ {
				for i := 0; i < sh.m; i++ {
					got, w := c[i+j*ldc], want[i+j*ldc]
					if !same(got, w, 1e-13*float64(sh.k+4)) {
						t.Fatalf("%s %+v NaN/Inf operands: C(%d,%d) = %v, scalar %v", kp.name, sh, i, j, got, w)
					}
					switch {
					case math.IsNaN(w):
						nan++
					case math.IsInf(w, 0):
						inf++
					default:
						finite++
					}
				}
			}
			if finite == 0 || inf == 0 || nan == 0 {
				t.Fatalf("%s %+v: C has %d finite, %d infinite, %d NaN entries; the placement check wants all three kinds",
					kp.name, sh, finite, inf, nan)
			}
			checkPadding(t, c, sh.m, sh.n, ldc, "C")
		}

		// The documented difference (KERNELS.md §6): dgemmScalar's
		// no-transpose loop skips a k-step whose alpha·b is zero, so a NaN
		// in the matching column of A never reaches C; the packed engine
		// multiplies it out and 0·NaN = NaN lands in C. Both are legal
		// BLAS, and which one runs depends on the shape alone.
		sh := shape{false, 192, 168, 24}
		a, b, c, lda, ldb, ldc := operands(rng, sh, nil, 0)
		const row, step = 77, 13
		a[row+step*lda] = math.NaN()
		for j := 0; j < sh.n; j++ {
			b[step+j*ldb] = 0
		}
		want := append([]float64(nil), c...)
		dgemmScalar(false, false, sh.m, sh.n, sh.k, alpha, a, lda, b, ldb, 1, want, ldc)
		Dgemm(false, false, sh.m, sh.n, sh.k, alpha, a, lda, b, ldb, 1, c, ldc)
		for j := 0; j < sh.n; j++ {
			if got, w := c[row+j*ldc], want[row+j*ldc]; !math.IsNaN(got) || math.IsNaN(w) {
				t.Fatalf("%s zero-skip: C(%d,%d) = %v on the packed engine (want NaN), %v on the scalar loops (want finite)",
					kp.name, row, j, got, w)
			}
		}
	})
}
