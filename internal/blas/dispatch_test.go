package blas

import (
	"math"
	"math/rand"
	"testing"
)

// Differential tests for the micro-kernel dispatch layer: every selectable
// kernel configuration must agree with the scalar reference on fringe
// shapes, the packed-LHS entry points must be bitwise-identical to the
// blocked engine, and the environment override must only ever downgrade.

// kernelConfigs returns the configurations runnable on this host, the
// scalar reference always first.
func kernelConfigs() []kernelParams {
	cfgs := []kernelParams{testParamsScalar}
	if testHaveAVX2 {
		cfgs = append(cfgs, testParamsAVX2)
	}
	if testHaveAVX512 {
		cfgs = append(cfgs, testParamsAVX512)
	}
	return cfgs
}

// fringeSizes straddles the register-tile edges of every kernel geometry
// (MR ∈ {8,12}, NR ∈ {6,8}) and the cache-block edges (MC ∈ {120,128},
// KC ∈ {192,256}, NC ∈ {512,516}).
var fringeSizes = []int{1, 2, 3, 5, 7, 8, 9, 11, 12, 13, 119, 120, 121, 127, 128, 129, 191, 192, 193}

func TestMicroKernelsMatchScalarOnFringeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, cfg := range kernelConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			restore := forceKernel(cfg)
			defer restore()
			for _, m := range fringeSizes {
				for _, n := range fringeSizes {
					for _, k := range []int{1, 5, 12, 13} {
						if m*n > 200*200 {
							continue // keep the sweep fast; large edges pair with small k below
						}
						blockedDiff(t, rng, false, false, m, n, k)
					}
				}
			}
			// Large-k edges with transposes, sparser grid.
			for _, sz := range [][3]int{{13, 13, 191}, {12, 8, 192}, {129, 7, 193}, {121, 11, 256}, {8, 6, 257}} {
				for _, tA := range []bool{false, true} {
					for _, tB := range []bool{false, true} {
						blockedDiff(t, rng, tA, tB, sz[0], sz[1], sz[2])
					}
				}
			}
		})
	}
}

// blockedDiff drives dgemmBlocked directly (bypassing the size-based
// dispatch in Dgemm) so fringe shapes exercise the forced micro-kernel.
func blockedDiff(t *testing.T, rng *rand.Rand, transA, transB bool, m, n, k int) {
	t.Helper()
	ar, ac := m, k
	if transA {
		ar, ac = k, m
	}
	br, bc := k, n
	if transB {
		br, bc = n, k
	}
	lda, ldb, ldc := ar+2, br+1, m+3
	a := colMajor(rng, ar, ac, lda)
	b := colMajor(rng, br, bc, ldb)
	c := colMajor(rng, m, n, ldc)
	want := make([]float64, len(c))
	copy(want, c)
	const alpha = 1.25
	dgemmScalar(transA, transB, m, n, k, alpha, a, lda, b, ldb, 1, want, ldc)
	dgemmBlocked(transA, transB, m, n, k, alpha, a, lda, b, ldb, c, ldc)
	tol := 1e-13 * float64(k+4)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			if d := math.Abs(c[i+j*ldc] - want[i+j*ldc]); d > tol {
				t.Fatalf("%s gemm(tA=%v tB=%v m=%d n=%d k=%d): |diff|=%g at (%d,%d)",
					kp.name, transA, transB, m, n, k, d, i, j)
			}
		}
	}
	checkPadding(t, c, m, n, ldc, "C")
}

// TestPackedLHSBitwiseMatchesBlocked proves the prepack contract the fused
// apply rests on: PackLHS + DgemmPackedLHS must produce results bitwise
// identical to dgemmBlocked on the same operands, for every available
// kernel geometry, with and without a transposed left-hand side.
func TestPackedLHSBitwiseMatchesBlocked(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := [][3]int{{1, 1, 1}, {7, 5, 3}, {12, 8, 13}, {13, 9, 12}, {48, 192, 32}, {121, 67, 129}, {128, 200, 256}, {129, 193, 257}}
	for _, cfg := range kernelConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			restore := forceKernel(cfg)
			defer restore()
			for _, trans := range []bool{false, true} {
				for _, sz := range shapes {
					m, n, k := sz[0], sz[1], sz[2]
					ar, ac := m, k
					if trans {
						ar, ac = k, m
					}
					lda, ldb, ldc := ar+1, k+2, m+1
					a := colMajor(rng, ar, ac, lda)
					b := colMajor(rng, k, n, ldb)
					c1 := colMajor(rng, m, n, ldc)
					c2 := make([]float64, len(c1))
					copy(c2, c1)
					const alpha = -0.75
					dgemmBlocked(trans, false, m, n, k, alpha, a, lda, b, ldb, c1, ldc)
					ap := make([]float64, PackedLHSLen(m, k))
					PackLHS(trans, m, k, a, lda, ap)
					DgemmPackedLHS(m, n, k, ap, alpha, b, ldb, c2, ldc)
					for i := range c1 {
						if c1[i] != c2[i] {
							t.Fatalf("%s trans=%v m=%d n=%d k=%d: packed path diverges bitwise at flat index %d: %v vs %v",
								kp.name, trans, m, n, k, i, c1[i], c2[i])
						}
					}
				}
			}
		})
	}
}

// TestTrmmDensePathMatchesScalar pins the small-shape routing fix: the
// panel-apply shapes (48×192 and its recursion halves) must route through
// the dense-expanded packed path and still match the scalar triangle walk,
// under every kernel geometry.
func TestTrmmDensePathMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, cfg := range kernelConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			restore := forceKernel(cfg)
			defer restore()
			for _, sz := range [][2]int{{17, 64}, {24, 192}, {32, 100}, {48, 192}, {64, 192}, {96, 192}, {192, 192}} {
				m, n := sz[0], sz[1]
				for _, upper := range []bool{false, true} {
					for _, trans := range []bool{false, true} {
						for _, unit := range []bool{false, true} {
							trmmDiff(t, rng, upper, trans, unit, m, n, 1.0)
						}
					}
				}
			}
		})
	}
}

func TestTrmmDenseRoutingPredicate(t *testing.T) {
	// The 48×192 panel-apply shape and its 96-row parent must take the
	// dense path; tiny and huge triangles must not.
	for _, tc := range []struct {
		m, n int
		want bool
	}{
		{48, 192, true},
		{17, 64, true},
		{16, 192, false}, // triangle small enough for the scalar walk
		{65, 192, false}, // above trmmDenseMaxM: blocked recursion splits it first
		{48, 4, false},   // narrower than any NR: packing overhead cannot amortize
		{20, 20, false},  // below the blocked work threshold
	} {
		if got := trmmLeftDenseOK(tc.m, tc.n); got != tc.want {
			t.Errorf("trmmLeftDenseOK(%d, %d) = %v, want %v", tc.m, tc.n, got, tc.want)
		}
	}
}

// TestPickKernelEnvDowngrade checks the override can only lower the level.
func TestPickKernelEnvDowngrade(t *testing.T) {
	best := pickKernel()
	t.Setenv("PULSARQR_MICROKERNEL", "portable")
	if got := pickKernel(); got.level != levelGeneric {
		t.Fatalf("portable override picked %s", got.name)
	}
	t.Setenv("PULSARQR_MICROKERNEL", "avx2")
	if got := pickKernel(); got.level > levelAVX2 {
		t.Fatalf("avx2 override picked %s", got.name)
	}
	t.Setenv("PULSARQR_MICROKERNEL", "avx512")
	if got := pickKernel(); got.level > best.level {
		t.Fatalf("avx512 request upgraded past detection: %s vs best %s", got.name, best.name)
	}
	t.Setenv("PULSARQR_MICROKERNEL", "")
	if got := pickKernel(); got.level != best.level {
		t.Fatalf("empty override changed selection: %s vs %s", got.name, best.name)
	}
}
