package blas

import (
	"math"
	"math/rand"
	"testing"
)

// Differential tests for the level-1 vector bodies and the level-2 routines
// built on them: under every kernel configuration this host can run, the
// dispatching entry points must agree with the portable *Scalar oracles on
// every length from 0 to 33 (all three loop stages and every tail), at
// unaligned offsets, and on NaN, Inf and denormal inputs — and must write
// nothing outside [0, n). Under the `noasm` tag only the portable
// configuration exists and the same tests hold it to itself.

// vecAt returns n random values placed off elements into a sentinel-filled
// backing array, so &x[0] has every alignment modulo 64 bytes across the
// offsets used and an out-of-range write lands on a sentinel.
func vecAt(rng *rand.Rand, n, off int) (backing, x []float64) {
	backing = make([]float64, off+n+9)
	for i := range backing {
		backing[i] = 1e30
	}
	x = backing[off : off+n]
	for i := range x {
		x[i] = 2*rng.Float64() - 1
	}
	return backing, x
}

func checkSentinels(t *testing.T, backing []float64, off, n int, what string) {
	t.Helper()
	for i, v := range backing {
		if (i < off || i >= off+n) && v != 1e30 {
			t.Fatalf("%s: wrote outside [0,%d) at backing index %d (offset %d)", what, n, i, off)
		}
	}
}

// same reports a and b equal, NaN matching NaN and infinities by sign.
func same(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func forEachKernel(t *testing.T, fn func(t *testing.T)) {
	for _, cfg := range kernelConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			defer forceKernel(cfg)()
			fn(t)
		})
	}
}

func TestLevel1VectorBodiesMatchScalar(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(17))
		for n := 0; n <= 33; n++ {
			for _, off := range []int{0, 1, 3, 5, 7} {
				bx, x := vecAt(rng, n, off)
				by, y := vecAt(rng, n, (off+2)%8)
				tol := 1e-15 * float64(n+1)

				if got, want := Ddot(n, x, y), ddotScalar(n, x, y); !same(got, want, tol) {
					t.Fatalf("%s Ddot n=%d off=%d: %v, scalar %v", kp.name, n, off, got, want)
				}
				if got, want := Dnrm2(n, x), dnrm2Scalar(n, x); !same(got, want, tol) {
					t.Fatalf("%s Dnrm2 n=%d off=%d: %v, scalar %v", kp.name, n, off, got, want)
				}

				want := append([]float64(nil), y...)
				daxpyScalar(n, -0.75, x, want)
				Daxpy(n, -0.75, x, y)
				for i := range y {
					if !same(y[i], want[i], 1e-15) {
						t.Fatalf("%s Daxpy n=%d off=%d: y[%d]=%v, scalar %v", kp.name, n, off, i, y[i], want[i])
					}
				}

				want = append(want[:0], x...)
				dscalScalar(n, 1.5, want)
				Dscal(n, 1.5, x)
				for i := range x {
					if x[i] != want[i] { // one multiply per element either way: exact
						t.Fatalf("%s Dscal n=%d off=%d: x[%d]=%v, scalar %v", kp.name, n, off, i, x[i], want[i])
					}
				}
				checkSentinels(t, bx, off, n, "Dscal/Ddot x")
				checkSentinels(t, by, (off+2)%8, n, "Daxpy y")
			}
		}
	})
}

// Special values must come out the way the portable loops produce them: a
// NaN anywhere poisons a dot and a norm, infinities keep their sign (and
// Inf·0 is NaN on both paths), denormals are neither flushed nor lost, and
// Dnrm2 neither overflows on huge entries nor underflows on tiny ones.
func TestLevel1VectorBodiesSpecialValues(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	den := math.SmallestNonzeroFloat64 * 1024
	specials := []float64{nan, inf, -inf, den, -den, 0, 1e200, 1e-200, 1e308, -1e308}
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(19))
		for _, n := range []int{1, 3, 4, 5, 16, 17, 21, 33} {
			for _, sv := range specials {
				for _, pos := range []int{0, n / 2, n - 1} {
					_, x := vecAt(rng, n, 1)
					_, y := vecAt(rng, n, 3)
					x[pos] = sv
					if got, want := Ddot(n, x, y), ddotScalar(n, x, y); !same(got, want, 1e-13) {
						t.Fatalf("%s Ddot n=%d x[%d]=%v: %v, scalar %v", kp.name, n, pos, sv, got, want)
					}
					if got, want := Dnrm2(n, x), dnrm2Scalar(n, x); !same(got, want, 1e-13) {
						t.Fatalf("%s Dnrm2 n=%d x[%d]=%v: %v, scalar %v", kp.name, n, pos, sv, got, want)
					}
					for _, alpha := range []float64{2, 0, inf, nan} {
						want := append([]float64(nil), y...)
						got := append([]float64(nil), y...)
						daxpyScalar(n, alpha, x, want)
						if alpha == 0 {
							want = append(want[:0], y...) // Daxpy's documented no-op
						}
						Daxpy(n, alpha, x, got)
						for i := range got {
							if !same(got[i], want[i], 1e-13) {
								t.Fatalf("%s Daxpy alpha=%v n=%d x[%d]=%v: y[%d]=%v, scalar %v",
									kp.name, alpha, n, pos, sv, i, got[i], want[i])
							}
						}
					}
					want := append([]float64(nil), x...)
					got := append([]float64(nil), x...)
					dscalScalar(n, -3, want)
					Dscal(n, -3, got)
					for i := range got {
						if !same(got[i], want[i], 0) {
							t.Fatalf("%s Dscal n=%d x[%d]=%v: x[%d]=%v, scalar %v", kp.name, n, pos, sv, i, got[i], want[i])
						}
					}
				}
			}
		}
		// All-denormal and all-huge vectors: the single-pass sum of squares
		// is useless here and the scaled loop must take over.
		for _, v := range []float64{den, 1e-170, 1e170, 1e300} {
			x := make([]float64, 21)
			for i := range x {
				x[i] = v
			}
			want := v * math.Sqrt(21)
			if got := Dnrm2(len(x), x); math.Abs(got-want) > 1e-14*want {
				t.Fatalf("%s Dnrm2 of 21 × %g = %g, want %g", kp.name, v, got, want)
			}
		}
	})
}

// DgemvT is a column sweep of the level-1 dot body: hold it to the same
// routine run on the portable configuration, on panel-like shapes (tall, a
// few columns) with a padded leading dimension.
func TestLevel2MatchesScalarConfig(t *testing.T) {
	run := func(m, n int) []float64 {
		rng := rand.New(rand.NewSource(int64(23 + 100*m + n)))
		lda := m + 3
		a := colMajor(rng, m, n, lda)
		_, xm := vecAt(rng, m, 3)
		yt := make([]float64, n)
		for i := range yt {
			yt[i] = rng.Float64()
		}
		DgemvT(m, n, a, lda, xm, yt)
		return yt
	}
	shapes := [][2]int{{1, 1}, {3, 2}, {7, 5}, {16, 4}, {17, 23}, {33, 8}, {192, 23}, {191, 24}}
	want := map[[2]int][]float64{}
	func() {
		defer forceKernel(testParamsScalar)()
		for _, sh := range shapes {
			want[sh] = run(sh[0], sh[1])
		}
	}()
	forEachKernel(t, func(t *testing.T) {
		for _, sh := range shapes {
			got, w := run(sh[0], sh[1]), want[sh]
			tol := 1e-14 * float64(sh[0]+sh[1])
			for i := range got {
				if !same(got[i], w[i], tol) {
					t.Fatalf("%s gemvT %dx%d: [%d]=%v, portable %v", kp.name, sh[0], sh[1], i, got[i], w[i])
				}
			}
		}
	})
}

// Dlarf is the Ddot/Daxpy loop it fuses, bit for bit, under every level:
// every loop stage and tail length of m, a padded leading dimension, columns
// whose dot is zero (the skip path), and NaN/Inf in v and in c. The padding
// rows between columns and the sentinels past the last one must stay
// untouched — the masked tail stores nothing there.
func TestDlarfMatchesDotAxpy(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	specials := []float64{nan, inf, -inf}
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(29))
		for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 40, 63, 64, 65, 192, 256} {
			for _, n := range []int{0, 1, 5, 23} {
				for _, variant := range []string{"random", "zero columns", "special v", "special c"} {
					ldc := m + 3
					_, v := vecAt(rng, m, 1)
					c := make([]float64, ldc*n+5)
					for i := range c {
						c[i] = 1e30
					}
					for k := 0; k < n; k++ {
						for i := 0; i < m; i++ {
							c[i+k*ldc] = 2*rng.Float64() - 1
						}
					}
					switch variant {
					case "zero columns":
						// −0, so that applying a zero coef instead of
						// skipping would turn some entries into +0.
						for k := 0; k < n; k += 2 {
							for i := 0; i < m; i++ {
								c[i+k*ldc] = math.Copysign(0, -1)
							}
						}
					case "special v":
						v[rng.Intn(m)] = specials[rng.Intn(3)]
					case "special c":
						for k := 0; k < n; k += 2 {
							c[rng.Intn(m)+k*ldc] = specials[k%3]
						}
					}
					tau := 1 + rng.Float64()
					loop := append([]float64(nil), c...)
					for k := 0; k < n; k++ {
						ck := loop[k*ldc : k*ldc+m]
						Daxpy(m, -tau*Ddot(m, ck, v), v, ck)
					}
					Dlarf(m, n, tau, v, c, ldc)
					for i := range c {
						if math.Float64bits(c[i]) != math.Float64bits(loop[i]) {
							t.Fatalf("%s Dlarf %dx%d %s: c[%d] = %v, Ddot/Daxpy loop %v",
								kp.name, m, n, variant, i, c[i], loop[i])
						}
					}
				}
			}
		}
	})
}

// A short slice must panic in Go, on the vector path as on the scalar one,
// not read past its end in assembly.
func TestLevel1ShortSlicePanics(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		for name, call := range map[string]func(){
			"Ddot":    func() { Ddot(9, make([]float64, 9), make([]float64, 8)) },
			"Daxpy":   func() { Daxpy(9, 2, make([]float64, 9), make([]float64, 8)) },
			"Dscal":   func() { Dscal(9, 2, make([]float64, 8)) },
			"Dnrm2":   func() { Dnrm2(9, make([]float64, 8)) },
			"Dlarf v": func() { Dlarf(9, 2, 1, make([]float64, 8), make([]float64, 18), 9) },
			"Dlarf c": func() { Dlarf(9, 2, 1, make([]float64, 9), make([]float64, 17), 9) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s %s: no panic on a slice shorter than n", kp.name, name)
					}
				}()
				call()
			}()
		}
	})
}

func benchLevel1(b *testing.B, n int, fn func(x, y []float64)) {
	rng := rand.New(rand.NewSource(1))
	_, x := vecAt(rng, n, 0)
	_, y := vecAt(rng, n, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(x, y)
	}
	b.ReportMetric(2*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
}

var sinkFloat float64

// The panel kernels' inner-block shapes at the default tile: vectors of one
// tile column, panels of one inner block.
func BenchmarkDdot192(b *testing.B) {
	benchLevel1(b, 192, func(x, y []float64) { sinkFloat += Ddot(192, x, y) })
}

func BenchmarkDaxpy192(b *testing.B) {
	benchLevel1(b, 192, func(x, y []float64) { Daxpy(192, 1e-9, x, y) })
}

func BenchmarkDnrm2x192(b *testing.B) {
	benchLevel1(b, 192, func(x, _ []float64) { sinkFloat += Dnrm2(192, x) })
}

func benchLevel2(b *testing.B, fn func(a, x, y []float64)) {
	const m, n = 192, 24
	rng := rand.New(rand.NewSource(2))
	a := colMajor(rng, m, n, m)
	_, x := vecAt(rng, m, 0)
	_, y := vecAt(rng, n, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(a, x, y)
	}
	b.ReportMetric(2*m*n*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
}

func BenchmarkDgemvT192x24(b *testing.B) {
	benchLevel2(b, func(a, x, y []float64) { DgemvT(192, 24, a, 192, x, y) })
}

// One panel step at the default tile: a reflector of one tile column
// applied to the rest of its inner block.
func BenchmarkDlarf192x23(b *testing.B) {
	benchLevel2(b, func(a, x, _ []float64) { Dlarf(192, 23, 1e-9, x, a, 192) })
}
