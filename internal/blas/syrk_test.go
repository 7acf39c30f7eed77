package blas

import (
	"math"
	"math/rand"
	"testing"
)

func refSyrk(upper, trans bool, n, k int, alpha float64, a []float64, lda int,
	beta float64, c []float64, ldc int) []float64 {
	out := make([]float64, len(c))
	copy(out, c)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			inTri := (upper && i <= j) || (!upper && i >= j)
			if !inTri {
				continue
			}
			var s float64
			for l := 0; l < k; l++ {
				var av, bv float64
				if trans {
					av, bv = get(a, lda, l, i), get(a, lda, l, j)
				} else {
					av, bv = get(a, lda, i, l), get(a, lda, j, l)
				}
				s += av * bv
			}
			out[i+j*ldc] = alpha*s + beta*get(c, ldc, i, j)
		}
	}
	return out
}

func TestDsyrkAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n, k := 6, 4
	for _, upper := range []bool{false, true} {
		for _, trans := range []bool{false, true} {
			for _, beta := range []float64{0, 1, -0.5} {
				ar, ac := n, k
				if trans {
					ar, ac = k, n
				}
				lda, ldc := ar+1, n+2
				a := colMajor(rng, ar, ac, lda)
				c := colMajor(rng, n, n, ldc)
				orig := make([]float64, len(c))
				copy(orig, c)
				want := refSyrk(upper, trans, n, k, 1.5, a, lda, beta, c, ldc)
				Dsyrk(upper, trans, n, k, 1.5, a, lda, beta, c, ldc)
				for j := 0; j < n; j++ {
					for i := 0; i < n; i++ {
						inTri := (upper && i <= j) || (!upper && i >= j)
						if inTri {
							if math.Abs(c[i+j*ldc]-want[i+j*ldc]) > 1e-12 {
								t.Fatalf("syrk(%v,%v,%v) mismatch at (%d,%d)", upper, trans, beta, i, j)
							}
						} else if c[i+j*ldc] != orig[i+j*ldc] {
							t.Fatalf("syrk touched the opposite triangle at (%d,%d)", i, j)
						}
					}
				}
				checkPadding(t, c, n, n, ldc, "C")
			}
		}
	}
}

func TestDsyrkDegenerate(t *testing.T) {
	c := []float64{1, 2, 3, 4}
	Dsyrk(false, false, 0, 3, 1, nil, 1, 0, c, 2)
	Dsyrk(false, false, 2, 0, 1, nil, 1, 2, c, 2)
	// beta=2 with k=0 doubles the lower triangle only.
	if c[0] != 2 || c[1] != 4 || c[2] != 3 || c[3] != 8 {
		t.Fatalf("degenerate syrk wrong: %v", c)
	}
}

// The blocked path against the scalar oracle, the way the blocked Dgemm is
// held to dgemmScalar: shapes straddling the block width (96) and the
// micro-kernel tiles, both triangles, both transpositions, padded leading
// dimensions. Only the selected triangle may change.
func TestDsyrkBlockedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{5, 31, 64, 95, 96, 97, 130, 200} {
		for _, k := range []int{8, 33, 64, 257} {
			for _, upper := range []bool{false, true} {
				for _, trans := range []bool{false, true} {
					for _, beta := range []float64{0, 1, -0.5} {
						ar, ac := n, k
						if trans {
							ar, ac = k, n
						}
						lda, ldc := ar+3, n+1
						a := colMajor(rng, ar, ac, lda)
						c := colMajor(rng, n, n, ldc)
						orig := append([]float64(nil), c...)
						want := append([]float64(nil), c...)
						dsyrkScalar(upper, trans, n, k, -1.5, a, lda, beta, want, ldc)
						if useBlocked(n, n, k) {
							Dsyrk(upper, trans, n, k, -1.5, a, lda, beta, c, ldc)
						} else {
							// Too small to be routed here; the blocked path
							// must be right for every shape all the same.
							scaleTriangle(upper, n, beta, c, ldc)
							dsyrkBlocked(upper, trans, n, k, -1.5, a, lda, c, ldc)
						}
						tol := 1e-14 * float64(k)
						for j := 0; j < n; j++ {
							for i := 0; i < n; i++ {
								inTri := (upper && i <= j) || (!upper && i >= j)
								got := c[i+j*ldc]
								if inTri && math.Abs(got-want[i+j*ldc]) > tol {
									t.Fatalf("n=%d k=%d upper=%v trans=%v beta=%v: (%d,%d) = %v, scalar oracle %v",
										n, k, upper, trans, beta, i, j, got, want[i+j*ldc])
								}
								if !inTri && got != orig[i+j*ldc] {
									t.Fatalf("n=%d k=%d upper=%v trans=%v: touched the opposite triangle at (%d,%d)",
										n, k, upper, trans, i, j)
								}
							}
						}
						checkPadding(t, c, n, n, ldc, "C")
					}
				}
			}
		}
	}
}
