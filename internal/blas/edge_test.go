package blas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDgemmMatchesNaiveProperty(t *testing.T) {
	// Randomized shapes (including the 4-way unrolled fast paths and their
	// remainders) against the straightforward triple loop.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := rng.Intn(13) + 1
		n := rng.Intn(13) + 1
		k := rng.Intn(13) + 1
		transA := rng.Intn(2) == 1
		transB := rng.Intn(2) == 1
		ar, ac := m, k
		if transA {
			ar, ac = k, m
		}
		br, bc := k, n
		if transB {
			br, bc = n, k
		}
		lda, ldb, ldc := ar+rng.Intn(3), br+rng.Intn(3), m+rng.Intn(3)
		a := colMajor(rng, ar, ac, lda)
		b := colMajor(rng, br, bc, ldb)
		c := colMajor(rng, m, n, ldc)
		alpha, beta := rng.Float64()*2-1, rng.Float64()*2-1
		want := refGemm(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
		Dgemm(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				if math.Abs(c[i+j*ldc]-want[i+j*ldc]) > 1e-11 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDaxpyZeroAlphaNoop(t *testing.T) {
	y := []float64{1, 2}
	Daxpy(2, 0, []float64{9, 9}, y)
	if y[0] != 1 || y[1] != 2 {
		t.Fatal("alpha=0 must be a no-op")
	}
}

func TestDtrmmAlphaZeroClearsB(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	b := colMajor(rng, 3, 2, 4)
	Dtrmm(true, true, false, false, 3, 2, 0, make([]float64, 9), 3, b, 4)
	for j := 0; j < 2; j++ {
		for i := 0; i < 3; i++ {
			if b[i+j*4] != 0 {
				t.Fatal("alpha=0 must zero B")
			}
		}
	}
	checkPadding(t, b, 3, 2, 4, "B")
}

func TestSolveTriSingularProducesInf(t *testing.T) {
	// Not an error path — like LAPACK, division by an exact zero pivot
	// yields Inf rather than panicking; callers check diagonals.
	a := make([]float64, 4) // zero diagonal
	x := []float64{1, 1}
	Dtrsm(2, 1, a, 2, x, 2)
	if !math.IsInf(x[1], 0) && !math.IsNaN(x[1]) {
		t.Fatalf("zero pivot should produce Inf/NaN, got %v", x[1])
	}
}
