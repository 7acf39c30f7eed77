package blas

import (
	"math/rand"
	"testing"
)

func benchGemm(b *testing.B, transA bool, n int) {
	rng := rand.New(rand.NewSource(1))
	a := colMajor(rng, n, n, n)
	bb := colMajor(rng, n, n, n)
	c := colMajor(rng, n, n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dgemm(transA, false, n, n, n, 1, a, n, bb, n, 1, c, n)
	}
	b.SetBytes(int64(2 * n * n * n * 8))
	b.ReportMetric(float64(2*n*n*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
}

func BenchmarkGemmNN128(b *testing.B) { benchGemm(b, false, 128) }
func BenchmarkGemmTN128(b *testing.B) { benchGemm(b, true, 128) }
func BenchmarkGemmNN192(b *testing.B) { benchGemm(b, false, 192) }
func BenchmarkGemmTN192(b *testing.B) { benchGemm(b, true, 192) }
func BenchmarkGemmNN512(b *testing.B) { benchGemm(b, false, 512) }
func BenchmarkGemmTN512(b *testing.B) { benchGemm(b, true, 512) }

// benchTrmmLeft measures the left-side triangular multiply the block
// reflector applies lean on: B := op(T)·B with T k×k and B k×n. Dtrmm is
// in-place, so B is refreshed from a pristine copy every iteration — left
// to feed back, |T|<1 entries shrink B into the denormal range within a
// few iterations and the bench measures microcode assists instead of the
// kernel. The copy is timed (it is cheap next to the multiply and keeps
// the loop allocation-free), slightly understating the true kernel rate.
func benchTrmmLeft(b *testing.B, trans bool, k, n int) {
	rng := rand.New(rand.NewSource(2))
	a := colMajor(rng, k, k, k)
	b0 := colMajor(rng, k, n, k)
	bb := make([]float64, len(b0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(bb, b0)
		Dtrmm(true, true, trans, false, k, n, 1, a, k, bb, k)
	}
	b.ReportMetric(float64(k*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
}

func BenchmarkTrmmLeft48x192(b *testing.B)  { benchTrmmLeft(b, false, 48, 192) }
func BenchmarkTrmmLeftT48x192(b *testing.B) { benchTrmmLeft(b, true, 48, 192) }
func BenchmarkTrmmLeft192x192(b *testing.B) { benchTrmmLeft(b, false, 192, 192) }

// The packs behind the panel kernels' ib-thin products at the default tile
// (192/24), timed alone: what the fused apply packs per inner block (a
// 192×192 slab of C2), its W and W2 operands (24×192), and what applyTS or
// the fused apply's operand packers pack of V2 (24×192 transposed, 192×24
// plain). MB/s counts the elements moved once.
func benchPackB(b *testing.B, kc, nc int) {
	rng := rand.New(rand.NewSource(3))
	src := colMajor(rng, kc, nc, kc)
	dst := make([]float64, scratchBP)
	b.SetBytes(int64(8 * kc * nc))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packB(dst, false, src, kc, -1, 0, 0, kc, nc)
	}
}

func benchPackA(b *testing.B, trans bool, mc, kc int) {
	rng := rand.New(rand.NewSource(4))
	lda := mc
	if trans {
		lda = kc
	}
	src := colMajor(rng, lda, mc+kc-lda, lda)
	dst := make([]float64, scratchAP)
	b.SetBytes(int64(8 * mc * kc))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packA(dst, trans, src, lda, 0, 0, mc, kc)
	}
}

func BenchmarkPackBN192x192(b *testing.B) { benchPackB(b, 192, 192) }
func BenchmarkPackBN24x192(b *testing.B)  { benchPackB(b, 24, 192) }
func BenchmarkPackAT24x192(b *testing.B)  { benchPackA(b, true, 24, 192) }
func BenchmarkPackAN192x24(b *testing.B)  { benchPackA(b, false, 192, 24) }
