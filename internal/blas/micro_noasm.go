//go:build !amd64 || noasm

package blas

// Hosts without the assembly micro-kernels (non-amd64, or the `noasm`
// build tag) always take the portable path.
const (
	haveFastKernel = false
	haveAVX512     = false
)

// The fast entry points exist so dispatch.go compiles everywhere; the
// constant capability flags above keep pickKernel from ever selecting
// them, so these bodies are unreachable.
func microFast8x6(kc int, a, b, c []float64, ldc int) {
	microGeneric(kc, a, b, c, ldc, 8, 6)
}

func microFast12x8(kc int, a, b, c []float64, ldc int) {
	microGeneric(kc, a, b, c, ldc, 12, 8)
}

func dotFast(x, y []float64) float64 { return ddotScalar(len(x), x, y) }

func axpyFast(alpha float64, x, y []float64) { daxpyScalar(len(x), alpha, x, y) }

func scalFast(alpha float64, x []float64) { dscalScalar(len(x), alpha, x) }

func larfFast(m, n int, alpha float64, v, c []float64, ldc int) bool { return false }

func transposeFast(panel []float64, w int, alpha float64, src []float64, off, ld, kc int) {
	transposeScalar(panel, w, 0, w, alpha, src, off, ld, 0, kc)
}

func rowsFast(panel []float64, w int, alpha float64, src []float64, off, ld, kc int) {
	for p := 0; p < kc; p++ {
		for i, v := range src[off+p*ld : off+p*ld+w] {
			panel[p*w+i] = alpha * v
		}
	}
}
