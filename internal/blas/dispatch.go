package blas

import "os"

// Micro-kernel dispatch. The blocked engine is generic over the micro-tile
// geometry (MR×NR) and cache blocking (MC/KC/NC); the concrete kernel is
// picked once at package init from CPUID and held in kp. Everything that
// depends on the geometry — packing, the macro-kernel sweep, PackLHS
// layouts — reads kp, so the whole engine switches as one unit and the
// result of any BLAS call remains a pure function of (shape, host kernel).
//
// Three levels exist:
//
//	avx512-12x8   AVX-512 assembly, 12×8 tile in 16 ZMM/YMM accumulators
//	avx2-8x6      AVX2+FMA assembly, 8×6 tile in 12 YMM accumulators
//	portable-8x6  pure Go fallback (also the oracle for differential tests)
//
// The `noasm` build tag removes both assembly kernels, forcing the portable
// level everywhere; the PULSARQR_MICROKERNEL environment variable (values
// "avx512", "avx2", "portable") can *downgrade* the choice at startup so
// benchmark runs are attributable to a specific code path.
type microLevel uint8

const (
	levelGeneric microLevel = iota
	levelAVX2
	levelAVX512
)

// kernelParams bundles a micro-kernel with the packing and cache-blocking
// geometry tuned for it. mc must be a multiple of mr and nc a multiple of
// nr so pre-packed panels line up with the macro-kernel's block walk.
type kernelParams struct {
	level      microLevel
	name       string
	mr, nr     int
	mc, kc, nc int
}

// Upper bounds over every config, sizing fixed buffers (edge tiles, pooled
// pack scratch) so a test-forced kernel switch never outgrows them.
const (
	maxMR     = 12
	maxNR     = 8
	scratchAP = 128 * 256 // ≥ mc·kc for every config
	scratchBP = 256 * 516 // ≥ kc·nc for every config
)

var (
	paramsAVX512 = kernelParams{levelAVX512, "avx512-12x8", 12, 8, 120, 192, 512}
	paramsAVX2   = kernelParams{levelAVX2, "avx2-8x6", 8, 6, 128, 256, 516}
	paramsScalar = kernelParams{levelGeneric, "portable-8x6", 8, 6, 128, 256, 516}
)

// kp is the active kernel configuration. Mutable only by tests (via
// forceKernel); everywhere else it is set once at init.
var kp = pickKernel()

func pickKernel() kernelParams {
	best := paramsScalar
	switch {
	case haveAVX512:
		best = paramsAVX512
	case haveFastKernel:
		best = paramsAVX2
	}
	// Allow explicit downgrade for attribution and debugging. Requests for
	// a level the host cannot run fall back to the best available.
	switch os.Getenv("PULSARQR_MICROKERNEL") {
	case "portable":
		return paramsScalar
	case "avx2":
		if haveFastKernel {
			return paramsAVX2
		}
		return paramsScalar
	case "avx512":
		// Cannot upgrade past detection; keep best.
	}
	return best
}

// MicroKernelName identifies the active micro-kernel ("avx512-12x8",
// "avx2-8x6", "portable-8x6") so benchmark records and CI logs can
// attribute numbers to a code path.
func MicroKernelName() string { return kp.name }

// CPUFeatures reports the SIMD capabilities detected at startup, for CI
// logging and bench attribution.
func CPUFeatures() string {
	s := "baseline"
	if haveFastKernel {
		s = "avx2+fma"
	}
	if haveAVX512 {
		s += "+avx512(f,dq,bw,vl)"
	}
	return s
}

// microTile dispatches one MR×NR tile update to the active kernel. The
// switch is over concrete functions (not a function variable) so escape
// analysis keeps the macro-kernel's edge buffer on the stack.
func microTile(kc int, ap, bp, c []float64, ldc int) {
	switch kp.level {
	case levelAVX512:
		microFast12x8(kc, ap, bp, c, ldc)
	case levelAVX2:
		microFast8x6(kc, ap, bp, c, ldc)
	default:
		microGeneric(kc, ap, bp, c, ldc, kp.mr, kp.nr)
	}
}
