//go:build amd64 && !noasm

package blas

// dgemmKernel8x6 is the AVX2+FMA micro-kernel: C[0:8,0:6] += Ap·Bp over kc
// rank-1 terms, where Ap is an 8-row packed panel (8 values per k-step,
// contiguous) and Bp a 6-column packed panel (6 values per k-step,
// contiguous). C is column-major with leading dimension ldc (elements).
// The 8×6 accumulator tile lives in twelve YMM registers for the whole
// k-loop and is added into C once at the end.
//
//go:noescape
func dgemmKernel8x6(kc int, a, b, c *float64, ldc int)

// dgemmKernel12x8 is the AVX-512 micro-kernel: C[0:12,0:8] += Ap·Bp over
// kc rank-1 terms, Ap a 12-row packed panel and Bp an 8-column packed
// panel. The 12×8 accumulator tile lives in sixteen ZMM/YMM registers
// (rows 0–7 in a ZMM, rows 8–11 in the paired YMM) for the whole k-loop.
//
//go:noescape
func dgemmKernel12x8(kc int, a, b, c *float64, ldc int)

// Level-1 vector bodies, one set per assembly level. n ≥ 1.
//
//go:noescape
func ddotAVX2(n int, x, y *float64) float64

//go:noescape
func daxpyAVX2(n int, alpha float64, x, y *float64)

//go:noescape
func dscalAVX2(n int, alpha float64, x *float64)

//go:noescape
func ddotAVX512(n int, x, y *float64) float64

//go:noescape
func daxpyAVX512(n int, alpha float64, x, y *float64)

//go:noescape
func dscalAVX512(n int, alpha float64, x *float64)

// dotFast, axpyFast and scalFast run the active level's vector bodies over
// non-empty slices; y must be at least as long as x (re-sliced here so a
// short y panics in Go rather than reading past it in assembly).
func dotFast(x, y []float64) float64 {
	y = y[:len(x)]
	if kp.level == levelAVX512 {
		return ddotAVX512(len(x), &x[0], &y[0])
	}
	return ddotAVX2(len(x), &x[0], &y[0])
}

func axpyFast(alpha float64, x, y []float64) {
	y = y[:len(x)]
	if kp.level == levelAVX512 {
		daxpyAVX512(len(x), alpha, &x[0], &y[0])
		return
	}
	daxpyAVX2(len(x), alpha, &x[0], &y[0])
}

func scalFast(alpha float64, x []float64) {
	if kp.level == levelAVX512 {
		dscalAVX512(len(x), alpha, &x[0])
		return
	}
	dscalAVX2(len(x), alpha, &x[0])
}

// dlarfAVX512 is Dlarf's fused body: per column, ddotAVX512's dot, then
// daxpyAVX512's update scaled by alpha·w. m, n ≥ 1.
//
//go:noescape
func dlarfAVX512(m, n int, alpha float64, v, c *float64, ldc int)

// larfFast runs Dlarf on the active level's fused body, if it has one, and
// reports whether it did. v and the last column are re-sliced here so a
// short operand panics in Go rather than in assembly.
func larfFast(m, n int, alpha float64, v, c []float64, ldc int) bool {
	if kp.level != levelAVX512 {
		return false
	}
	_ = v[:m]
	_ = c[(n-1)*ldc : (n-1)*ldc+m]
	dlarfAVX512(m, n, alpha, &v[0], &c[0], ldc)
	return true
}

// Transposing pack bodies: dst[p·stride+j] = alpha·src[p+j·ld] over 8, 4 or
// 2 stored columns and nblk ≥ 1 full blocks of 8 or 4 rows.
//
//go:noescape
func packT8x8AVX512(nblk int, alpha float64, src *float64, ld int, dst *float64, stride int)

//go:noescape
func packT4x4AVX2(nblk int, alpha float64, src *float64, ld int, dst *float64, stride int)

//go:noescape
func packT2x4AVX2(nblk int, alpha float64, src *float64, ld int, dst *float64, stride int)

// transposeFast packs one full panel of width w — the active level's MR or
// NR — from w stored columns of kc elements, the first starting at src[off]:
// panel[p·w+j] = alpha·src[off+p+j·ld]. The columns are taken in runs the
// vector bodies serve (12 = 8+4 and 8 on the AVX-512 level, 8 = 4+4 and
// 6 = 4+2 on the AVX2 level); each body covers the full row blocks of its run
// and transposeScalar the kc mod 8 or mod 4 rows left. Every column is
// re-sliced to its kc elements and the panel to its w·kc first, so a short
// operand panics here in Go and the bodies touch nothing the Go loops would
// not have.
func transposeFast(panel []float64, w int, alpha float64, src []float64, off, ld, kc int) {
	panel = panel[:w*kc]
	for j := 0; j < w; j++ {
		_ = src[off+j*ld : off+j*ld+kc]
	}
	if kc == 0 {
		return
	}
	for j := 0; j < w; {
		var cw, kv int // columns in this run, rows its vector body covers
		s, d := &src[off+j*ld], &panel[j]
		switch {
		case kp.level == levelAVX512 && w-j >= 8:
			if cw, kv = 8, kc&^7; kv > 0 {
				packT8x8AVX512(kv/8, alpha, s, ld, d, w)
			}
		case w-j >= 4:
			if cw, kv = 4, kc&^3; kv > 0 {
				packT4x4AVX2(kv/4, alpha, s, ld, d, w)
			}
		default:
			if cw, kv = 2, kc&^3; kv > 0 {
				packT2x4AVX2(kv/4, alpha, s, ld, d, w)
			}
		}
		if kv < kc {
			transposeScalar(panel, w, j, j+cw, alpha, src, off, ld, kv, kc)
		}
		j += cw
	}
}

// Contiguous pack body: dst[p·w+i] = alpha·src[i+p·ld] over kc ≥ 1 rows of
// w ∈ {6, 8, 12} elements.
//
//go:noescape
func packRowsAVX2(kc int, alpha float64, src *float64, ld int, dst *float64, w int)

// rowsFast packs one full panel of width w — the active level's MR or NR —
// whose rows are contiguous in storage: panel[p·w+i] = alpha·src[off+i+p·ld].
// Row offsets are monotonic in p, so slicing the first and the last row
// bounds them all.
func rowsFast(panel []float64, w int, alpha float64, src []float64, off, ld, kc int) {
	panel = panel[:w*kc]
	if kc == 0 {
		return
	}
	_ = src[off : off+w]
	_ = src[off+(kc-1)*ld : off+(kc-1)*ld+w]
	packRowsAVX2(kc, alpha, &src[off], ld, &panel[0], w)
}

// cpuidx executes CPUID with the given leaf/subleaf.
//
//go:noescape
func cpuidx(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the OS-enabled extended-state mask.
//
//go:noescape
func xgetbv0() (eax, edx uint32)

// haveFastKernel reports whether this host can run the AVX2 assembly
// kernel; haveAVX512 whether it can run the AVX-512 one. Detected once at
// startup so the per-tile dispatch is a predictable branch.
var (
	haveFastKernel = detectAVX2FMA()
	haveAVX512     = detectAVX512()
)

func detectAVX2FMA() bool {
	maxID, _, _, _ := cpuidx(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidx(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&(fmaBit|osxsaveBit|avxBit) != fmaBit|osxsaveBit|avxBit {
		return false
	}
	// The OS must save/restore YMM state (XCR0 bits 1 and 2).
	if xeax, _ := xgetbv0(); xeax&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuidx(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}

func detectAVX512() bool {
	maxID, _, _, _ := cpuidx(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidx(1, 0)
	const osxsaveBit = 1 << 27
	if ecx1&osxsaveBit == 0 {
		return false
	}
	// The OS must save/restore SSE/AVX state and all three AVX-512 state
	// components (XCR0 bits 1,2 and 5,6,7 = opmask, ZMM-hi256, hi16-ZMM).
	if xeax, _ := xgetbv0(); xeax&0xe6 != 0xe6 {
		return false
	}
	_, ebx7, _, _ := cpuidx(7, 0)
	const (
		avx512f  = 1 << 16
		avx512dq = 1 << 17
		avx512bw = 1 << 30
		avx512vl = 1 << 31
	)
	const want = uint32(avx512f | avx512dq | avx512bw | avx512vl)
	return ebx7&want == want
}

func microFast8x6(kc int, a, b, c []float64, ldc int) {
	dgemmKernel8x6(kc, &a[0], &b[0], &c[0], ldc)
}

func microFast12x8(kc int, a, b, c []float64, ldc int) {
	dgemmKernel12x8(kc, &a[0], &b[0], &c[0], ldc)
}
