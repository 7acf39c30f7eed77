package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Differential tests for the packing routines: under every kernel
// configuration this host can run, packA and packB must produce the bytes
// the retained Go loops (packAScalar, packBScalar) produce — packing is data
// movement, so the comparison is by bit pattern, not to a tolerance — must
// write nothing past the last panel, must pad with +0, and must panic in Go
// on a short operand instead of reading or writing past it in assembly.
// Under the `noasm` tag only the portable configuration exists and the same
// tests hold the Go loops to themselves.

const packSentinel = 1e30

// packSpecials are entries a move must carry through unchanged (and a
// multiply by ±1 or 0.37 must treat exactly as the Go loop's multiply does):
// a quiet NaN with a payload, both infinities, −0, a denormal, and values
// whose product with 0.37 stays finite only if nothing is squared.
var packSpecials = []float64{
	math.Float64frombits(0x7ff8_0000_dead_beef),
	math.Float64frombits(0xfff8_0000_0000_0123),
	math.Inf(1), math.Inf(-1),
	math.Copysign(0, -1),
	math.SmallestNonzeroFloat64 * 5, -math.SmallestNonzeroFloat64,
	1e300, -1e300, 1e-300,
}

// packSource returns a column-major operand of exactly the length a pack of
// the given extent may read — stored columns [0, c0+nc) of r0+nr rows with
// leading dimension ld — with cap == len, so any read past it panics. About
// one entry in eight is a special value.
func packSource(rng *rand.Rand, r0, nr, c0, nc, ld int) []float64 {
	n := 0
	if nr > 0 && nc > 0 {
		n = (c0+nc-1)*ld + r0 + nr
	} else if nc > 0 {
		n = (c0+nc-1)*ld + r0 // a zero-height column may still be sliced at its start
	}
	s := make([]float64, n)
	for i := range s {
		if rng.Intn(8) == 0 {
			s[i] = packSpecials[rng.Intn(len(packSpecials))]
		} else {
			s[i] = 2*rng.Float64() - 1
		}
	}
	return s[:n:n]
}

// packDst returns a sentinel-filled destination for npanels·w·kc packed
// elements plus a sentinel tail.
func packDst(npanels, w, kc int) []float64 {
	d := make([]float64, npanels*w*kc+11)
	for i := range d {
		d[i] = packSentinel
	}
	return d
}

func samePackBits(t *testing.T, what string, got, want []float64, used int) {
	t.Helper()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s %s: dst[%d] = %x (%v), Go loop %x (%v)", kp.name, what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
	for i := used; i < len(got); i++ {
		if got[i] != packSentinel {
			t.Fatalf("%s %s: wrote dst[%d] past the %d packed elements", kp.name, what, i, used)
		}
	}
}

// packKCs covers every row-block tail of both vector widths at small depths
// and the neighbourhood of the AVX-512 level's KC = 192.
func packKCs() []int {
	var ks []int
	for k := 0; k <= 33; k++ {
		ks = append(ks, k)
	}
	for k := 184; k <= 200; k++ {
		ks = append(ks, k)
	}
	return ks
}

func TestPackMatchesGoLoops(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(29))
		mr, nr := kp.mr, kp.nr
		const i0, p0, j0 = 3, 5, 2
		for _, kc := range packKCs() {
			for _, trans := range []bool{false, true} {
				for rows := 0; rows <= 2*mr+1; rows++ {
					pad := (kc + rows) % 8 // every lda from exact to +7 across the sweep
					var a []float64
					var lda int
					if trans { // a is k×m: op(A)[i,p] = a[(p0+p) + (i0+i)·lda]
						lda = p0 + kc + pad
						a = packSource(rng, p0, kc, i0, rows, lda)
					} else { // a is m×k: op(A)[i,p] = a[(i0+i) + (p0+p)·lda]
						lda = i0 + rows + pad
						a = packSource(rng, i0, rows, p0, kc, lda)
					}
					np := (rows + mr - 1) / mr
					got, want := packDst(np, mr, kc), packDst(np, mr, kc)
					packA(got, trans, a, lda, i0, p0, rows, kc)
					packAScalar(want, trans, a, lda, i0, p0, rows, kc)
					what := fmt.Sprintf("packA trans=%v rows=%d kc=%d lda=%d", trans, rows, kc, lda)
					samePackBits(t, what, got, want, np*mr*kc)
					for p := 0; p < kc; p++ {
						for i := rows; i < np*mr; i++ {
							if v := got[i/mr*mr*kc+p*mr+i%mr]; math.Float64bits(v) != 0 {
								t.Fatalf("%s %s: padding row %d at k-step %d is %v, want +0", kp.name, what, i, p, v)
							}
						}
					}
				}
				for cols := 0; cols <= 2*nr+1; cols++ {
					pad := (kc + cols + 3) % 8
					for _, alpha := range []float64{1, -1, 0.37} {
						var b []float64
						var ldb int
						if trans { // b is n×k: op(B)[p,j] = b[(j0+j) + (p0+p)·ldb]
							ldb = j0 + cols + pad
							b = packSource(rng, j0, cols, p0, kc, ldb)
						} else { // b is k×n: op(B)[p,j] = b[(p0+p) + (j0+j)·ldb]
							ldb = p0 + kc + pad
							b = packSource(rng, p0, kc, j0, cols, ldb)
						}
						np := (cols + nr - 1) / nr
						got, want := packDst(np, nr, kc), packDst(np, nr, kc)
						packB(got, trans, b, ldb, alpha, p0, j0, kc, cols)
						packBScalar(want, trans, b, ldb, alpha, p0, j0, kc, cols)
						what := fmt.Sprintf("packB trans=%v cols=%d kc=%d ldb=%d alpha=%v", trans, cols, kc, ldb, alpha)
						samePackBits(t, what, got, want, np*nr*kc)
						for p := 0; p < kc; p++ {
							for j := cols; j < np*nr; j++ {
								if v := got[j/nr*nr*kc+p*nr+j%nr]; math.Float64bits(v) != 0 {
									t.Fatalf("%s %s: padding column %d at k-step %d is %v, want +0", kp.name, what, j, p, v)
								}
							}
						}
					}
				}
			}
		}
	})
}

// A source one element short of what the pack reads, or a destination one
// short of what it writes, must panic in Go on every level — the vector
// bodies are handed pointers, so the wrappers' re-slicing is the only bounds
// check they get — and a short destination's neighbours must stay untouched.
func TestPackShortSlicePanics(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		mr, nr := kp.mr, kp.nr
		const kc = 16
		mustPanic := func(name string, call func()) {
			t.Helper()
			defer func() {
				if recover() == nil {
					t.Errorf("%s %s: no panic on a short slice", kp.name, name)
				}
			}()
			call()
		}
		dst := make([]float64, 2*maxMR*kc)
		a := make([]float64, mr*kc-1)
		mustPanic("packA transposed, short last column", func() { packA(dst, true, a, kc, 0, 0, mr, kc) })
		mustPanic("packA, short last column", func() { packA(dst, false, a, mr, 0, 0, mr, kc) })
		b := make([]float64, nr*kc-1)
		mustPanic("packB, short last column", func() { packB(dst, false, b, kc, 1, 0, 0, kc, nr) })
		mustPanic("packB transposed, short last row", func() { packB(dst, true, b, nr, 1, 0, 0, kc, nr) })

		src := make([]float64, 2*maxMR*kc)
		for _, trans := range []bool{false, true} {
			// One full panel, and a full panel followed by a ragged one: the
			// short write is in the last panel either way.
			for _, m := range []int{mr, mr + 1} {
				lda := m
				if trans {
					lda = kc
				}
				n := PackedLHSLen(m, kc) - 1
				backing := make([]float64, n+maxMR*kc)
				for i := n; i < len(backing); i++ {
					backing[i] = packSentinel
				}
				name := fmt.Sprintf("PackLHS trans=%v m=%d, short dst", trans, m)
				mustPanic(name, func() { PackLHS(trans, m, kc, src, lda, backing[:n:n]) })
				for i := n; i < len(backing); i++ {
					if backing[i] != packSentinel {
						t.Errorf("%s %s: wrote %d past the short dst", kp.name, name, i-n)
						break
					}
				}
			}
		}
	})
}
