package blas

import "sync"

// Blocked GEMM engine. The driver follows the classic BLIS/GotoBLAS
// decomposition: the iteration space is carved into NC-wide column slabs,
// KC-deep rank-k updates and MC-tall row blocks, chosen so that the packed
// KC×NC slab of op(B) stays resident in the outer cache while each packed
// MC×KC block of op(A) streams through the inner cache. Inside a block the
// packed panels are walked by a register-tiled MR×NR micro-kernel that
// keeps the whole C tile in registers for the full KC-long inner product
// (AVX-512 or AVX2+FMA assembly on capable amd64 hosts, a portable Go
// kernel elsewhere — see dispatch.go for the geometry of each level).
//
// Packing writes op(A) into MR-row panels and alpha·op(B) into NR-column
// panels, zero-padding ragged edges to full panels so the micro-kernel
// never branches on shape; partial C tiles are accumulated through a small
// stack buffer instead. Both transpositions are absorbed by the packing
// routines, so all four op(A)/op(B) cases share one kernel.
//
// Determinism: for fixed operand shapes the blocking boundaries, packing
// order and micro-kernel summation order are all fixed at process start —
// the result is a pure function of (inputs, host kernel), independent of
// caller, scratch-buffer history, or how many workers run concurrently
// elsewhere. See docs/KERNELS.md for the full contract.

// blockedThreshold gates the blocked path: below it the packing traffic
// (m·k + k·n extra reads and writes) is not paid back by the micro-kernel,
// and the scalar loops win. The bound is in multiply-add pairs.
const blockedThreshold = 16 * 1024

func useBlocked(m, n, k int) bool {
	return m >= 4 && n >= 4 && k >= 8 && m*n*k >= blockedThreshold
}

// gemmScratch holds the packing buffers of one in-flight Dgemm. The pool
// keeps them warm across calls so steady-state factorizations allocate
// nothing in the GEMM path. Buffers are sized for the largest kernel
// config so a test-forced kernel switch never outgrows a pooled buffer.
type gemmScratch struct {
	ap []float64 // packed op(A): MC×KC in MR-row panels
	bp []float64 // packed alpha·op(B): KC×NC in NR-column panels
}

var gemmScratchPool = sync.Pool{
	New: func() any {
		return &gemmScratch{
			ap: make([]float64, scratchAP),
			bp: make([]float64, scratchBP),
		}
	},
}

// dgemmBlocked computes C += op(A)·(alpha·op(B)) for m×n C, with C already
// scaled by beta. It is correct for every shape (including those below the
// dispatch threshold); Dgemm only routes profitable shapes here.
func dgemmBlocked(transA, transB bool, m, n, k int, alpha float64,
	a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	sc := gemmScratchPool.Get().(*gemmScratch)
	defer gemmScratchPool.Put(sc)
	for jc := 0; jc < n; jc += kp.nc {
		nc := min(kp.nc, n-jc)
		for pc := 0; pc < k; pc += kp.kc {
			kc := min(kp.kc, k-pc)
			packB(sc.bp, transB, b, ldb, alpha, pc, jc, kc, nc)
			for ic := 0; ic < m; ic += kp.mc {
				mc := min(kp.mc, m-ic)
				packA(sc.ap, transA, a, lda, ic, pc, mc, kc)
				macroKernel(sc.ap, sc.bp, mc, nc, kc, c[ic+jc*ldc:], ldc)
			}
		}
	}
}

// macroKernel sweeps the micro-kernel over one packed MC×KC block of op(A)
// and the packed KC×NC slab of alpha·op(B), accumulating into C (leading
// dimension ldc). It is shared by dgemmBlocked and DgemmPackedLHS, which is
// what makes pre-packed panels bitwise-identical to freshly packed ones:
// same walk, same summation order.
func macroKernel(ap, bp []float64, mc, nc, kc int, c []float64, ldc int) {
	mr, nr := kp.mr, kp.nr
	for jr := 0; jr < nc; jr += nr {
		ncr := min(nr, nc-jr)
		bpp := bp[jr*kc:]
		for ir := 0; ir < mc; ir += mr {
			mcr := min(mr, mc-ir)
			app := ap[ir*kc:]
			if mcr == mr && ncr == nr {
				microTile(kc, app, bpp, c[ir+jr*ldc:], ldc)
				continue
			}
			// Ragged edge: accumulate the full padded tile into a stack
			// buffer, then fold the live part into C.
			var tmp [maxMR * maxNR]float64
			microTile(kc, app, bpp, tmp[:], mr)
			for j := 0; j < ncr; j++ {
				cc := c[ir+(jr+j)*ldc:]
				tt := tmp[j*mr:]
				for i := 0; i < mcr; i++ {
					cc[i] += tt[i]
				}
			}
		}
	}
}

// packA packs op(A)[i0:i0+mc, p0:p0+kc] into MR-row panels: panel ir holds
// rows [ir, ir+MR) with the MR row values of each k-step contiguous, so the
// micro-kernel loads them as vectors. The last panel is zero-padded to a
// full MR rows.
//
// Packing dispatches the way level 1 does (level1.go). On a level with
// assembly bodies every full panel is one of two moves: rows that are
// contiguous in storage (packA non-transposed, packB transposed) go through
// rowsFast, rows that run across stored columns (packA transposed, packB
// non-transposed) through transposeFast. packAScalar and packBScalar are the
// portable path: what `noasm` and non-amd64 builds run, what the ragged last
// panel and its zero padding run on every level, and the oracle pack_test.go
// holds the rest to. It is data movement either way (alpha·x is one IEEE
// multiply in both, and packA's alpha is 1), so the packed bytes do not
// depend on the route.
func packA(dst []float64, trans bool, a []float64, lda, i0, p0, mc, kc int) {
	mr := kp.mr
	full := 0 // rows in the full panels taken off the Go loops
	if vectorBodies() {
		full = mc / mr * mr
	}
	for ir := 0; ir < full; ir += mr {
		panel := dst[ir*kc : ir*kc+mr*kc]
		if trans {
			transposeFast(panel, mr, 1, a, p0+(i0+ir)*lda, lda, kc)
		} else {
			rowsFast(panel, mr, 1, a, (i0+ir)+p0*lda, lda, kc)
		}
	}
	packAScalar(dst[full*kc:], trans, a, lda, i0+full, p0, mc-full, kc)
}

func packAScalar(dst []float64, trans bool, a []float64, lda, i0, p0, mc, kc int) {
	mr := kp.mr
	for ir := 0; ir < mc; ir += mr {
		rows := min(mr, mc-ir)
		panel := dst[ir*kc : ir*kc+mr*kc]
		if !trans {
			// op(A)[i,p] = a[(i0+i) + (p0+p)*lda]: copy column runs.
			for p := 0; p < kc; p++ {
				col := a[(i0+ir)+(p0+p)*lda:]
				d := panel[p*mr : p*mr+mr]
				for i := 0; i < rows; i++ {
					d[i] = col[i]
				}
				for i := rows; i < mr; i++ {
					d[i] = 0
				}
			}
		} else {
			// op(A)[i,p] = a[(p0+p) + (i0+i)*lda]: each stored column of a
			// is one row of op(A); scatter it across the panel.
			for i := 0; i < rows; i++ {
				col := a[p0+(i0+ir+i)*lda:]
				for p := 0; p < kc; p++ {
					panel[p*mr+i] = col[p]
				}
			}
			for i := rows; i < mr; i++ {
				for p := 0; p < kc; p++ {
					panel[p*mr+i] = 0
				}
			}
		}
	}
}

// packB packs alpha·op(B)[p0:p0+kc, j0:j0+nc] into NR-column panels: panel
// jr holds columns [jr, jr+NR) with the NR column values of each k-step
// contiguous. The last panel is zero-padded to a full NR columns. Folding
// alpha here multiplies each element once instead of once per use.
func packB(dst []float64, trans bool, b []float64, ldb int, alpha float64, p0, j0, kc, nc int) {
	nr := kp.nr
	full := 0 // columns in the full panels taken off the Go loops
	if vectorBodies() {
		full = nc / nr * nr
	}
	for jr := 0; jr < full; jr += nr {
		panel := dst[jr*kc : jr*kc+nr*kc]
		if trans {
			rowsFast(panel, nr, alpha, b, (j0+jr)+p0*ldb, ldb, kc)
		} else {
			transposeFast(panel, nr, alpha, b, p0+(j0+jr)*ldb, ldb, kc)
		}
	}
	packBScalar(dst[full*kc:], trans, b, ldb, alpha, p0, j0+full, kc, nc-full)
}

func packBScalar(dst []float64, trans bool, b []float64, ldb int, alpha float64, p0, j0, kc, nc int) {
	nr := kp.nr
	for jr := 0; jr < nc; jr += nr {
		cols := min(nr, nc-jr)
		panel := dst[jr*kc : jr*kc+nr*kc]
		if !trans {
			// op(B)[p,j] = b[(p0+p) + (j0+j)*ldb]: scatter column runs.
			for j := 0; j < cols; j++ {
				col := b[p0+(j0+jr+j)*ldb:]
				for p := 0; p < kc; p++ {
					panel[p*nr+j] = alpha * col[p]
				}
			}
			for j := cols; j < nr; j++ {
				for p := 0; p < kc; p++ {
					panel[p*nr+j] = 0
				}
			}
		} else {
			// op(B)[p,j] = b[(j0+j) + (p0+p)*ldb]: copy row runs.
			for p := 0; p < kc; p++ {
				row := b[(j0+jr)+(p0+p)*ldb:]
				d := panel[p*nr : p*nr+nr]
				for j := 0; j < cols; j++ {
					d[j] = alpha * row[j]
				}
				for j := cols; j < nr; j++ {
					d[j] = 0
				}
			}
		}
	}
}

// transposeScalar is the Go form of the transposing pack over columns
// [j0, j1) and rows [p0, kc) of one width-w panel whose first column starts
// at src[off]: what transposeFast runs for the rows its vector bodies do not
// cover.
func transposeScalar(panel []float64, w, j0, j1 int, alpha float64, src []float64, off, ld, p0, kc int) {
	for j := j0; j < j1; j++ {
		col := src[off+j*ld : off+j*ld+kc]
		for p := p0; p < kc; p++ {
			panel[p*w+j] = alpha * col[p]
		}
	}
}

// microGeneric is the portable MR×NR micro-kernel: C[0:mr,0:nr] += Ap·Bp
// over kc rank-1 terms, with the accumulator tile in a local array. Used
// when the host lacks the assembly kernels' ISA, and as the oracle the
// assembly kernels are differential-tested against. The summation order (k
// ascending, one fused tile) matches the assembly kernels' term order,
// though rounding may differ where FMA contraction applies.
func microGeneric(kc int, a, b, c []float64, ldc, mr, nr int) {
	var acc [maxMR * maxNR]float64
	a = a[:kc*mr]
	b = b[:kc*nr]
	for p := 0; p < kc; p++ {
		ar := a[p*mr : p*mr+mr]
		br := b[p*nr : p*nr+nr]
		for j, bv := range br {
			cj := acc[j*mr : j*mr+mr]
			for i, av := range ar {
				cj[i] += av * bv
			}
		}
	}
	for j := 0; j < nr; j++ {
		cc := c[j*ldc : j*ldc+mr]
		aj := acc[j*mr : j*mr+mr]
		for i, v := range aj {
			cc[i] += v
		}
	}
}
