package qr

import (
	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/quark"
)

// submitFunc hands one kernel call of the walk to an in-order engine: run
// executes it on a kernel workspace (nil borrows a pooled one), deps names
// every datum it reads or writes.
type submitFunc func(label string, run func(ws *kernels.Workspace), deps ...quark.Dep)

// rbox holds a domain's evolving R factor so that calls listed before the
// R exists can still name it as a dependency handle.
type rbox struct {
	m *matrix.Mat
}

// walk lists the kernel calls of one tree-based tile QR of a (and the
// ride-along right-hand sides b) in program order, handing each to submit,
// then calls wait, after which every call must have run. opts must be
// resolved. Per panel: each domain's dgeqrt with its dormqr updates and
// then its dtsqrt chain with the dtsmqr updates; the merges with their
// dttmqr updates; the write-back of R into the diagonal tile. The deps
// reproduce the sequential data flow exactly, so any engine that honours
// them computes the same bits.
func walk(a, b *matrix.Tiled, opts Options, submit submitFunc, wait func()) (*Factorization, error) {
	if err := checkShapes(a, b, opts); err != nil {
		return nil, err
	}
	f := &Factorization{M: a.M, N: a.N, Opts: opts, A: a, QTB: b}
	ib := opts.IB

	// colTile enumerates the trailing tiles of row i at panel j: first the
	// matrix columns j+1..nt-1, then every rhs tile column.
	colTile := func(i, idx, j int) *matrix.Mat {
		if na := a.NT - j - 1; idx < na {
			return a.Tile(i, j+1+idx)
		} else if b != nil {
			return b.Tile(i, idx-na)
		}
		panic("qr: column index out of range")
	}
	bnt := 0
	if b != nil {
		bnt = b.NT
	}

	// V2 of a merge op is the eliminated domain's R, which exists only once
	// the calls have run; it is filled in after wait.
	v2 := map[int]*rbox{}

	for j := 0; j < a.NT && j < a.MT; j++ {
		n := a.TileCols(j)
		plan := planPanel(j, a.MT, opts)
		nc := a.NT - j - 1 + bnt
		rs := map[int]*rbox{} // evolving R of each domain, keyed by its top

		for _, d := range plan.Domains {
			top := d.Top
			tile := a.Tile(top, j)
			k := min(tile.Rows, n)
			tg := matrix.New(min(ib, k), k)
			rb := &rbox{}
			rs[top] = rb
			f.Ops = append(f.Ops, Op{Kind: OpGeqrt, J: j, I: top, K: -1, T: tg})
			submit("geqrt", func(ws *kernels.Workspace) {
				kernels.DgeqrtWS(ws, ib, tile, tg)
				rb.m = extractR(tile, n)
			}, quark.W(tile), quark.W(rb))
			for l := 0; l < nc; l++ {
				c := colTile(top, l, j)
				submit("ormqr", func(ws *kernels.Workspace) {
					kernels.DormqrWS(ws, true, ib, tile, tg, c)
				}, quark.R(tile), quark.W(c))
			}
			for _, kRow := range d.Rows {
				kt := a.Tile(kRow, j)
				tt := matrix.New(min(ib, n), n)
				f.Ops = append(f.Ops, Op{Kind: OpTsqrt, J: j, I: top, K: kRow, T: tt})
				submit("tsqrt", func(ws *kernels.Workspace) {
					kernels.DtsqrtWS(ws, ib, rb.m, kt, tt)
				}, quark.W(rb), quark.W(kt))
				for l := 0; l < nc; l++ {
					c1, c2 := colTile(top, l, j), colTile(kRow, l, j)
					submit("tsmqr", func(ws *kernels.Workspace) {
						kernels.DtsmqrWS(ws, true, ib, kt, tt, c1, c2)
					}, quark.R(kt), quark.W(c1), quark.W(c2))
				}
			}
		}
		for _, m := range plan.Merges {
			rbS, rbK := rs[m.Surv], rs[m.K]
			tt := matrix.New(min(ib, n), n)
			v2[len(f.Ops)] = rbK
			f.Ops = append(f.Ops, Op{Kind: OpTtqrt, J: j, I: m.Surv, K: m.K, T: tt})
			submit("ttqrt", func(ws *kernels.Workspace) {
				kernels.DttqrtWS(ws, ib, rbS.m, rbK.m, tt)
			}, quark.W(rbS), quark.W(rbK))
			for l := 0; l < nc; l++ {
				c1, c2 := colTile(m.Surv, l, j), colTile(m.K, l, j)
				submit("ttmqr", func(ws *kernels.Workspace) {
					kernels.DttmqrWS(ws, true, ib, rbK.m, tt, c1, c2)
				}, quark.R(rbK), quark.W(c1), quark.W(c2))
			}
		}
		// The surviving R of the panel becomes the final R(j,j) block:
		// written into the upper triangle of the diagonal tile, the
		// Householder vectors below it untouched.
		rbFinal, diag := rs[j], a.Tile(j, j)
		submit("writeback", func(*kernels.Workspace) { writeR(diag, rbFinal.m, n) },
			quark.R(rbFinal), quark.W(diag))
	}
	wait()
	for i, rb := range v2 {
		f.Ops[i].V2 = rb.m
	}
	return f, nil
}
