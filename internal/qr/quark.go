package qr

import (
	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/quark"
)

// rbox holds a domain's evolving R factor so that tasks submitted before
// the R exists can still name it as a dependency handle.
type rbox struct {
	m *matrix.Mat
}

// FactorizeQuark computes the same factorization as Factorize by
// submitting the kernel calls as tasks to a QUARK-style task-superscalar
// runtime with the given number of workers. The dependency declarations
// reproduce the sequential data flow exactly, so the result is
// elementwise identical to the reference; the execution schedule, however,
// is the centralized dynamic one the paper compares against.
func FactorizeQuark(a *matrix.Tiled, b *matrix.Tiled, opts Options, workers int) (*Factorization, error) {
	opts = opts.Resolve(a.MT, workers)
	if err := checkShapes(a, b, opts); err != nil {
		return nil, err
	}
	f := &Factorization{M: a.M, N: a.N, Opts: opts, A: a, QTB: b}
	rt := quark.New(workers)
	defer rt.Close()

	colTile := func(i, idx, j int) *matrix.Mat {
		if na := a.NT - j - 1; idx < na {
			return a.Tile(i, j+1+idx)
		} else if b != nil {
			return b.Tile(i, idx-na)
		}
		panic("qr: column index out of range")
	}
	ncols := func(j int) int {
		n := a.NT - j - 1
		if b != nil {
			n += b.NT
		}
		return n
	}
	ib := opts.IB

	// V2 of a merge op is the eliminated rbox's matrix, which only exists
	// after the tasks run; record the association and fill it in after the
	// final Wait.
	type v2fixup struct {
		opIdx int
		rb    *rbox
	}
	var fixups []v2fixup

	for j := 0; j < a.NT && j < a.MT; j++ {
		j := j
		n := a.TileCols(j)
		plan := planPanel(j, a.MT, opts)
		nc := ncols(j)
		rs := map[int]*rbox{}

		for _, d := range plan.Domains {
			top := d.Top
			tile := a.Tile(top, j)
			k := min(tile.Rows, n)
			tg := matrix.New(min(ib, k), k)
			rb := &rbox{}
			rs[top] = rb
			f.Ops = append(f.Ops, Op{Kind: OpGeqrt, J: j, I: top, K: -1, T: tg})
			rt.Submit("geqrt", func() {
				kernels.Dgeqrt(ib, tile, tg)
				rb.m = extractR(tile, n)
			}, quark.W(tile), quark.W(rb))
			for l := 0; l < nc; l++ {
				c := colTile(top, l, j)
				rt.Submit("ormqr", func() {
					kernels.Dormqr(true, ib, tile, tg, c)
				}, quark.R(tile), quark.W(c))
			}
			for _, kRow := range d.Rows {
				kt := a.Tile(kRow, j)
				tt := matrix.New(min(ib, n), n)
				f.Ops = append(f.Ops, Op{Kind: OpTsqrt, J: j, I: top, K: kRow, T: tt})
				rt.Submit("tsqrt", func() {
					kernels.Dtsqrt(ib, rb.m, kt, tt)
				}, quark.W(rb), quark.W(kt))
				for l := 0; l < nc; l++ {
					c1 := colTile(top, l, j)
					c2 := colTile(kRow, l, j)
					rt.Submit("tsmqr", func() {
						kernels.Dtsmqr(true, ib, kt, tt, c1, c2)
					}, quark.R(kt), quark.W(c1), quark.W(c2))
				}
			}
		}
		for _, m := range plan.Merges {
			rbS, rbK := rs[m.Surv], rs[m.K]
			tt := matrix.New(min(ib, n), n)
			fixups = append(fixups, v2fixup{opIdx: len(f.Ops), rb: rbK})
			f.Ops = append(f.Ops, Op{Kind: OpTtqrt, J: j, I: m.Surv, K: m.K, T: tt})
			rt.Submit("ttqrt", func() {
				kernels.Dttqrt(ib, rbS.m, rbK.m, tt)
			}, quark.W(rbS), quark.W(rbK))
			for l := 0; l < nc; l++ {
				c1 := colTile(m.Surv, l, j)
				c2 := colTile(m.K, l, j)
				rt.Submit("ttmqr", func() {
					kernels.Dttmqr(true, ib, rbK.m, tt, c1, c2)
				}, quark.R(rbK), quark.W(c1), quark.W(c2))
			}
		}
		// Write the panel's final R into the diagonal tile.
		rbFinal := rs[j]
		diag := a.Tile(j, j)
		rt.Submit("writeback", func() { writeR(diag, rbFinal.m, n) }, quark.R(rbFinal), quark.W(diag))
	}
	rt.Wait()
	for _, fx := range fixups {
		f.Ops[fx.opIdx].V2 = fx.rb.m
	}
	return f, nil
}
