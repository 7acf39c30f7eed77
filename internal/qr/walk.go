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

// walk binds the listing (List) of one tree-based tile QR of a (and the
// ride-along right-hand sides b) to matrices, handing each call to submit
// in program order, then calls wait, after which every call must have run.
// opts must be resolved. A tile datum is its tile of a or b; a domain's R
// is a matrix of its own, allocated when its Geqrt is bound. The deps are
// the call's data in the listing's order, so any engine that honours them
// computes the sequential reference's bits.
func walk(a, b *matrix.Tiled, opts Options, submit submitFunc, wait func()) (*Factorization, error) {
	if err := checkShapes(a, b, opts); err != nil {
		return nil, err
	}
	f := &Factorization{M: a.M, N: a.N, Opts: opts, A: a, QTB: b}
	ib := opts.IB
	bnt := 0
	if b != nil {
		bnt = b.NT
	}

	rs := map[Datum]*matrix.Mat{}
	bind := func(d Datum) *matrix.Mat {
		switch {
		case !d.R && d.L < a.NT:
			return a.Tile(d.I, d.L)
		case !d.R:
			return b.Tile(d.I, d.L-a.NT)
		case rs[d] == nil: // the upper trapezoid of the domain's top tile
			n := a.TileCols(d.L)
			rs[d] = matrix.New(min(a.Tile(d.I, d.L).Rows, n), n)
		}
		return rs[d]
	}
	// ts holds the T factor of each panel call under its (J, I, K), which
	// each of its updates shares.
	ts := map[[3]int]*matrix.Mat{}

	List(a.MT, a.NT, bnt, opts, func(c Call) {
		var h [3]*matrix.Mat // the call's data, in the listing's order
		deps := make([]quark.Dep, 0, len(h))
		c.Access(func(d Datum, write bool) {
			m := bind(d)
			h[len(deps)] = m
			if write {
				deps = append(deps, quark.W(m))
			} else {
				deps = append(deps, quark.R(m))
			}
		})
		n := a.TileCols(c.J)
		key := [3]int{c.J, c.I, c.K}
		if c.Kernel <= Ttqrt { // a panel call: its (V,T) enters the log
			k, v := n, h[1] // a reflector per column; the eliminated tile or R
			if c.Kernel == Geqrt {
				k, v = min(h[0].Rows, n), h[0] // or per row of a short top tile
			}
			ts[key] = matrix.New(min(ib, k), k)
			f.log = append(f.log, vtMsg{V: v, T: ts[key]})
		}
		t := ts[key]
		submit(c.Kernel.String(), func(ws *kernels.Workspace) { c.run(ws, true, ib, h, t) }, deps...)
	})
	wait()
	return f, nil
}
