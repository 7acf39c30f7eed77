package qr

import (
	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
)

// Kernel is the kind of one call of the listing: one of the six tile
// kernels, or the write-back of a panel's R.
type Kernel int

// The tile kernels in the order machine models list their rates, then the
// write-back.
const (
	Geqrt Kernel = iota
	Tsqrt
	Ttqrt
	Ormqr
	Tsmqr
	Ttmqr
	// WriteBack copies a panel's surviving R into its diagonal tile; it
	// runs no tile kernel.
	WriteBack
)

// NumKernels counts the tile kernels, Geqrt through Ttmqr: the write-back
// comes after them.
const NumKernels = WriteBack

func (k Kernel) String() string {
	return [...]string{"geqrt", "tsqrt", "ttqrt", "ormqr", "tsmqr", "ttmqr", "writeback"}[k]
}

// Class returns the trace class a tile kernel fires under.
func (k Kernel) Class() string {
	return [...]string{ClassPanel, ClassPanel, ClassBinary, ClassUpdate, ClassUpdate, ClassBinaryUpdate}[k]
}

// Datum is one piece of data a call touches: tile (I, L) of the matrix —
// from column nt on, a rhs tile column — or, with R set, the evolving R
// factor of the domain whose top row is I in panel L.
type Datum struct {
	I, L int
	R    bool
}

// Call is one step of a factorization: Kernel applied in panel J to tile
// rows I (the domain top or merge survivor) and K (the row it eliminates,
// -1 for Geqrt, Ormqr and WriteBack) at column L (J itself for a panel
// kernel and the write-back).
type Call struct {
	Kernel     Kernel
	J, I, K, L int
}

// Access calls f on each datum c touches, in the order the engines declare
// them: first the one it only reads, if any (an update's reflectors, the R
// being written back), then each one it reads and overwrites.
func (c Call) Access(f func(d Datum, write bool)) {
	tile := func(i, l int) Datum { return Datum{I: i, L: l} }
	r := func(top int) Datum { return Datum{I: top, L: c.J, R: true} }
	switch c.Kernel {
	case Geqrt:
		f(tile(c.I, c.J), true)
		f(r(c.I), true)
	case Tsqrt:
		f(r(c.I), true)
		f(tile(c.K, c.J), true)
	case Ttqrt:
		f(r(c.I), true)
		f(r(c.K), true)
	case Ormqr:
		f(tile(c.I, c.J), false)
		f(tile(c.I, c.L), true)
	case Tsmqr:
		f(tile(c.K, c.J), false)
		f(tile(c.I, c.L), true)
		f(tile(c.K, c.L), true)
	case Ttmqr:
		f(r(c.K), false)
		f(tile(c.I, c.L), true)
		f(tile(c.K, c.L), true)
	case WriteBack:
		f(r(c.I), false)
		f(tile(c.I, c.J), true)
	}
}

// Home returns the tile that places c: the eliminated row of a flat-tree
// step (Tsqrt, Tsmqr), else the top or survivor row, in column L.
func (c Call) Home() (row, col int) {
	if c.Kernel == Tsqrt || c.Kernel == Tsmqr {
		return c.K, c.L
	}
	return c.I, c.L
}

// Flops prices c by the kernels.Flops* models on an m×n matrix of nb×nb
// tiles, edge tiles at their ragged size. The write-back costs nothing; a
// call on a rhs column cannot be priced from m and n.
func (c Call) Flops(m, n, nb int) float64 {
	rows := func(i int) int { return min(nb, m-i*nb) }
	cols := func(l int) int { return min(nb, n-l*nb) }
	switch c.Kernel {
	case Geqrt:
		return kernels.FlopsGeqrt(rows(c.I), cols(c.J))
	case Tsqrt:
		return kernels.FlopsTsqrt(rows(c.K), cols(c.J))
	case Ttqrt:
		return kernels.FlopsTtqrt(cols(c.J))
	case Ormqr:
		return kernels.FlopsOrmqr(rows(c.I), cols(c.L), min(rows(c.I), cols(c.J)))
	case Tsmqr:
		return kernels.FlopsTsmqr(rows(c.K), cols(c.J), cols(c.L))
	case Ttmqr:
		return kernels.FlopsTtmqr(cols(c.J), cols(c.L))
	}
	return 0
}

// run executes c on ws (nil borrows a pooled workspace) at inner block ib:
// h holds its data in Access order, t the T factor a panel call writes or
// an update applies — as Qᵀ when trans is set, as Q otherwise. A Geqrt also
// starts its domain's R, h[1], from its tile. This is the one kernel
// dispatch every engine runs a call through, and the one Q is applied by.
func (c Call) run(ws *kernels.Workspace, trans bool, ib int, h [3]*matrix.Mat, t *matrix.Mat) {
	switch c.Kernel {
	case Geqrt:
		kernels.DgeqrtWS(ws, ib, h[0], t)
		writeR(h[1], h[0])
	case Tsqrt:
		kernels.DtsqrtWS(ws, ib, h[0], h[1], t)
	case Ttqrt:
		kernels.DttqrtWS(ws, ib, h[0], h[1], t)
	case Ormqr:
		kernels.DormqrWS(ws, trans, ib, h[0], t, h[1])
	case Tsmqr:
		kernels.DtsmqrWS(ws, trans, ib, h[0], t, h[1], h[2])
	case Ttmqr:
		kernels.DttmqrWS(ws, trans, ib, h[0], t, h[1], h[2])
	case WriteBack:
		writeR(h[1], h[0])
	}
}

// writeR copies the upper trapezoid of src over dst's, as far as the rows of
// both go: a factored tile's R into its domain's R packet, or a panel's
// final R over its diagonal tile. The rest of dst — the Householder vectors
// below a diagonal tile's R, a packet's unread lower part — stays.
func writeR(dst, src *matrix.Mat) {
	for jj := 0; jj < src.Cols; jj++ {
		for ii := 0; ii <= jj && ii < src.Rows && ii < dst.Rows; ii++ {
			dst.Set(ii, jj, src.At(ii, jj))
		}
	}
}

// List visits, in program order, the calls of one tree-based tile QR of mt×nt
// tiles with rhs ride-along tile columns; o must be resolved. Per panel j:
// each domain's Geqrt and its Tsqrt chain; the Ttqrt merges; then for each
// trailing column — the matrix's j+1..nt-1, then the rhs columns from nt —
// each domain's Ormqr and Tsmqr chain and then the Ttmqr merges; last the
// WriteBack. The in-order engines bind it to matrices (walk), the 3D VSA
// makes a VDP of each call (builder.build), and the simulator prices it.
func List(mt, nt, rhs int, o Options, visit func(Call)) {
	for j := 0; j < nt && j < mt; j++ {
		plan := planPanel(j, mt, o)
		for _, d := range plan.Domains {
			visit(Call{Kernel: Geqrt, J: j, I: d.Top, K: -1, L: j})
			for _, k := range d.Rows {
				visit(Call{Kernel: Tsqrt, J: j, I: d.Top, K: k, L: j})
			}
		}
		for _, m := range plan.Merges {
			visit(Call{Kernel: Ttqrt, J: j, I: m.Surv, K: m.K, L: j})
		}
		for l := j + 1; l < nt+rhs; l++ {
			for _, d := range plan.Domains {
				visit(Call{Kernel: Ormqr, J: j, I: d.Top, K: -1, L: l})
				for _, k := range d.Rows {
					visit(Call{Kernel: Tsmqr, J: j, I: d.Top, K: k, L: l})
				}
			}
			for _, m := range plan.Merges {
				visit(Call{Kernel: Ttmqr, J: j, I: m.Surv, K: m.K, L: l})
			}
		}
		visit(Call{Kernel: WriteBack, J: j, I: j, K: -1, L: j})
	}
}

// panelCalls returns the panel calls (Geqrt, Tsqrt, Ttqrt) of List(mt, nt,
// 0, o), in its order: a factorization's log holds one (V,T) for each.
func panelCalls(mt, nt int, o Options) (cs []Call) {
	List(mt, nt, 0, o, func(c Call) {
		if c.Kernel <= Ttqrt {
			cs = append(cs, c)
		}
	})
	return cs
}
