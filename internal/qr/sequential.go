package qr

import (
	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
)

// Factorize computes the tree-based tile QR of a in place and returns the
// factorization. It is the sequential reference implementation: it executes
// the exact kernel sequence the 3D VSA executes (same plan, same per-datum
// order), so the two produce bitwise-comparable results.
//
// b, when non-nil, is a tiled set of ride-along right-hand-side columns
// (same tile size and row count as a): it receives every trailing-matrix
// update but never enters panel factorization, leaving it equal to QᵀB —
// exactly how the VSA computes least-squares solutions without a second
// pass.
//
// The reference is one worker, so an unset opts.H resolves to one domain
// per panel (Resolve); to reproduce another engine's run, pass that run's
// resolved Factorization.Opts.
func Factorize(a *matrix.Tiled, b *matrix.Tiled, opts Options) (*Factorization, error) {
	opts = opts.Resolve(a.MT, 1)
	if err := checkShapes(a, b, opts); err != nil {
		return nil, err
	}
	f := &Factorization{M: a.M, N: a.N, Opts: opts, A: a, QTB: b}

	// One workspace for the whole factorization: the sequential reference is
	// single-goroutine, so every kernel call below reuses the same scratch.
	ws := kernels.NewWorkspace()

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
	ncols := func(j int) int {
		n := a.NT - j - 1
		if b != nil {
			n += b.NT
		}
		return n
	}

	for j := 0; j < a.NT && j < a.MT; j++ {
		n := a.TileCols(j)
		plan := planPanel(j, a.MT, opts)
		nc := ncols(j)

		// rs holds the evolving R of each domain, keyed by the domain top.
		rs := map[int]*matrix.Mat{}

		for _, d := range plan.Domains {
			top := d.Top
			tile := a.Tile(top, j)
			k := min(tile.Rows, n)
			tg := matrix.New(min(opts.IB, k), k)
			kernels.DgeqrtWS(ws, opts.IB, tile, tg)
			f.Ops = append(f.Ops, Op{Kind: OpGeqrt, J: j, I: top, K: -1, T: tg})
			for l := 0; l < nc; l++ {
				kernels.DormqrWS(ws, true, opts.IB, tile, tg, colTile(top, l, j))
			}
			// Extract the domain R as a working copy (upper trapezoid).
			r := extractR(tile, n)
			rs[top] = r

			for _, kRow := range d.Rows {
				kt := a.Tile(kRow, j)
				tt := matrix.New(min(opts.IB, n), n)
				kernels.DtsqrtWS(ws, opts.IB, r, kt, tt)
				f.Ops = append(f.Ops, Op{Kind: OpTsqrt, J: j, I: top, K: kRow, T: tt})
				for l := 0; l < nc; l++ {
					kernels.DtsmqrWS(ws, true, opts.IB, kt, tt, colTile(top, l, j), colTile(kRow, l, j))
				}
			}
		}

		for _, m := range plan.Merges {
			r1, r2 := rs[m.Surv], rs[m.K]
			tt := matrix.New(min(opts.IB, n), n)
			kernels.DttqrtWS(ws, opts.IB, r1, r2, tt)
			f.Ops = append(f.Ops, Op{Kind: OpTtqrt, J: j, I: m.Surv, K: m.K, T: tt, V2: r2})
			for l := 0; l < nc; l++ {
				kernels.DttmqrWS(ws, true, opts.IB, r2, tt, colTile(m.Surv, l, j), colTile(m.K, l, j))
			}
		}

		// The surviving R of the panel becomes the final R(j,j) block:
		// write it into the upper triangle of the diagonal tile (the
		// Householder vectors below it are untouched).
		writeR(a.Tile(j, j), rs[j], n)
	}
	return f, nil
}
