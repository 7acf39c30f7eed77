package chol

import (
	"fmt"
	"time"

	"pulsarqr/internal/blas"
	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/pulsar"
	"pulsarqr/internal/tuple"
)

// The virtual systolic array for tile Cholesky. One single-firing VDP per
// task, mirroring the QR array's structure:
//
//   - the factored diagonal L[k][k] travels down a by-pass chain through
//     the step's dtrsm VDPs,
//   - each panel tile L[i][k] produced by a dtrsm broadcasts along two
//     by-pass chains: its row (the dgemm/dsyrk updates A[i][k+1..i]) and
//     its column (the dgemm updates A[i+1..][i]),
//   - updated trailing tiles are released directly to their task in step
//     k+1, so successive steps pipeline exactly like the QR panels.

const (
	kindPotrf = 0
	kindTrsm  = 1
	kindGemm  = 2 // dsyrk when i == j
)

// Trace classes for the Cholesky array.
const (
	ClassPotrf  = "potrf"
	ClassTrsm   = "trsm"
	ClassUpdate = "update"
)

// RunConfig mirrors qr.RunConfig for the Cholesky array.
type RunConfig struct {
	Nodes, Threads  int
	Scheduling      pulsar.Scheduling
	FireHook        func(pulsar.FireEvent)
	DeadlockTimeout time.Duration
}

func potrfTup(k int) tuple.Tuple      { return tuple.Tuple{kindPotrf, k, -1, -1} }
func trsmTup(k, i int) tuple.Tuple    { return tuple.Tuple{kindTrsm, k, i, -1} }
func gemmTup(k, i, j int) tuple.Tuple { return tuple.Tuple{kindGemm, k, i, j} }

type cholLocal struct {
	k, i, j int
	nt      int
}

// FactorizeVSA computes the tile Cholesky on the systolic runtime; results
// are elementwise identical to Factorize.
func FactorizeVSA(a *matrix.Tiled, opts Options, rc RunConfig) (*Factorization, error) {
	opts = opts.normalize()
	if a.M != a.N {
		return nil, fmt.Errorf("chol: matrix is %dx%d; Cholesky needs square", a.M, a.N)
	}
	if a.NB != opts.NB {
		return nil, fmt.Errorf("chol: matrix tiled with nb=%d but options say nb=%d", a.NB, opts.NB)
	}
	if rc.Nodes <= 0 {
		rc.Nodes = 1
	}
	if rc.Threads <= 0 {
		rc.Threads = 1
	}
	nt := a.NT
	nbBytes := 8*opts.NB*opts.NB + 64

	s := pulsar.New(pulsar.Config{
		Nodes:           rc.Nodes,
		ThreadsPerNode:  rc.Threads,
		Scheduling:      rc.Scheduling,
		FireHook:        rc.FireHook,
		DeadlockTimeout: rc.DeadlockTimeout,
		Map: func(t tuple.Tuple) (int, int) {
			row, col := t.At(2), t.At(3)
			if row < 0 {
				row = t.At(1)
			}
			if col < 0 {
				col = t.At(1)
			}
			return pulsar.PlaceTile(nt, rc.Nodes, rc.Threads, row, col)
		},
	})

	// Pass 1: VDPs.
	for k := 0; k < nt; k++ {
		v := s.NewVDP(potrfTup(k), 1, potrfFn, ClassPotrf, 1, 2)
		v.SetLocal(&cholLocal{k: k, i: k, j: k, nt: nt})
		for i := k + 1; i < nt; i++ {
			v := s.NewVDP(trsmTup(k, i), 1, trsmFn, ClassTrsm, 2, 4)
			v.SetLocal(&cholLocal{k: k, i: i, j: k, nt: nt})
			for j := k + 1; j <= i; j++ {
				v := s.NewVDP(gemmTup(k, i, j), 1, gemmFn, ClassUpdate, 3, 3)
				v.SetLocal(&cholLocal{k: k, i: i, j: j, nt: nt})
			}
		}
	}
	// Pass 2: channels.
	release := func(k, i, j int, from tuple.Tuple, slot int) {
		// Updated tile A[i][j] after step k flows to its step-k+1 task.
		switch {
		case j == k+1 && i == j:
			s.Connect(from, slot, potrfTup(k+1), 0, nbBytes, false)
		case j == k+1:
			s.Connect(from, slot, trsmTup(k+1, i), 0, nbBytes, false)
		default:
			s.Connect(from, slot, gemmTup(k+1, i, j), 0, nbBytes, false)
		}
	}
	for k := 0; k < nt; k++ {
		s.Output(potrfTup(k), 1, nbBytes) // final L[k][k]
		if k+1 < nt {
			s.Connect(potrfTup(k), 0, trsmTup(k, k+1), 1, nbBytes, false)
		}
		for i := k + 1; i < nt; i++ {
			if i+1 < nt {
				s.Connect(trsmTup(k, i), 0, trsmTup(k, i+1), 1, nbBytes, false) // Lkk chain
				s.Connect(trsmTup(k, i), 2, gemmTup(k, i+1, i), 2, nbBytes, false)
			}
			s.Connect(trsmTup(k, i), 1, gemmTup(k, i, k+1), 1, nbBytes, false)
			s.Output(trsmTup(k, i), 3, nbBytes) // final L[i][k]
			for j := k + 1; j <= i; j++ {
				from := gemmTup(k, i, j)
				if j < i {
					s.Connect(from, 0, gemmTup(k, i, j+1), 1, nbBytes, false) // row fwd
					if i+1 < nt {
						s.Connect(from, 1, gemmTup(k, i+1, j), 2, nbBytes, false) // col fwd
					}
				}
				release(k, i, j, from, 2)
			}
		}
	}
	// Injection of the lower tiles.
	for i := 0; i < nt; i++ {
		for j := 0; j <= i; j++ {
			var dst tuple.Tuple
			var slot int
			switch {
			case j == 0 && i == 0:
				dst, slot = potrfTup(0), 0
			case j == 0:
				dst, slot = trsmTup(0, i), 0
			default:
				dst, slot = gemmTup(0, i, j), 0
			}
			s.Input(dst, slot, nbBytes)
			s.Inject(dst, slot, pulsar.NewPacket(a.Tile(i, j)))
		}
	}
	if err := s.Run(); err != nil {
		return nil, err
	}

	// Assemble.
	out := matrix.NewTiled(a.M, a.N, a.NB)
	one := func(tup tuple.Tuple, slot int) (*matrix.Mat, error) {
		ps := s.Collected(tup, slot)
		if len(ps) != 1 {
			return nil, fmt.Errorf("chol: collector %v[%d] holds %d packets", tup, slot, len(ps))
		}
		if err, ok := ps[0].Data.(error); ok {
			return nil, err
		}
		return ps[0].Tile(), nil
	}
	for k := 0; k < nt; k++ {
		tl, err := one(potrfTup(k), 1)
		if err != nil {
			return nil, err
		}
		out.SetTile(k, k, tl)
		for i := k + 1; i < nt; i++ {
			tl, err := one(trsmTup(k, i), 3)
			if err != nil {
				return nil, err
			}
			out.SetTile(i, k, tl)
		}
	}
	return &Factorization{N: a.N, NB: opts.NB, A: out, Opts: opts}, nil
}

func potrfFn(v *pulsar.VDP) {
	loc := v.Local().(*cholLocal)
	tile := v.Pop(0).Tile()
	if err := kernels.Dpotrf(tile); err != nil {
		// Deliver the failure through the collector; the driver surfaces
		// it after the run drains (remaining VDPs starve by design, so the
		// deadlock watchdog would fire — destroy downstream expectations
		// by pushing the factored-anyway tile onward is wrong; instead
		// push the error and the unmodified tile down the chain so the
		// array still drains).
		v.Push(1, pulsar.NewPacket(fmt.Errorf("chol: step %d: %w", loc.k, err)))
		if loc.k+1 < loc.nt {
			v.Push(0, pulsar.NewPacket(tile))
		}
		return
	}
	v.Push(1, pulsar.NewPacket(tile))
	if loc.k+1 < loc.nt {
		v.Push(0, pulsar.NewPacket(tile))
	}
}

func trsmFn(v *pulsar.VDP) {
	loc := v.Local().(*cholLocal)
	lkkPkt := v.Pop(1)
	if loc.i+1 < loc.nt {
		v.Push(0, lkkPkt) // by-pass the diagonal down the chain
	}
	tile := v.Pop(0).Tile()
	lkk := lkkPkt.Tile()
	blas.Dtrsm(false, false, true, false, tile.Rows, tile.Cols, 1,
		lkk.Data, lkk.LD, tile.Data, tile.LD)
	v.Push(1, pulsar.NewPacket(tile)) // row chain
	if loc.i+1 < loc.nt {
		v.Push(2, pulsar.NewPacket(tile)) // column chain
	}
	v.Push(3, pulsar.NewPacket(tile)) // final L[i][k]
}

func gemmFn(v *pulsar.VDP) {
	loc := v.Local().(*cholLocal)
	likPkt := v.Pop(1)
	if loc.j < loc.i {
		v.Push(0, likPkt) // forward along the row first
	}
	var ljk *matrix.Mat
	if loc.j < loc.i {
		ljkPkt := v.Pop(2)
		if loc.i+1 < loc.nt {
			v.Push(1, ljkPkt) // forward down the column
		}
		ljk = ljkPkt.Tile()
	}
	tile := v.Pop(0).Tile()
	lik := likPkt.Tile()
	if loc.j == loc.i {
		blas.Dsyrk(false, false, tile.Rows, lik.Cols, -1, lik.Data, lik.LD, 1, tile.Data, tile.LD)
	} else {
		blas.Dgemm(false, true, tile.Rows, tile.Cols, lik.Cols, -1,
			lik.Data, lik.LD, ljk.Data, ljk.LD, 1, tile.Data, tile.LD)
	}
	v.Push(2, pulsar.NewPacket(tile))
}
