package qr

import (
	"fmt"

	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/pulsar"
	"pulsarqr/internal/tuple"
)

// Domino QR: the authors' first VSA design (their 2013 IPDPS paper, shown
// as example code in Fig. 9 of this one) — a 2D array with one VDP per
// tile and a flat-tree panel reduction. Each VDP fires once per panel step
// it participates in (its counter = min(i, j, nt−1)+1), popping the
// traveling tile from above and the (V, T) transformation from the left,
// and pushing the updated traveler down and the transformation right — the
// paper's exact three-input/three-output channel protocol:
//
//	in  0: A from (i−1, j)    out 0: A to (i+1, j)
//	in  1: V from (i, j−1)    out 1: V to (i, j+1)
//	in  2: T from (i, j−1)    out 2: T to (i, j+1)
//
// A fourth output, slot 3, hands the driver one packet (result collection,
// not part of the systolic flow): a panel VDP's log entry, the (V,T) of its
// call, and a trailing rhs VDP's finished tile. The final R rows emerge from
// the bottom of each column, one per panel step, like falling dominoes.
//
// A VDP's last firing may need none of its inputs (the diagonal dgeqrt) or
// only a subset (the dormqr that turns the local tile into the traveler);
// since the firing rule demands a packet in every *active* input channel,
// each VDP disables the channels its final firing will not read at the end
// of its penultimate firing — the channel-deactivation mechanism of §IV-A.
//
// The paper reports that the 3D array's flat-tree configuration performs
// equivalently to this design (§VI); the tests verify the two produce
// elementwise-identical factorizations and the harness compares their
// runtime cost.

// dominoLocal is a domino VDP's persistent state.
type dominoLocal struct {
	i, j  int // tile coordinates; j in global column space (rhs included)
	ib    int
	steps int // total firings
	step  int // current panel step k
	tile  *matrix.Mat
	nt    int // matrix tile columns (excluding rhs)
	ncols int // total columns including rhs
}

// FactorizeDomino computes the flat-tree (domino) QR on the 2D virtual
// systolic array. opts.Tree is ignored: the domino design is inherently
// flat-tree. Results are elementwise identical to Factorize with FlatTree.
func FactorizeDomino(a *matrix.Tiled, b *matrix.Tiled, opts Options, rc RunConfig) (*Factorization, error) {
	rc = rc.normalize()
	opts = opts.Resolve(a.MT, rc.Nodes*rc.Threads)
	opts.Tree = FlatTree
	if err := checkShapes(a, b, opts); err != nil {
		return nil, err
	}
	mt, nt := a.MT, a.NT
	bnt := 0
	if b != nil {
		bnt = b.NT
	}
	if nt == 0 { // no panel: R is empty and QᵀB is B
		return &Factorization{M: a.M, N: a.N, Opts: opts, A: a, QTB: b}, nil
	}
	ncols := nt + bnt
	nbBytes := 8*opts.NB*opts.NB + 64

	s := pulsar.New(pulsar.Config{
		Nodes:           rc.Nodes,
		ThreadsPerNode:  rc.Threads,
		Scheduling:      rc.Scheduling,
		FireHook:        rc.FireHook,
		DeadlockTimeout: rc.DeadlockTimeout,
		Map:             dominoMapping(mt, rc),
		WorkerState:     func(node, thread int) any { return kernels.NewWorkspace() },
	})

	steps := func(i, j int) int { return min(i, j, nt-1) + 1 }
	class := func(i, j int) string {
		if j < nt && j <= i {
			return ClassPanel
		}
		return ClassUpdate
	}

	// The 2D array of VDPs (Fig. 9's double loop).
	for i := 0; i < mt; i++ {
		for j := 0; j < ncols; j++ {
			var tl *matrix.Mat
			if j < nt {
				tl = a.Tile(i, j)
			} else {
				tl = b.Tile(i, j-nt)
			}
			loc := &dominoLocal{i: i, j: j, ib: opts.IB, steps: steps(i, j),
				tile: tl, nt: nt, ncols: ncols}
			v := s.NewVDP(tuple.New2(i, j), loc.steps, dominoFn, class(i, j), 3, 4)
			v.SetLocal(loc)
		}
	}
	// Channels: A down each column, V and T right along each row.
	for i := 0; i < mt; i++ {
		for j := 0; j < ncols; j++ {
			if i+1 < mt {
				s.Connect(tuple.New2(i, j), 0, tuple.New2(i+1, j), 0, nbBytes, false)
			} else {
				s.Output(tuple.New2(i, j), 0, nbBytes) // final R / QᵀB rows
			}
			if j+1 < ncols {
				s.Connect(tuple.New2(i, j), 1, tuple.New2(i, j+1), 1, nbBytes, false)
				s.Connect(tuple.New2(i, j), 2, tuple.New2(i, j+1), 2, nbBytes/2, false)
			}
			s.Output(tuple.New2(i, j), 3, nbBytes) // factored-tile gather
		}
	}
	if err := s.Run(); err != nil {
		return nil, err
	}
	f, err := assembleDomino(s, a, b, opts)
	if err != nil {
		return nil, err
	}
	msgs, bytes := s.NetworkStats()
	f.Stats = RunStats{
		Firings: s.Fired(), Messages: msgs, Bytes: bytes,
		VDPs: s.VDPCount(), Channels: s.ChannelCount(),
	}
	return f, nil
}

// dominoMapping places VDP (i, j) where the 3D array places a call homed at
// tile (i, j).
func dominoMapping(mt int, rc RunConfig) pulsar.Mapping {
	return func(t tuple.Tuple) (int, int) {
		return Place(Call{I: t.At(0), L: t.At(1)}, mt, rc.Nodes, rc.Threads)
	}
}

// dominoFn is the cycle of every domino VDP: the roles of Fig. 9's
// vdp_factor and vdp_update, selected by the current step.
func dominoFn(v *pulsar.VDP) {
	st := v.Local().(*dominoLocal)
	k := st.step
	st.step++
	i, j := st.i, st.j
	ib := st.ib
	forward := j+1 < st.ncols

	switch {
	case j == k && i == k:
		// Diagonal at its own step: dgeqrt. The local tile keeps the
		// reflectors; the extracted R becomes the traveler.
		n := min(st.tile.Cols, st.tile.Rows)
		tg, r := matrix.New(min(ib, n), n), matrix.New(n, st.tile.Cols)
		Call{Kernel: Geqrt}.run(wsOf(v), true, ib, [3]*matrix.Mat{st.tile, r}, tg)
		if forward {
			v.Push(1, pulsar.NewPacket(st.tile))
			v.Push(2, pulsar.NewPacket(tg))
		}
		v.Push(0, pulsar.NewPacket(r))
		v.Push(3, pulsar.NewPacket(&vtMsg{V: st.tile, T: tg}))

	case j == k && i > k:
		// Panel column below the diagonal: dtsqrt against the traveling R.
		r := v.Pop(0).Tile()
		n := r.Cols
		tt := matrix.New(min(ib, n), n)
		Call{Kernel: Tsqrt}.run(wsOf(v), true, ib, [3]*matrix.Mat{r, st.tile}, tt)
		if forward {
			v.Push(1, pulsar.NewPacket(st.tile))
			v.Push(2, pulsar.NewPacket(tt))
		}
		v.Push(0, pulsar.NewPacket(r))
		v.Push(3, pulsar.NewPacket(&vtMsg{V: st.tile, T: tt}))

	case j > k && i == k:
		// Top row of the step in a trailing column: dormqr; the local
		// tile becomes the traveler and leaves.
		vp, tp := v.Pop(1), v.Pop(2)
		if forward {
			v.Push(1, vp) // by-pass before applying (§V-C)
			v.Push(2, tp)
		}
		Call{Kernel: Ormqr}.run(wsOf(v), true, ib, [3]*matrix.Mat{vp.Tile(), st.tile}, tp.Tile())
		v.Push(0, pulsar.NewPacket(st.tile))
		st.tile = nil

	default: // j > k && i > k
		// Trailing pair update: dtsmqr on (traveler, local).
		vp, tp := v.Pop(1), v.Pop(2)
		if forward {
			v.Push(1, vp)
			v.Push(2, tp)
		}
		b1 := v.Pop(0).Tile()
		Call{Kernel: Tsmqr}.run(wsOf(v), true, ib, [3]*matrix.Mat{vp.Tile(), b1, st.tile}, tp.Tile())
		v.Push(0, pulsar.NewPacket(b1))
	}

	// Deactivate the channels the final firing will not read (the
	// deactivation mechanism of §IV-A): the diagonal's dgeqrt reads
	// nothing; a dtsqrt reads only the traveler; a final dormqr reads only
	// the transformation.
	if st.step == st.steps-1 {
		lastK := st.steps - 1
		switch {
		case j < st.nt && j <= i && j == lastK: // panel firing next
			if j >= 1 {
				v.DisableInput(1)
				v.DisableInput(2)
			}
			if i == j && i >= 1 {
				v.DisableInput(0)
			}
		case i == lastK && j > lastK && i >= 1: // dormqr firing next
			v.DisableInput(0)
		}
	}

	// Trailing rhs rows below the last panel keep their (fully updated)
	// local tile; surrender it on the final firing.
	if st.step == st.steps && st.tile != nil && j >= st.nt && i >= st.nt {
		v.Push(3, pulsar.NewPacket(st.tile))
	}
}

// assembleDomino gathers the collectors into a Factorization.
func assembleDomino(s *pulsar.VSA, a, b *matrix.Tiled, opts Options) (*Factorization, error) {
	mt, nt, bnt := a.MT, a.NT, 0
	out := matrix.NewTiled(a.M, a.N, a.NB)
	f := &Factorization{M: a.M, N: a.N, Opts: opts, A: out}
	if b != nil {
		bnt, f.QTB = b.NT, matrix.NewTiled(b.M, b.N, b.NB)
	}

	// The log, by listing position: a panel call's entry is the one packet
	// of the VDP at its Home tile, whose reflector tile goes in place.
	for _, c := range panelCalls(mt, nt, opts) {
		i, j := c.Home()
		p, err := collectedOne(s, tuple.New2(i, j), 3)
		if err != nil {
			return nil, fmt.Errorf("qr: domino: %w", err)
		}
		vt := p.Data.(*vtMsg)
		out.SetTile(i, j, vt.V)
		f.log = append(f.log, *vt)
	}

	// Bottom-row outputs: column j emits, in step order, the final R(k, j)
	// (or (QᵀB)(k, ·)) travelers for k = 0..steps-1.
	for j := 0; j < nt+bnt; j++ {
		ps := s.Collected(tuple.New2(mt-1, j), 0)
		for k, p := range ps {
			tl := p.Tile()
			switch {
			case j < nt && k == j:
				// Final R(j,j): write into the diagonal tile's upper part.
				writeR(out.Tile(j, j), tl)
			case j < nt:
				out.SetTile(k, j, tl)
			default:
				f.QTB.SetTile(k, j-nt, tl)
			}
		}
	}

	// RHS rows below the last panel surrendered their local tiles.
	for r := 0; r < bnt; r++ {
		for i := nt; i < mt; i++ {
			p, err := collectedOne(s, tuple.New2(i, nt+r), 3)
			if err != nil {
				return nil, fmt.Errorf("qr: domino: %w", err)
			}
			f.QTB.SetTile(i, r, p.Tile())
		}
	}
	return f, nil
}
