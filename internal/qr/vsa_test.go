package qr

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/pulsar"
	"pulsarqr/internal/tuple"
)

// factorBoth runs the VSA and the sequential reference on identical data
// and returns both factorizations. The reference runs the options the VSA
// resolved, so an unset H compares at the VSA's h.
func factorBoth(t *testing.T, d, b *matrix.Mat, o Options, rc RunConfig) (seq, vsa *Factorization) {
	t.Helper()
	var bs, bv *matrix.Tiled
	if b != nil {
		bs = matrix.FromDense(b, o.NB)
		bv = matrix.FromDense(b, o.NB)
	}
	var err error
	vsa, err = FactorizeVSA(matrix.FromDense(d, o.NB), bv, o, rc)
	if err != nil {
		t.Fatal(err)
	}
	seq, err = Factorize(matrix.FromDense(d, o.NB), bs, vsa.Opts)
	if err != nil {
		t.Fatal(err)
	}
	return seq, vsa
}

// assertFactorizationsEqual demands elementwise equality of the factored
// tiles, the final R and QᵀB, and bitwise equality of the logs and Q: the VSA
// executes the same kernels on the same data in the same per-datum order as
// the reference, so the results must match exactly, not just to rounding,
// and each log replays under its own Opts to the reference's Q.
func assertFactorizationsEqual(t *testing.T, seq, vsa *Factorization) {
	t.Helper()
	if d := matrix.MaxAbsDiff(seq.A.ToDense(), vsa.A.ToDense()); d != 0 {
		t.Fatalf("factored tiles differ by %v", d)
	}
	if len(seq.log) != len(vsa.log) {
		t.Fatalf("logs: %d vs %d entries", len(seq.log), len(vsa.log))
	}
	for i, se := range seq.log {
		if ve := vsa.log[i]; !sameBits(se.V, ve.V) || !sameBits(se.T, ve.T) {
			t.Fatalf("log entry %d differs: V bitwise equal %v, T %v", i, sameBits(se.V, ve.V), sameBits(se.T, ve.T))
		}
	}
	if sq, vq := seq.Q(), vsa.Q(); !sameBits(sq, vq) {
		t.Fatalf("Q differs by %v", matrix.MaxAbsDiff(sq, vq))
	}
	if (seq.QTB == nil) != (vsa.QTB == nil) {
		t.Fatal("QTB presence differs")
	}
	if seq.QTB != nil {
		if d := matrix.MaxAbsDiff(seq.QTB.ToDense(), vsa.QTB.ToDense()); d != 0 {
			t.Fatalf("QᵀB differs by %v", d)
		}
	}
}

func TestVSAMatchesSequentialAllTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rc := RunConfig{Nodes: 1, Threads: 3}
	for _, o := range allTreeOpts() {
		d := matrix.NewRand(41, 13, rng)
		b := matrix.NewRand(41, 3, rng)
		seq, vsa := factorBoth(t, d, b, o, rc)
		assertFactorizationsEqual(t, seq, vsa)
		if res := vsa.Residual(d); res > 1e-13 {
			t.Fatalf("%v: residual %v", o, res)
		}
	}
}

func TestVSAMultiNodeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, nodes := range []int{2, 3, 5} {
		rc := RunConfig{Nodes: nodes, Threads: 2}
		o := Options{NB: 8, IB: 4, Tree: HierarchicalTree, H: 3}
		d := matrix.NewRand(77, 21, rng)
		b := matrix.NewRand(77, 2, rng)
		seq, vsa := factorBoth(t, d, b, o, rc)
		assertFactorizationsEqual(t, seq, vsa)
	}
}

func TestVSASchedulingModesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	o := Options{NB: 8, IB: 4, Tree: HierarchicalTree, H: 2}
	d := matrix.NewRand(40, 16, rng)
	for _, sched := range []pulsar.Scheduling{pulsar.Lazy, pulsar.Aggressive} {
		rc := RunConfig{Nodes: 2, Threads: 2, Scheduling: sched}
		seq, vsa := factorBoth(t, d, nil, o, rc)
		assertFactorizationsEqual(t, seq, vsa)
	}
}

func TestVSAFlatSingleColumn(t *testing.T) {
	// Degenerate shapes: one tile column, one tile, tiny threads.
	rng := rand.New(rand.NewSource(4))
	for _, shape := range [][2]int{{24, 6}, {8, 8}, {6, 6}, {30, 8}} {
		for _, tree := range []TreeKind{FlatTree, BinaryTree, HierarchicalTree} {
			o := Options{NB: 8, IB: 4, Tree: tree, H: 2}
			d := matrix.NewRand(shape[0], shape[1], rng)
			seq, vsa := factorBoth(t, d, nil, o, RunConfig{Nodes: 1, Threads: 1})
			assertFactorizationsEqual(t, seq, vsa)
		}
	}
}

func TestVSALeastSquares(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	o := Options{NB: 8, IB: 4, Tree: HierarchicalTree, H: 3}
	m, n := 56, 14
	d := matrix.NewRand(m, n, rng)
	xTrue := matrix.NewRand(n, 2, rng)
	b := d.Mul(xTrue)
	f, err := FactorizeVSA(matrix.FromDense(d, o.NB), matrix.FromDense(b, o.NB), o, RunConfig{Nodes: 2, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	x := f.SolveFromQTB()
	if diff := matrix.MaxAbsDiff(x, xTrue); diff > 1e-10 {
		t.Fatalf("least-squares solution off by %v", diff)
	}
}

func TestVSAQReplayAfterRun(t *testing.T) {
	// The factorization gathered from the array must support Q replay.
	rng := rand.New(rand.NewSource(6))
	o := Options{NB: 8, IB: 4, Tree: HierarchicalTree, H: 2}
	m, n := 33, 9
	d := matrix.NewRand(m, n, rng)
	f, err := FactorizeVSA(matrix.FromDense(d, o.NB), nil, o, RunConfig{Nodes: 2, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := f.R()
	stack := matrix.New(m, n)
	stack.View(0, 0, n, n).CopyFrom(r)
	st := matrix.FromDense(stack, o.NB)
	f.ApplyQ(st)
	if diff := matrix.MaxAbsDiff(st.ToDense(), d); diff > 1e-12 {
		t.Fatalf("||QR − A|| = %v", diff)
	}
}

// TestVSATraceClassesPresent holds the VSA to the listing: for every tree on
// a tall and a ragged shape, the ragged one also with rhs columns and the
// tall one also on two nodes, a traced run fires exactly the listing's calls. A firing's key is decoded
// from its tuple: the kernel's trace class (a panel VDP runs the Geqrt or a
// Tsqrt of its row, an update VDP the Ormqr or a Tsmqr), the panel, the
// home row, the eliminated row of a merge, and the column.
func TestVSATraceClassesPresent(t *testing.T) {
	type key struct {
		class        string
		j, row, k, l int
	}
	fromTuple := func(tp tuple.Tuple) key {
		switch tp[0] {
		case kindPanel:
			return key{ClassPanel, tp[1], tp[2], -1, tp[1]}
		case kindUpdate:
			return key{ClassUpdate, tp[1], tp[2], -1, tp[3]}
		case kindMerge:
			return key{ClassBinary, tp[1], tp[2], tp[3], tp[1]}
		}
		return key{ClassBinaryUpdate, tp[1], tp[2], tp[3], tp[4]}
	}
	fromCall := func(c Call) key {
		row, l := c.Home()
		k := -1
		if c.Kernel == Ttqrt || c.Kernel == Ttmqr {
			k = c.K
		}
		return key{c.Kernel.Class(), c.J, row, k, l}
	}
	rng := rand.New(rand.NewSource(7))
	for _, sh := range []struct {
		name      string
		m, n, rhs int
		nb, ib    int
		nodes     int
	}{
		{"tall", 160, 16, 0, 8, 4, 1},
		{"ragged", 45, 13, 0, 8, 3, 1},
		{"ragged with rhs", 45, 13, 11, 8, 3, 1},
		{"tall on 2 nodes", 160, 16, 0, 8, 4, 2},
	} {
		mt := (sh.m + sh.nb - 1) / sh.nb
		configs := append(treeConfigs(sh.nb, sh.ib, mt), Options{NB: sh.nb, IB: sh.ib, Tree: FlatTree})
		for _, o := range configs {
			a := matrix.FromDense(matrix.NewRand(sh.m, sh.n, rng), sh.nb)
			var b *matrix.Tiled
			bnt := 0
			if sh.rhs > 0 {
				b = matrix.FromDense(matrix.NewRand(sh.m, sh.rhs, rng), sh.nb)
				bnt = b.NT
			}
			var mu sync.Mutex
			fired := map[key]int{}
			rc := RunConfig{Nodes: sh.nodes, Threads: 2, FireHook: func(e pulsar.FireEvent) {
				mu.Lock()
				fired[fromTuple(e.Tuple)]++
				mu.Unlock()
			}}
			f, err := FactorizeVSA(a, b, o, rc)
			if err != nil {
				t.Fatal(err)
			}
			List(a.MT, a.NT, bnt, f.Opts, func(c Call) {
				if c.Kernel != WriteBack {
					fired[fromCall(c)]--
				}
			})
			for k, n := range fired {
				if n != 0 {
					t.Errorf("%s %v: %+v fired %+d times more than listed", sh.name, f.Opts, k, n)
				}
			}
		}
	}
}

func TestVSAFixedVsShiftedBothCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := matrix.NewRand(64, 16, rng)
	for _, bp := range []BoundaryPolicy{ShiftedBoundary, FixedBoundary} {
		o := Options{NB: 8, IB: 4, Tree: HierarchicalTree, H: 3, Boundary: bp}
		seq, vsa := factorBoth(t, d, nil, o, RunConfig{Nodes: 2, Threads: 2})
		assertFactorizationsEqual(t, seq, vsa)
		if res := vsa.Residual(d); res > 1e-13 {
			t.Fatalf("%v: residual %v", bp, res)
		}
	}
}

func TestVSARejectsBadShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	o := Options{NB: 8, IB: 4}
	if _, err := FactorizeVSA(matrix.FromDense(matrix.NewRand(5, 9, rng), 8), nil, o, RunConfig{}); err == nil {
		t.Fatal("wide matrix must be rejected")
	}
}

// TestVSAShapePinned pins the array the listing builds: one VDP per listed
// tile kernel call, and the channel, message and byte counts of the array as
// it was before it was built from the listing, on the shapes of
// TestVSATraceClassesPresent, a ragged shape with rhs on 3 nodes, and every
// tree. A lost by-pass forward, a doubled channel or a wider packet shows.
func TestVSAShapePinned(t *testing.T) {
	// {channels, messages, bytes}, one row per tree in the shape's
	// treeConfigs order, then the flat tree.
	want := map[string][][3]int64{
		"tall": {
			{289, 0, 0}, {231, 0, 0}, {231, 0, 0}, {231, 0, 0}, {231, 0, 0}, {213, 0, 0},
			{213, 0, 0}, {213, 0, 0}, {213, 0, 0}, {195, 0, 0}, {195, 0, 0}, {195, 0, 0},
			{195, 0, 0}, {183, 0, 0}, {183, 0, 0}, {183, 0, 0}, {183, 0, 0}, {177, 0, 0},
			{177, 0, 0}, {177, 0, 0}, {177, 0, 0}, {177, 0, 0},
		},
		"ragged": {
			{79, 0, 0}, {79, 0, 0}, {79, 0, 0}, {79, 0, 0}, {79, 0, 0}, {63, 0, 0},
			{63, 0, 0}, {63, 0, 0}, {63, 0, 0}, {57, 0, 0}, {57, 0, 0}, {57, 0, 0},
			{57, 0, 0}, {55, 0, 0}, {55, 0, 0}, {57, 0, 0}, {57, 0, 0}, {51, 0, 0},
			{51, 0, 0}, {51, 0, 0}, {51, 0, 0}, {51, 0, 0},
		},
		"ragged with rhs": {
			{189, 0, 0}, {189, 0, 0}, {189, 0, 0}, {189, 0, 0}, {189, 0, 0}, {153, 0, 0},
			{153, 0, 0}, {153, 0, 0}, {153, 0, 0}, {139, 0, 0}, {139, 0, 0}, {139, 0, 0},
			{139, 0, 0}, {133, 0, 0}, {133, 0, 0}, {139, 0, 0}, {139, 0, 0}, {125, 0, 0},
			{125, 0, 0}, {125, 0, 0}, {125, 0, 0}, {125, 0, 0},
		},
		"tall on 2 nodes": {
			{289, 13, 6773}, {231, 14, 7294}, {231, 22, 11462}, {231, 12, 6252},
			{231, 20, 10420}, {213, 9, 4689}, {213, 17, 8857}, {213, 10, 5210},
			{213, 18, 9378}, {195, 6, 3126}, {195, 10, 5210}, {195, 4, 2084},
			{195, 8, 4168}, {183, 6, 3126}, {183, 6, 3126}, {183, 4, 2084},
			{183, 4, 2084}, {177, 3, 1563}, {177, 3, 1563}, {177, 3, 1563},
			{177, 3, 1563}, {177, 3, 1563},
		},
		"ragged with rhs on 3 nodes": {
			{189, 26, 8706}, {189, 26, 8706}, {189, 40, 12992}, {189, 26, 8706},
			{189, 40, 12992}, {153, 29, 9637}, {153, 29, 9637}, {153, 20, 7108},
			{153, 20, 7108}, {139, 28, 10132}, {139, 28, 10132}, {139, 31, 11063},
			{139, 31, 11063}, {133, 25, 8241}, {133, 25, 8241}, {139, 31, 9839},
			{139, 31, 9839}, {125, 14, 5006}, {125, 14, 5006}, {125, 14, 5006},
			{125, 14, 5006}, {125, 14, 5006},
		},
	}
	rng := rand.New(rand.NewSource(10))
	for _, sh := range []struct {
		name      string
		m, n, rhs int
		nb, ib    int
		nodes     int
	}{
		{"tall", 160, 16, 0, 8, 4, 1},
		{"ragged", 45, 13, 0, 8, 3, 1},
		{"ragged with rhs", 45, 13, 11, 8, 3, 1},
		{"tall on 2 nodes", 160, 16, 0, 8, 4, 2},
		{"ragged with rhs on 3 nodes", 45, 13, 11, 8, 3, 3},
	} {
		mt := (sh.m + sh.nb - 1) / sh.nb
		configs := append(treeConfigs(sh.nb, sh.ib, mt), Options{NB: sh.nb, IB: sh.ib, Tree: FlatTree})
		if len(configs) != len(want[sh.name]) {
			t.Fatalf("%s: %d trees, %d pinned", sh.name, len(configs), len(want[sh.name]))
		}
		for idx, o := range configs {
			a := matrix.FromDense(matrix.NewRand(sh.m, sh.n, rng), sh.nb)
			var b *matrix.Tiled
			bnt := 0
			if sh.rhs > 0 {
				b = matrix.FromDense(matrix.NewRand(sh.m, sh.rhs, rng), sh.nb)
				bnt = b.NT
			}
			f, err := FactorizeVSA(a, b, o, RunConfig{Nodes: sh.nodes, Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			calls := 0
			List(a.MT, a.NT, bnt, f.Opts, func(c Call) {
				if c.Kernel != WriteBack {
					calls++
				}
			})
			st := f.Stats
			if got := [3]int64{int64(st.Channels), st.Messages, st.Bytes}; st.VDPs != calls || got != want[sh.name][idx] {
				t.Errorf("%s %v: %d VDPs, {channels, messages, bytes} %v; want %d VDPs, %v",
					sh.name, f.Opts, st.VDPs, got, calls, want[sh.name][idx])
			}
		}
	}
}

// TestVSAPlacesEveryCallByPlace holds the array's firings to the rule the
// simulator prices with: on TestVSAShapePinned's shapes under every tree, on
// 1 to 3 nodes of 1 to 3 threads, the VDP of each listed kernel call fires
// exactly once, on the node and thread Place gives the call, and no other
// VDP fires.
func TestVSAPlacesEveryCallByPlace(t *testing.T) {
	type at struct{ node, thread int }
	for _, sh := range []struct {
		name      string
		m, n, rhs int
		nb, ib    int
	}{
		{"tall", 160, 16, 0, 8, 4},
		{"ragged", 45, 13, 0, 8, 3},
		{"ragged with rhs", 45, 13, 11, 8, 3},
	} {
		mt := (sh.m + sh.nb - 1) / sh.nb
		for _, o := range append(treeConfigs(sh.nb, sh.ib, mt), Options{NB: sh.nb, IB: sh.ib, Tree: FlatTree}) {
			for nodes := 1; nodes <= 3; nodes++ {
				for threads := 1; threads <= 3; threads++ {
					var mu sync.Mutex
					fired := map[string][]at{}
					rc := RunConfig{Nodes: nodes, Threads: threads, FireHook: func(e pulsar.FireEvent) {
						mu.Lock()
						fired[e.Tuple.Key()] = append(fired[e.Tuple.Key()], at{e.Node, e.Thread})
						mu.Unlock()
					}}
					a := matrix.FromDense(matrix.NewSeeded(sh.m, sh.n, 1), sh.nb)
					var b *matrix.Tiled
					bnt := 0
					if sh.rhs > 0 {
						b = matrix.FromDense(matrix.NewSeeded(sh.m, sh.rhs, 2), sh.nb)
						bnt = b.NT
					}
					f, err := FactorizeVSA(a, b, o, rc)
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s %v on %d nodes of %d threads", sh.name, f.Opts, nodes, threads)
					calls := 0
					List(mt, a.NT, bnt, f.Opts, func(c Call) {
						if c.Kernel == WriteBack {
							return
						}
						calls++
						node, thread := Place(c, mt, nodes, threads)
						if got := fired[vdpTup(c).Key()]; len(got) != 1 || got[0] != (at{node, thread}) {
							t.Fatalf("%s: %v fired at %v, want once at {%d %d}", name, c, got, node, thread)
						}
					})
					if len(fired) != calls {
						t.Fatalf("%s: %d VDPs fired for %d calls", name, len(fired), calls)
					}
				}
			}
		}
	}
}

// TestVSAScratchCarvesTileExactly holds the views a run carves from its
// array's scratch — T factors, domain R packets, an R-only run's diagonal
// tiles and the landings of the packets other ranks send — to the slab the
// array makes: on TestVSAShapePinned's shapes under every tree, on 1 node
// and on each rank of 3, the views handed to the rank's VDPs, assembly and
// inbound channels have the shapes their kernels and packets take, are
// pairwise disjoint, lie inside the scratch and fill it exactly; a VDP
// another rank runs gets none, and a landing is carved only on the rank that
// receives it. Over the 3 ranks there is one landing per message a run of
// the array sends. The full-log run carves the same calls into a scratch of
// its own.
func TestVSAScratchCarvesTileExactly(t *testing.T) {
	for _, sh := range []struct {
		name      string
		m, n, rhs int
		nb, ib    int
	}{
		{"tall", 160, 16, 0, 8, 4},
		{"ragged", 45, 13, 0, 8, 3},
		{"ragged with rhs", 45, 13, 11, 8, 3},
	} {
		a := matrix.NewTiledShell(sh.m, sh.n, sh.nb)
		var b *matrix.Tiled
		if sh.rhs > 0 {
			b = matrix.NewTiledShell(sh.m, sh.rhs, sh.nb)
		}
		configs := append(treeConfigs(sh.nb, sh.ib, a.MT), Options{NB: sh.nb, IB: sh.ib, Tree: FlatTree})
		for _, o := range configs {
			for _, nodes := range []int{1, 3} {
				o := o.Resolve(a.MT, nodes*2)
				landed := 0
				for rank := 0; rank < nodes; rank++ {
					for _, rOnly := range []bool{true, false} {
						name := fmt.Sprintf("%s %v rank %d of %d rOnly=%v", sh.name, o, rank, nodes, rOnly)
						here, env := rank, Env{}
						if nodes == 1 {
							here = -1 // as FactorizeVSAIn runs a lone node
						}
						if rOnly {
							env.Part = NewSketch(sh.n, 1)
						}
						bd := newBuilder(a, b, o, RunConfig{Nodes: nodes, Threads: 2}, env, nil, here)
						if n := checkCarves(t, name, bd, bd.scratch, rank); rOnly {
							landed += n
						}
					}
				}
				run := matrix.FromDense(matrix.NewSeeded(sh.m, sh.n, 1), sh.nb)
				var rb *matrix.Tiled
				if b != nil {
					rb = matrix.FromDense(matrix.NewSeeded(sh.m, sh.rhs, 2), sh.nb)
				}
				f, err := FactorizeVSA(run, rb, o, RunConfig{Nodes: nodes, Threads: 2})
				if err != nil {
					t.Fatal(err)
				}
				if int64(landed) != f.Stats.Messages {
					t.Errorf("%s %v on %d nodes: %d landings for the %d messages a run sends", sh.name, o, nodes, landed, f.Stats.Messages)
				}
			}
		}
	}
}

// checkCarves checks the views bd handed to node rank's VDPs, to its
// assembly and to its inbound channels against scratch: each of its kernel's
// or packet's shape, and together a partition of scratch. Each view is
// marked with its own number; a mark that finds another means two views
// share storage, and the marks found in scratch must number the views'
// elements. It returns the number of landings carved on rank.
func checkCarves(t *testing.T, name string, bd *builder, scratch []float64, rank int) (landings int) {
	t.Helper()
	type view struct {
		m          *matrix.Mat
		rows, cols int
		what       string
	}
	var views []view
	ib, place := bd.opts.IB, bd.mapping()
	for _, v := range bd.s.VDPs() {
		var got []*matrix.Mat
		var want []view
		l := v.Local().(*callLocal)
		n := bd.a.TileCols(l.c.J)
		switch l.c.Kernel {
		case Geqrt:
			got = []*matrix.Mat{l.t, l.r}
			k := min(bd.a.TileRows(l.c.I), n)
			want = []view{{l.t, min(ib, k), k, "geqrt T"}, {l.r, k, n, "domain R"}}
		case Tsqrt:
			got = []*matrix.Mat{l.t, l.r}
			want = []view{{l.t, min(ib, n), n, "tsqrt T"}}
		case Ttqrt:
			got = []*matrix.Mat{l.t}
			want = []view{{l.t, min(ib, n), n, "ttqrt T"}}
		default:
			continue
		}
		if node, _ := place(v.Tuple()); node != rank {
			for _, m := range got {
				if m != nil {
					t.Fatalf("%s: VDP %v runs on node %d and got a view", name, v.Tuple(), node)
				}
			}
			continue
		}
		views = append(views, want...)
	}
	width := func(l int) int {
		if l < bd.a.NT {
			return bd.a.TileCols(l)
		}
		return bd.b.TileCols(l - bd.a.NT)
	}
	// The landings, walked off the listing as build wires it: a datum whose
	// last holder runs on another node than its next user lands at the
	// user's port, on the user's node only.
	vdps := map[string]*pulsar.VDP{}
	for _, v := range bd.s.VDPs() {
		vdps[v.Tuple().Key()] = v
	}
	held := map[Datum]int{} // the node of each datum's last holder
	List(bd.a.MT, bd.a.NT, bd.bnt, bd.opts, func(c Call) {
		if c.Kernel == WriteBack {
			return
		}
		tup := vdpTup(c)
		to, _ := place(tup)
		n := 0
		c.Access(func(d Datum, write bool) {
			p := vdpKinds[c.Kernel].ports[n]
			n++
			from, ok := held[d]
			held[d] = to
			if !ok {
				return
			}
			l := vdps[tup.Key()].Landing(p.in)
			switch {
			case from == to && l != nil:
				t.Fatalf("%s: %v lands at %v on rank %d, which sent it", name, d, tup, to)
			case to != rank && l != nil:
				t.Fatalf("%s: %v lands at %v on rank %d, carved on rank %d", name, d, tup, to, rank)
			case from == to || to != rank:
				return
			}
			landings++
			rows, cols := bd.a.TileRows(d.I), width(d.L)
			if d.R {
				rows = min(rows, cols)
			}
			switch v := l.(type) {
			case *matrix.Mat:
				if !write {
					t.Fatalf("%s: the landing of %v, which %v only reads, is a tile", name, d, c.Kernel)
				}
				views = append(views, view{v, rows, cols, "landing"})
			case *vtMsg:
				if write {
					t.Fatalf("%s: the landing of %v, which %v writes, is a (V,T) packet", name, d, c.Kernel)
				}
				tr := min(ib, cols) // a Tsqrt's or Ttqrt's T
				tc := cols
				if c.Kernel == Ormqr { // a Geqrt's
					tc = min(rows, cols)
					tr = min(ib, tc)
				}
				views = append(views, view{v.V, rows, cols, "landing V"}, view{v.T, tr, tc, "landing T"})
			default:
				t.Fatalf("%s: %v from rank %d has no landing at %v on rank %d, only %v", name, d, from, tup, to, l)
			}
		})
	})
	for j, d := range bd.diag {
		if bd.rOnly && bd.here <= 0 {
			views = append(views, view{d, bd.a.TileRows(j), bd.a.TileCols(j), "diagonal tile"})
		} else if d != nil {
			t.Fatalf("%s: panel %d's diagonal tile carved on a node that does not assemble", name, j)
		}
	}
	if !bd.rOnly && len(bd.diag) != 0 {
		t.Fatalf("%s: a full-log run carved %d diagonal tiles", name, len(bd.diag))
	}
	sum := 0
	for k, v := range views {
		if v.m == nil {
			t.Fatalf("%s: %s view %d was not carved", name, v.what, k)
		}
		if v.m.Rows != v.rows || v.m.Cols != v.cols {
			t.Fatalf("%s: %s view %d is %dx%d, want %dx%d", name, v.what, k, v.m.Rows, v.m.Cols, v.rows, v.cols)
		}
		sum += v.rows * v.cols
		for jj := 0; jj < v.cols; jj++ {
			for ii := 0; ii < v.rows; ii++ {
				if prev := v.m.At(ii, jj); prev != 0 {
					t.Fatalf("%s: %s view %d shares storage with view %g", name, v.what, k, prev-1)
				}
				v.m.Set(ii, jj, float64(k+1))
			}
		}
	}
	marked := 0
	for _, x := range scratch {
		if x != 0 {
			marked++
		}
	}
	if sum != len(scratch) || marked != sum {
		t.Fatalf("%s: %d views of %d elements, %d of them inside a scratch of %d", name, len(views), sum, marked, len(scratch))
	}
	return landings
}
