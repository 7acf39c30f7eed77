package qr

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/pulsar"
	"pulsarqr/internal/transport"
	"pulsarqr/internal/tuple"
	"pulsarqr/internal/wire"
)

// The 3D Virtual Systolic Array (paper §V-C, Fig. 8). One VDP exists per
// (panel step, tile row[, trailing column]) — the three nested loops of the
// algorithm map directly onto the three dimensions of the array:
//
//   - panel VDPs (red): dgeqrt at each domain top, dtsqrt below it; the
//     evolving domain R travels down the flat-tree chain as a packet;
//   - update VDPs (orange): dormqr/dtsmqr on the trailing columns; the
//     domain-top row tile of each column travels down the same chain
//     shape, and (V,T) packets broadcast along each row through a by-pass
//     chain — every VDP forwards the transformation before applying it,
//     overlapping communication with computation;
//   - binary-tree VDPs (blue): dttqrt merges domain Rs pairwise, dttmqr
//     updates the paired row tiles; the eliminated side's tiles are
//     released to the next panel, which may start as soon as they arrive
//     (the shifted-boundary pipelining of Fig. 6/7).
//
// Tiles released by panel j flow directly to their VDP in panel j+1, and
// tiles that reach their final state (the R row of the surviving top, the
// QᵀB blocks) flow to collector channels for assembly by the driver.

// VDP kinds, the first component of every tuple.
const (
	kindPanel       = 0 // (0, j, i, -1, -1)
	kindUpdate      = 1 // (1, j, i, l, -1)
	kindMerge       = 2 // (2, j, surv, k, -1)
	kindMergeUpdate = 3 // (3, j, surv, k, l)
)

// Trace classes, matching the colors of the paper's Fig. 7/8.
const (
	ClassPanel        = "panel"         // red: dgeqrt/dtsqrt
	ClassUpdate       = "update"        // orange: dormqr/dtsmqr
	ClassBinary       = "binary"        // blue: dttqrt
	ClassBinaryUpdate = "binary-update" // blue: dttmqr
)

// RunConfig parameterizes the runtime execution of the array.
type RunConfig struct {
	// Nodes is the number of simulated distributed-memory nodes; a mesh
	// (Env.Endpoint) overrides it with its size.
	Nodes int
	// Threads is the number of worker threads per node; a caller's pool
	// (Env.Pool) overrides it with its size.
	Threads int
	// Scheduling selects the lazy or aggressive worker scheme.
	Scheduling pulsar.Scheduling
	// FireHook receives one event per VDP firing (tracing); may be nil.
	FireHook func(pulsar.FireEvent)
	// WaitHook receives worker channel-wait intervals (tracing); may be
	// nil. Ignored on a caller's pool (Env.Pool) — install Pool.OnWait there.
	WaitHook func(pulsar.WaitEvent)
	// CommHook receives proxy send/recv and barrier events (tracing); may
	// be nil.
	CommHook func(pulsar.CommEvent)
	// DeadlockTimeout is passed through to the runtime; zero = default.
	DeadlockTimeout time.Duration
}

func (rc RunConfig) normalize() RunConfig {
	if rc.Nodes <= 0 {
		rc.Nodes = 1
	}
	if rc.Threads <= 0 {
		rc.Threads = 1
	}
	return rc
}

// vtMsg carries a Householder transformation along a row: the reflector
// tile V (read-only once published) and its block factor T.
type vtMsg struct {
	V, T *matrix.Mat
}

// collectMsg carries a completed transformation to the driver: the kernel
// kind, its coordinates, the reflector tile and the T factor.
type collectMsg struct {
	Kind    Kernel
	J, I, K int
	Tile, T *matrix.Mat
}

func init() {
	// Inter-node codec for vtMsg packets: [lenV u32][V][T].
	pulsar.RegisterCodec(pulsar.Codec{
		ID: 16,
		EncodeAppend: func(dst []byte, v any) ([]byte, bool) {
			m, ok := v.(*vtMsg)
			if !ok {
				return dst, false
			}
			return appendTwoMats(dst, nil, m.V, m.T), true
		},
		Decode: func(b []byte) (any, error) {
			v, t, err := consumeTwoMats(b)
			if err != nil {
				return nil, fmt.Errorf("qr: vt packet: %w", err)
			}
			return &vtMsg{V: v, T: t}, nil
		},
	})
}

// appendTwoMats appends hdr and then [len(a) u32][a][b], the tail vtMsg and
// collectMsg packets share, each matrix in wire's dims-prefixed form. dst
// grows once, to the exact size: a packet costs its destination buffer and
// nothing else.
func appendTwoMats(dst, hdr []byte, a, b *matrix.Mat) []byte {
	la := 8 + 8*a.Rows*a.Cols
	dst = append(slices.Grow(dst, len(hdr)+4+la+8+8*b.Rows*b.Cols), hdr...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(la))
	return pulsar.AppendMat(pulsar.AppendMat(dst, a), b)
}

// consumeTwoMats decodes what appendTwoMats wrote after hdr: two matrices
// that fill p exactly, the first as long as its length prefix declares.
func consumeTwoMats(p []byte) (a, b *matrix.Mat, err error) {
	if len(p) < 4 {
		return nil, nil, fmt.Errorf("%d bytes where two matrices belong", len(p))
	}
	a, rest, err := wire.ConsumeDimMat(p[4:])
	if err != nil {
		return nil, nil, err
	}
	if la, want := len(p)-4-len(rest), int(binary.LittleEndian.Uint32(p)); la != want {
		return nil, nil, fmt.Errorf("first matrix is %d bytes, its prefix declares %d", la, want)
	}
	b, err = pulsar.DecodeMat(rest)
	return a, b, err
}

// builder accumulates the array for one factorization.
type builder struct {
	a, b    *matrix.Tiled
	opts    Options
	rc      RunConfig
	s       *pulsar.VSA
	plans   []PanelPlan
	bnt     int // rhs tile columns
	nbBytes int // channel capacity: one tile and its packet header
	// outputs lists the array's external output channels in the order they
	// were declared — the one enumeration gather and assemble read.
	outputs []output
	// rOnly gathers and assembles what a service serves — R and QᵀB — and
	// leaves the per-transformation log on the ranks that produced it.
	rOnly bool
}

// endpoint identifies a producer (VDP tuple + output slot) while wiring.
type endpoint struct {
	tup  tuple.Tuple
	slot int
}

// output is one collector channel (paper §V-C), declared where it is wired:
// the producer whose single packet it holds after the run, whether that
// packet is an entry of the transformation log, and place, which says what
// the packet is by storing it in the factorization.
type output struct {
	from  endpoint
	log   bool
	place func(f *Factorization, p *pulsar.Packet)
}

// output creates the external output channel at from and records what
// assemble is to do with its packet. The list is a pure function of the
// array, so every rank of a mesh numbers the outputs alike.
func (bd *builder) output(from endpoint, log bool, place func(*Factorization, *pulsar.Packet)) {
	bd.s.Output(from.tup, from.slot, bd.nbBytes)
	bd.outputs = append(bd.outputs, output{from, log, place})
}

// tileOutput declares from's packet to be the finished tile (i, l): of R
// when l is a matrix column, of QᵀB when it is an rhs one.
func (bd *builder) tileOutput(from endpoint, i, l int) {
	bd.output(from, false, func(f *Factorization, p *pulsar.Packet) {
		if l < bd.a.NT {
			f.A.SetTile(i, l, p.Tile())
		} else {
			f.QTB.SetTile(i, l-bd.a.NT, p.Tile())
		}
	})
}

// panelLocal is the build-time configuration stored in a panel VDP.
type panelLocal struct {
	j, i, n, ib int
	top         bool // dgeqrt (domain top) vs dtsqrt
	hasVT       bool // a trailing/rhs column exists
}

// updateLocal configures an update or merge-update VDP.
type updateLocal struct {
	ib    int
	top   bool // dormqr vs dtsmqr
	fwdVT bool // forward the (V,T) packet to the next column first
}

// mergeLocal configures a merge VDP.
type mergeLocal struct {
	j, surv, k, n, ib int
	hasVT             bool
}

// FactorizeVSA computes the same factorization as Factorize by building
// and running the 3D virtual systolic array on the PULSAR runtime, every one
// of rc.Nodes nodes inside this process. The tiles of a (and b) are
// consumed: they are injected into the array, transformed in place where
// locality permits, and reassembled into the returned factorization.
func FactorizeVSA(a *matrix.Tiled, b *matrix.Tiled, opts Options, rc RunConfig) (*Factorization, error) {
	return FactorizeVSAIn(context.Background(), a, b, opts, rc, Env{})
}

// Env is what a factorization finds in place and leaves behind: the mesh it
// is one rank of, the worker threads it borrows, and the rank's share of the
// input check. The zero Env is FactorizeVSA — all nodes in this process, on
// workers the call starts and joins itself, returning the full
// transformation log.
type Env struct {
	// Endpoint is this rank's attachment to the process mesh — a TCP
	// endpoint, or a transport.JobEndpoint multiplexed over a fleet's
	// persistent connections. It fixes the node count at its size; nil, or a
	// mesh of one, runs the whole array here with nothing exchanged.
	Endpoint transport.Endpoint
	// Pool, when non-nil, is the caller's persistent worker pool (with its
	// warm kernel workspaces); the rank then runs as many threads as the pool
	// has. Placement depends only on the node count, so the ranks of a mesh
	// may run pools of different sizes.
	Pool *pulsar.Pool
	// Part selects what the caller gets back. Nil: the full transformation
	// log. Non-nil: what a service serves — an R-only factorization (R, plus
	// QᵀB when b != nil; the reflectors stay where they were produced and
	// never cross the network). Part must then be the sketch of the tile
	// rows of a this rank owns, under the probe every rank of the mesh
	// shares, taken by the caller beforehand because the run consumes the
	// tiles; the gather sums every rank's into the result's Input, so
	// Input.Residual(f.R()) checks R against an input no rank holds whole.
	Part *Sketch
}

// FactorizeVSAIn runs one factorization inside an existing runtime
// environment. ctx cancels it: the run aborts promptly, in-flight kernels
// drain, and the error wraps context.Cause.
//
// Across a mesh the call is collective: every rank calls it with the same
// (opts, shapes), a and b holding at least the tile rows the rank owns
// (OwnedTileRows; the other rows' tiles may be nil). Each rank builds the
// same array and executes only the VDPs it owns; collector output is
// gathered to rank 0, which assembles and returns the factorization, and the
// other ranks return (nil, nil). A closing barrier means that when the call
// returns on any rank the whole mesh has finished.
//
// Cancellation must be collective too (a service broadcasts it, a launcher
// signals the process group): a rank that finishes normally while another
// aborts can otherwise wait in the final barrier until its endpoint is
// closed.
func FactorizeVSAIn(ctx context.Context, a *matrix.Tiled, b *matrix.Tiled, opts Options, rc RunConfig, env Env) (*Factorization, error) {
	rc = rc.normalize()
	ep, local := env.Endpoint, -1 // local: the one node that runs here, or -1 for all of them
	if ep != nil {
		rc.Nodes = ep.Size()
		if rc.Nodes == 1 {
			ep = nil
		} else {
			local = ep.Rank()
		}
	}
	// The requested threads, not a pool's: ranks of one mesh may run pools
	// of different sizes and must still derive one h.
	opts = opts.Resolve(a.MT, rc.Nodes*rc.Threads)
	if env.Pool != nil {
		rc.Threads = env.Pool.Threads()
	}
	if err := checkShapes(a, b, opts); err != nil {
		return nil, err
	}

	bd := &builder{a: a, b: b, opts: opts, rc: rc, nbBytes: 8*opts.NB*opts.NB + 64, rOnly: env.Part != nil}
	if b != nil {
		bd.bnt = b.NT
	}
	for j := 0; j < a.NT && j < a.MT; j++ {
		bd.plans = append(bd.plans, planPanel(j, a.MT, opts))
	}
	bd.s = pulsar.New(pulsar.Config{
		Nodes:           rc.Nodes,
		ThreadsPerNode:  rc.Threads,
		Scheduling:      rc.Scheduling,
		Map:             bd.mapping(),
		FireHook:        rc.FireHook,
		WaitHook:        rc.WaitHook,
		CommHook:        rc.CommHook,
		DeadlockTimeout: rc.DeadlockTimeout,
		Comm:            ep,
		Pool:            env.Pool,
		// One kernel workspace per worker thread: every VDP that fires on a
		// thread reuses that thread's scratch instead of allocating per fire.
		// (A caller's pool brings its own.)
		WorkerState: func(node, thread int) any { return kernels.NewWorkspace() },
	})
	bd.build()
	bd.inject(local)
	if err := runCtx(ctx, bd.s); err != nil {
		return nil, err
	}
	if ep != nil {
		if err := bd.gather(ctx, ep, env.Part); err != nil {
			return nil, err
		}
		defer ep.Barrier()
		if local != 0 {
			return nil, nil
		}
	}
	f, err := bd.assemble()
	if err != nil {
		return nil, err
	}
	f.Input = env.Part
	msgs, bytes := bd.s.NetworkStats()
	f.Stats = RunStats{
		Firings: bd.s.Fired(), Messages: msgs, Bytes: bytes,
		VDPs: bd.s.VDPCount(), Channels: bd.s.ChannelCount(),
	}
	return f, nil
}

// Tuple constructors for the four VDP kinds.
func panelTup(j, i int) tuple.Tuple          { return tuple.Tuple{kindPanel, j, i, -1, -1} }
func updateTup(j, i, l int) tuple.Tuple      { return tuple.Tuple{kindUpdate, j, i, l, -1} }
func mergeTup(j, s, k int) tuple.Tuple       { return tuple.Tuple{kindMerge, j, s, k, -1} }
func mergeUpdTup(j, s, k, l int) tuple.Tuple { return tuple.Tuple{kindMergeUpdate, j, s, k, l} }

// cols returns the global trailing column indices of panel j: matrix
// columns j+1..nt-1 followed by the rhs tile columns nt..nt+bnt-1.
func (bd *builder) cols(j int) []int {
	var out []int
	for l := j + 1; l < bd.a.NT; l++ {
		out = append(out, l)
	}
	for r := 0; r < bd.bnt; r++ {
		out = append(out, bd.a.NT+r)
	}
	return out
}

// colTile resolves a global column index to the tile at row i.
func (bd *builder) colTile(i, l int) *matrix.Mat {
	if l < bd.a.NT {
		return bd.a.Tile(i, l)
	}
	return bd.b.Tile(i, l-bd.a.NT)
}

// Row ownership. The VDP→node map (paper §V-C, pulsar.PlaceTile) hands tile
// rows to nodes in contiguous blocks of ⌈mt/nodes⌉. Every VDP of tile row i
// — and so every kernel that ever touches a tile of that row — lives on
// TileRowOwner(i): a rank needs the input tiles of the rows it owns and no
// others. mapping(), the service's input builder and the distributed check
// all take ownership from that one rule.

// TileRowOwner returns the node that owns tile row `row` of mt.
func TileRowOwner(mt, nodes, row int) int { return row / pulsar.RowsPerNode(mt, nodes) }

// OwnedTileRows returns the half-open range [lo, hi) of the mt tile rows
// that node owns; the trailing nodes own nothing when mt is short.
func OwnedTileRows(mt, nodes, node int) (lo, hi int) {
	per := pulsar.RowsPerNode(mt, nodes)
	lo = min(node*per, mt)
	return lo, min(lo+per, mt)
}

// mapping places VDPs by pulsar.PlaceTile — contiguous blocks of tile rows
// per node, threads cyclic by (row, column) — and, following the paper, a
// binary-tree parent with its first (surviving) child. Flat-tree domains
// stay node-local under the fixed boundary only: shifted domains start at
// row j, not at an ownership boundary, so one can straddle two nodes and its
// tsqrt chain then crosses the wire.
func (bd *builder) mapping() pulsar.Mapping {
	mt := bd.a.MT
	nodes, threads := bd.rc.Nodes, bd.rc.Threads
	place := func(row, col int) (int, int) {
		return pulsar.PlaceTile(mt, nodes, threads, row, col)
	}
	return func(t tuple.Tuple) (int, int) {
		switch t.At(0) {
		case kindPanel:
			return place(t.At(2), t.At(1))
		case kindUpdate:
			return place(t.At(2), t.At(3))
		case kindMerge:
			return place(t.At(2), t.At(1)) // survivor's row
		default: // kindMergeUpdate
			return place(t.At(2), t.At(4))
		}
	}
}

// build creates every VDP and channel of the array.
func (bd *builder) build() {
	nbBytes := bd.nbBytes

	// Pass 1: create every VDP of every panel, so that cross-panel release
	// channels always find their destination.
	for _, plan := range bd.plans {
		j := plan.J
		n := bd.a.TileCols(j)
		cols := bd.cols(j)
		for _, d := range plan.Domains {
			bd.newPanelVDP(plan, d.Top, true, n, len(cols) > 0)
			for _, k := range d.Rows {
				bd.newPanelVDP(plan, k, false, n, len(cols) > 0)
			}
			for ci, l := range cols {
				bd.newUpdateVDP(j, d.Top, l, true, ci+1 < len(cols))
				for _, k := range d.Rows {
					bd.newUpdateVDP(j, k, l, false, ci+1 < len(cols))
				}
			}
		}
		for _, m := range plan.Merges {
			bd.newMergeVDP(plan, m, n, len(cols) > 0)
			for ci, l := range cols {
				bd.newMergeUpdVDP(j, m, l, ci+1 < len(cols))
			}
		}
	}

	// Pass 2: wire all channels.
	for _, plan := range bd.plans {
		j := plan.J
		cols := bd.cols(j)

		// --- (V,T) by-pass chains along each row ----------------------
		for _, d := range plan.Domains {
			rows := append([]int{d.Top}, d.Rows...)
			for _, i := range rows {
				prev := endpoint{panelTup(j, i), 1}
				for _, l := range cols {
					cur := updateTup(j, i, l)
					bd.s.Connect(prev.tup, prev.slot, cur, 1, nbBytes*2, false)
					prev = endpoint{cur, 0}
				}
			}
		}
		for _, m := range plan.Merges {
			prev := endpoint{mergeTup(j, m.Surv, m.K), 1}
			for _, l := range cols {
				cur := mergeUpdTup(j, m.Surv, m.K, l)
				bd.s.Connect(prev.tup, prev.slot, cur, 2, nbBytes*2, false)
				prev = endpoint{cur, 0}
			}
		}

		// --- per-transformation collectors, in plan order --------------
		// Declared before the panel's streams: a reflector tile is placed
		// before the final R is written over it.
		for _, d := range plan.Domains {
			for _, i := range append([]int{d.Top}, d.Rows...) {
				bd.output(endpoint{panelTup(j, i), 2}, true, func(f *Factorization, p *pulsar.Packet) {
					// dgeqrt of the top (K = -1) or dtsqrt of row K = i.
					cm := p.Data.(*collectMsg)
					f.A.SetTile(i, j, cm.Tile)
					f.Ops = append(f.Ops, Op{Kind: cm.Kind, J: j, I: d.Top, K: cm.K, T: cm.T})
				})
			}
		}
		for _, m := range plan.Merges {
			bd.output(endpoint{mergeTup(j, m.Surv, m.K), 2}, true, func(f *Factorization, p *pulsar.Packet) {
				cm := p.Data.(*collectMsg)
				f.Ops = append(f.Ops, Op{Kind: OpTtqrt, J: j, I: m.Surv, K: m.K, T: cm.T, V2: cm.Tile})
			})
		}

		// --- R chain (panel column) ------------------------------------
		bd.wireStreams(plan, -1)
		// --- top-tile chains (each trailing column) --------------------
		for _, l := range cols {
			bd.wireStreams(plan, l)
		}
	}
}

// wireStreams wires the flat-tree chains and the binary tree for one
// column of panel plan. l == -1 selects the R chain through the panel and
// merge VDPs; l >= 0 selects the top-tile chain through the update and
// merge-update VDPs of global column l. The chain topology is identical —
// that structural sharing is the heart of the 3D array.
func (bd *builder) wireStreams(plan PanelPlan, l int) {
	j, nbBytes := plan.J, bd.nbBytes
	isR := l < 0

	// Producer endpoint of each stage.
	headOf := func(i int) endpoint {
		if isR {
			return endpoint{panelTup(j, i), 0}
		}
		return endpoint{updateTup(j, i, l), 1}
	}
	chainIn := func(i int) (tuple.Tuple, int) {
		if isR {
			return panelTup(j, i), 1
		}
		return updateTup(j, i, l), 2
	}
	mergeOf := func(m Merge) (tuple.Tuple, int, int, int) {
		// tuple, in-slot for survivor stream, in-slot for eliminated
		// stream, out-slot of the surviving stream
		if isR {
			return mergeTup(j, m.Surv, m.K), 0, 1, 0
		}
		return mergeUpdTup(j, m.Surv, m.K, l), 0, 1, 1
	}

	streamEnd := map[int]endpoint{}
	for _, d := range plan.Domains {
		prod := headOf(d.Top)
		for _, k := range d.Rows {
			dst, slot := chainIn(k)
			bd.s.Connect(prod.tup, prod.slot, dst, slot, nbBytes, false)
			prod = headOf(k)
		}
		streamEnd[d.Top] = prod
	}
	for _, m := range plan.Merges {
		mtup, sIn, kIn, sOut := mergeOf(m)
		es, ek := streamEnd[m.Surv], streamEnd[m.K]
		bd.s.Connect(es.tup, es.slot, mtup, sIn, nbBytes, false)
		bd.s.Connect(ek.tup, ek.slot, mtup, kIn, nbBytes, false)
		streamEnd[m.Surv] = endpoint{mtup, sOut}
		// The eliminated side's tile is released to the next panel from
		// the merge VDP itself (the tile stream case); the R case keeps
		// V2 in the collector instead.
		if !isR {
			bd.connectRelease(j, m.K, l, endpoint{mtup, 2})
		}
	}
	// The surviving stream (row j) finalizes: its packet is the final tile
	// R(j, l) / (QᵀB)(j, ·), or (isR) the panel's final R, which goes over the
	// upper triangle of the diagonal tile — over the reflectors the log
	// placed there, or into a fresh tile when an R-only run collected none.
	if isR {
		bd.output(streamEnd[j], false, func(f *Factorization, p *pulsar.Packet) {
			if bd.rOnly {
				f.A.SetTile(j, j, matrix.New(bd.a.TileRows(j), bd.a.TileCols(j)))
			}
			writeR(f.A.Tile(j, j), p.Tile(), bd.a.TileCols(j))
		})
	} else {
		bd.tileOutput(streamEnd[j], j, l)
		// Non-top rows release their own tile to the next panel.
		for _, d := range plan.Domains {
			for _, k := range d.Rows {
				bd.connectRelease(j, k, l, endpoint{updateTup(j, k, l), 3})
			}
		}
	}
}

// connectRelease wires the hand-off of tile (i, l) from panel j to its VDP
// in panel j+1, or to a collector when panel j is the tile's last.
func (bd *builder) connectRelease(j, i, l int, from endpoint) {
	lastPanel := len(bd.plans) - 1
	switch {
	case j == lastPanel:
		// No further panels: rhs tiles (and nothing else — matrix columns
		// l > lastPanel cannot exist) finalize here, as (QᵀB)(i, ·).
		bd.tileOutput(from, i, l)
	case l == j+1:
		bd.s.Connect(from.tup, from.slot, panelTup(j+1, i), 0, bd.nbBytes, false)
	default:
		bd.s.Connect(from.tup, from.slot, updateTup(j+1, i, l), 0, bd.nbBytes, false)
	}
}

// --- VDP constructors -------------------------------------------------

func (bd *builder) newPanelVDP(plan PanelPlan, i int, top bool, n int, hasVT bool) {
	j := plan.J
	cfg := &panelLocal{j: j, i: i, n: n, ib: bd.opts.IB, top: top, hasVT: hasVT}
	nin := 2 // 0: tile, 1: incoming R (unused for tops)
	v := bd.s.NewVDP(panelTup(j, i), 1, panelFn, ClassPanel, nin, 3)
	v.SetLocal(cfg)
	if j == 0 {
		// Panel-0 tiles are injected from outside; later panels receive
		// their tile through the release channel from panel j-1.
		bd.s.Input(panelTup(j, i), 0, bd.nbBytes)
	}
}

func (bd *builder) newUpdateVDP(j, i, l int, top bool, fwdVT bool) {
	cfg := &updateLocal{ib: bd.opts.IB, top: top, fwdVT: fwdVT}
	// in: 0 tile, 1 VT, 2 top-tile (non-top only)
	// out: 0 VT fwd, 1 top-tile stream, 2 (unused), 3 release (non-top)
	v := bd.s.NewVDP(updateTup(j, i, l), 1, updateFn, ClassUpdate, 3, 4)
	v.SetLocal(cfg)
	if j == 0 {
		bd.s.Input(updateTup(j, i, l), 0, bd.nbBytes)
	}
}

func (bd *builder) newMergeVDP(plan PanelPlan, m Merge, n int, hasVT bool) {
	j := plan.J
	cfg := &mergeLocal{j: j, surv: m.Surv, k: m.K, n: n, ib: bd.opts.IB, hasVT: hasVT}
	v := bd.s.NewVDP(mergeTup(j, m.Surv, m.K), 1, mergeFn, ClassBinary, 2, 3)
	v.SetLocal(cfg)
}

func (bd *builder) newMergeUpdVDP(j int, m Merge, l int, fwdVT bool) {
	cfg := &updateLocal{ib: bd.opts.IB, fwdVT: fwdVT}
	// in: 0 B1 (survivor tile), 1 B2 (eliminated tile), 2 VT
	// out: 0 VT fwd, 1 B1 stream, 2 B2 release
	v := bd.s.NewVDP(mergeUpdTup(j, m.Surv, m.K, l), 1, mergeUpdFn, ClassBinaryUpdate, 3, 3)
	v.SetLocal(cfg)
}

// --- VDP bodies ---------------------------------------------------------

// extractR copies the upper trapezoid of a factored tile into a fresh
// k×n matrix that will travel down the reduction chains.
func extractR(tile *matrix.Mat, n int) *matrix.Mat {
	k := min(tile.Rows, n)
	r := matrix.New(k, n)
	for jj := 0; jj < n; jj++ {
		for ii := 0; ii <= jj && ii < k; ii++ {
			r.Set(ii, jj, tile.At(ii, jj))
		}
	}
	return r
}

// writeR writes r, a panel's final R, over the upper triangle of the n
// columns of the diagonal tile; the Householder vectors below it stay.
func writeR(diag, r *matrix.Mat, n int) {
	for jj := 0; jj < n; jj++ {
		for ii := 0; ii <= jj && ii < r.Rows; ii++ {
			diag.Set(ii, jj, r.At(ii, jj))
		}
	}
}

// wsOf returns the firing worker's kernel workspace; nil (letting the
// kernels fall back to their pool) if the runtime has none configured.
func wsOf(v *pulsar.VDP) *kernels.Workspace {
	ws, _ := v.WorkerState().(*kernels.Workspace)
	return ws
}

func panelFn(v *pulsar.VDP) {
	cfg := v.Local().(*panelLocal)
	tile := v.Pop(0).Tile()
	if cfg.top {
		k := min(tile.Rows, cfg.n)
		tg := matrix.New(min(cfg.ib, k), k)
		kernels.DgeqrtWS(wsOf(v), cfg.ib, tile, tg)
		if cfg.hasVT {
			v.Push(1, pulsar.NewPacket(&vtMsg{V: tile, T: tg}))
		}
		v.Push(0, pulsar.NewPacket(extractR(tile, cfg.n)))
		v.Push(2, pulsar.NewPacket(&collectMsg{Kind: OpGeqrt, J: cfg.j, I: cfg.i, K: -1, Tile: tile, T: tg}))
		return
	}
	r := v.Pop(1).Tile()
	tt := matrix.New(min(cfg.ib, cfg.n), cfg.n)
	kernels.DtsqrtWS(wsOf(v), cfg.ib, r, tile, tt)
	if cfg.hasVT {
		v.Push(1, pulsar.NewPacket(&vtMsg{V: tile, T: tt}))
	}
	v.Push(0, pulsar.NewPacket(r))
	v.Push(2, pulsar.NewPacket(&collectMsg{Kind: OpTsqrt, J: cfg.j, I: -1, K: cfg.i, Tile: tile, T: tt}))
}

func updateFn(v *pulsar.VDP) {
	cfg := v.Local().(*updateLocal)
	vtp := v.Pop(1)
	if cfg.fwdVT {
		// By-pass: forward the transformation before applying it, so the
		// communication overlaps with the local kernel (paper §V-C).
		v.Push(0, vtp)
	}
	msg := vtp.Data.(*vtMsg)
	tile := v.Pop(0).Tile()
	if cfg.top {
		kernels.DormqrWS(wsOf(v), true, cfg.ib, msg.V, msg.T, tile)
		v.Push(1, pulsar.NewPacket(tile))
		return
	}
	topTile := v.Pop(2).Tile()
	kernels.DtsmqrWS(wsOf(v), true, cfg.ib, msg.V, msg.T, topTile, tile)
	v.Push(1, pulsar.NewPacket(topTile))
	v.Push(3, pulsar.NewPacket(tile))
}

func mergeFn(v *pulsar.VDP) {
	cfg := v.Local().(*mergeLocal)
	rs := v.Pop(0).Tile()
	rk := v.Pop(1).Tile()
	tt := matrix.New(min(cfg.ib, cfg.n), cfg.n)
	kernels.DttqrtWS(wsOf(v), cfg.ib, rs, rk, tt)
	if cfg.hasVT {
		v.Push(1, pulsar.NewPacket(&vtMsg{V: rk, T: tt}))
	}
	v.Push(0, pulsar.NewPacket(rs))
	v.Push(2, pulsar.NewPacket(&collectMsg{Kind: OpTtqrt, J: cfg.j, I: cfg.surv, K: cfg.k, Tile: rk, T: tt}))
}

func mergeUpdFn(v *pulsar.VDP) {
	cfg := v.Local().(*updateLocal)
	vtp := v.Pop(2)
	if cfg.fwdVT {
		v.Push(0, vtp)
	}
	msg := vtp.Data.(*vtMsg)
	b1 := v.Pop(0).Tile()
	b2 := v.Pop(1).Tile()
	kernels.DttmqrWS(wsOf(v), true, cfg.ib, msg.V, msg.T, b1, b2)
	v.Push(1, pulsar.NewPacket(b1))
	v.Push(2, pulsar.NewPacket(b2))
}

// --- injection and assembly ---------------------------------------------

// inject seeds the array with the matrix (and rhs) tiles of the rows node
// local owns — of every row when local is negative, the whole array running
// here. Column 0 tiles enter their panel VDPs, every other tile enters its
// panel-0 update VDP; across a mesh the other ranks inject their own shares,
// so every tile enters the array exactly once.
func (bd *builder) inject(local int) {
	for i := 0; i < bd.a.MT; i++ {
		if local >= 0 && TileRowOwner(bd.a.MT, bd.rc.Nodes, i) != local {
			continue
		}
		bd.s.Inject(panelTup(0, i), 0, pulsar.NewPacket(bd.a.Tile(i, 0)))
		for _, l := range bd.cols(0) {
			bd.s.Inject(updateTup(0, i, l), 0, pulsar.NewPacket(bd.colTile(i, l)))
		}
	}
}

// assemble hands every declared output's packet to its place. Every tile of
// the result is one a VDP handed over, so the containers start as shells.
func (bd *builder) assemble() (*Factorization, error) {
	a := bd.a
	f := &Factorization{M: a.M, N: a.N, Opts: bd.opts, A: matrix.NewTiledShell(a.M, a.N, a.NB), ROnly: bd.rOnly}
	if bd.b != nil {
		f.QTB = matrix.NewTiledShell(bd.b.M, bd.b.N, bd.b.NB)
	}
	for _, o := range bd.outputs {
		if o.log && bd.rOnly {
			continue
		}
		p, err := bd.collectedOne(o.from)
		if err != nil {
			return nil, err
		}
		o.place(f, p)
	}
	return f, nil
}

// collectedOne returns the single packet a collector endpoint must hold.
func (bd *builder) collectedOne(e endpoint) (*pulsar.Packet, error) {
	ps := bd.s.Collected(e.tup, e.slot)
	if len(ps) != 1 {
		return nil, fmt.Errorf("qr: collector %v[%d] holds %d packets, want 1", e.tup, e.slot, len(ps))
	}
	return ps[0], nil
}
