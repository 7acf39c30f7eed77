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
	"pulsarqr/internal/slab"
	"pulsarqr/internal/transport"
	"pulsarqr/internal/tuple"
	"pulsarqr/internal/wire"
)

// The 3D Virtual Systolic Array (paper §V-C, Fig. 8). One VDP exists per
// (panel step, tile row[, trailing column]) — the three nested loops of the
// algorithm map directly onto the three dimensions of the array, which build
// makes from the loops' one listing (List), a VDP per kernel call:
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
// Every VDP, whatever its color, runs one body (callFn): one kernel call
// wrapped in channel I/O. It pops the call's data, runs the call through
// Call.run — the kernel dispatch every engine shares — and pushes what it
// wrote; a panel call also publishes its transformation as a (V,T) packet,
// which is its entry in the log as well, unless the run is R-only.
//
// Every datum flows from the VDP that last held it to its next user: tiles
// released by panel j go directly to their VDP in panel j+1, and tiles that
// reach their final state (the R row of the surviving top, the QᵀB blocks)
// flow to collector channels for assembly by the driver.

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

// vtMsg carries a Householder transformation: the reflector tile V
// (read-only once published; a Ttqrt's is the eliminated R) and its block
// factor T. It travels along a row to the transformation's updates, and is
// the transformation's entry in the log.
type vtMsg struct {
	V, T *matrix.Mat
}

func init() { pulsar.RegisterCodec(vtCodec) }

// vtCodec is the inter-node codec of vtMsg packets: [lenV u32][V][T]. A vt
// packet lands in a *vtMsg whose V and T have its matrices' shapes.
var vtCodec = pulsar.Codec{
	ID: 16,
	EncodeAppend: func(dst []byte, v any) ([]byte, bool) {
		m, ok := v.(*vtMsg)
		if !ok {
			return dst, false
		}
		return appendTwoMats(dst, m.V, m.T), true
	},
	Decode: func(b []byte, into any) (any, error) {
		m, ok := into.(*vtMsg)
		switch {
		case into == nil:
			m = &vtMsg{}
		case !ok:
			return nil, fmt.Errorf("qr: a vt packet cannot land in %T", into)
		}
		v, t, err := consumeTwoMats(m.V, m.T, b)
		if err != nil {
			return nil, fmt.Errorf("qr: vt packet: %w", err)
		}
		m.V, m.T = v, t
		return m, nil
	},
}

// appendTwoMats appends [len(a) u32][a][b], the payload of a vtMsg packet,
// each matrix in wire's dims-prefixed form. dst grows once, to the exact
// size: a packet costs its destination buffer and nothing else.
func appendTwoMats(dst []byte, a, b *matrix.Mat) []byte {
	la := 8 + 8*a.Rows*a.Cols
	dst = slices.Grow(dst, 4+la+8+8*b.Rows*b.Cols)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(la))
	dst, _ = wire.AppendDimMat(dst, a)
	dst, _ = wire.AppendDimMat(dst, b)
	return dst
}

// consumeTwoMats decodes what appendTwoMats wrote: two matrices that fill p
// exactly, the first as long as its length prefix declares. Each goes into
// fresh storage when a or b is nil, and otherwise into a or b, whose shape it
// must have (wire.ConsumeDimMat).
func consumeTwoMats(a, b *matrix.Mat, p []byte) (*matrix.Mat, *matrix.Mat, error) {
	if len(p) < 4 {
		return nil, nil, fmt.Errorf("%d bytes where two matrices belong", len(p))
	}
	a, rest, err := wire.ConsumeDimMat(a, p[4:])
	if err != nil {
		return nil, nil, err
	}
	if la, want := len(p)-4-len(rest), int(binary.LittleEndian.Uint32(p)); la != want {
		return nil, nil, fmt.Errorf("first matrix is %d bytes, its prefix declares %d", la, want)
	}
	if b, rest, err = wire.ConsumeDimMat(b, rest); err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d bytes after the second matrix", len(rest))
	}
	return a, b, err
}

// builder accumulates the array for one factorization.
type builder struct {
	a, b    *matrix.Tiled
	opts    Options
	rc      RunConfig
	s       *pulsar.VSA
	bnt     int // rhs tile columns
	nbBytes int // channel capacity: one tile and its packet header
	// inputs lists the array's input channels, each with the tile it takes.
	inputs []input
	// outputs lists the array's external output channels in the order they
	// were declared — the one enumeration gather and assemble read.
	outputs []output
	// rOnly builds, gathers and assembles what a service serves — R and
	// QᵀB — and declares no log.
	rOnly bool
	// here is the node this process runs, -1 for every node (see carve).
	here int
	// scratch is the array's own storage for its T factors, domain R packets,
	// landings and R-only diagonal tiles. Build cuts each view's header
	// (cut), lists it in views and counts its float64s in carved; then
	// newBuilder makes the scratch and points each view at its span.
	scratch []float64
	views   []*matrix.Mat
	carved  int
	// key is the array's place among the rank's built arrays (Env.Part);
	// kept says it goes back there after a clean run.
	key  arrayKey
	kept bool
	// diag[j] is the tile an R-only run assembles panel j's R into, on the
	// node that assembles.
	diag []*matrix.Mat
}

// endpoint identifies a producer (VDP tuple + output slot) while wiring.
type endpoint struct {
	tup  tuple.Tuple
	slot int
}

// input is an external input channel, the node its VDP runs on, and the
// tile of a or b it takes.
type input struct {
	to   endpoint
	node int
	d    Datum
}

// output is one collector channel (paper §V-C), declared where it is wired:
// the producer whose single packet it holds after the run, and place, which
// says what the packet is by storing it in the factorization.
type output struct {
	from  endpoint
	place func(f *Factorization, p *pulsar.Packet)
}

// output creates the external output channel at from and records what
// assemble is to do with its packet. The list is a pure function of the
// array, so every rank of a mesh numbers the outputs alike.
func (bd *builder) output(from endpoint, place func(*Factorization, *pulsar.Packet)) {
	bd.s.Output(from.tup, from.slot, bd.nbBytes)
	bd.outputs = append(bd.outputs, output{from, place})
}

// tileOutput declares from's packet to be the finished tile (i, l): of R
// when l is a matrix column, of QᵀB when it is an rhs one.
func (bd *builder) tileOutput(from endpoint, i, l int) {
	bd.output(from, func(f *Factorization, p *pulsar.Packet) {
		if l < bd.a.NT {
			f.A.SetTile(i, l, p.Tile())
		} else {
			f.QTB.SetTile(i, l-bd.a.NT, p.Tile())
		}
	})
}

// callLocal is the build-time configuration of a VDP: the call it runs at
// inner block ib, whether a column follows the call's (its transformation
// then goes on to the next one), whether a panel call sends its log entry
// (the run keeps the log), and, for a panel call, its T factor t and, at a
// domain top, the domain's R packet r: views of the run's scratch (carve).
type callLocal struct {
	c        Call
	ib       int
	fwd, log bool
	t, r     *matrix.Mat
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
	//
	// An R-only run is a service's, so it runs on one of this process's
	// built arrays of its key (arrayKey) when one is idle, re-armed instead
	// of rebuilt, and gives the array back after a clean run: on rank 0
	// through the result's Release, once the caller has read R (a result
	// never released leaves its array to the GC); on any other rank before
	// the call returns. A run that fails, aborts or is canceled drops its
	// array. A full-log run — the library's — builds its own.
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
	if a.NT == 0 && ep != nil {
		// Rank 0 would return B as QᵀB, and it holds only its own rows.
		return nil, fmt.Errorf("qr: a %dx0 matrix has no array to distribute", a.M)
	}

	bd := arrayOf(a, b, opts, rc, env, ep, local)
	bd.inject(local)
	clean, err := runCtx(ctx, bd.s)
	if err != nil {
		return nil, err
	}
	bd.kept = bd.kept && clean
	if ep != nil {
		if err := bd.gather(ctx, ep, env.Part); err != nil {
			return nil, err
		}
		defer ep.Barrier()
		if local != 0 {
			bd.release() // what rank 0 reads of this rank's went in the gather
			return nil, nil
		}
	}
	f, err := bd.assemble()
	if err != nil {
		return nil, err
	}
	if bd.kept {
		f.release = bd.release
	}
	f.Input = env.Part
	msgs, bytes := bd.s.NetworkStats()
	f.Stats = RunStats{
		Firings: bd.s.Fired(), Messages: msgs, Bytes: bytes,
		VDPs: bd.s.VDPCount(), Channels: bd.s.ChannelCount(),
	}
	return f, nil
}

// newBuilder builds the array of one factorization at resolved opts, to be
// run over ep by node here of rc.Nodes (by every node when here < 0), with
// scratch of its own to carve its views from.
func newBuilder(a, b *matrix.Tiled, opts Options, rc RunConfig, env Env, ep transport.Endpoint, here int) *builder {
	bd := &builder{a: a, b: b, opts: opts, rc: rc, nbBytes: 8*opts.NB*opts.NB + 64, rOnly: env.Part != nil, here: here}
	if b != nil {
		bd.bnt = b.NT
	}
	bd.s = pulsar.New(bd.config(env, ep))
	bd.build()
	if bd.rOnly {
		bd.scratch = slab.Floats.Take(bd.carved) // the shelf gives it back (arrays)
	} else {
		bd.scratch = make([]float64, bd.carved)
	}
	lo := 0
	for _, v := range bd.views {
		hi := lo + v.Rows*v.Cols
		v.Data, lo = bd.scratch[lo:hi:hi], hi
	}
	bd.views = nil
	return bd
}

// config is the runtime configuration of a run of the array over ep, on
// env's pool, with bd.rc's hooks.
func (bd *builder) config(env Env, ep transport.Endpoint) pulsar.Config {
	rc := bd.rc
	return pulsar.Config{
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
	}
}

// arrayKey fixes a built array: every run of one key builds the same VDPs,
// channels, views and outputs, so an array of the key can run any of them.
type arrayKey struct {
	m, n, nrhs  int
	opts        Options
	nodes, here int
	threads     int
}

// arrays holds the process's built arrays that no run holds (Env.Part). An
// array holds its scratch, so a rank keeps its T factors, R packets and
// landings warm with it; one idle through two collections is dropped. The
// shelf holds keptArrays at most: an array pushed off gives its scratch
// back to slab.Floats, where the next job's array of a new key finds it.
var arrays = slab.NewShelf[arrayKey](keptArrays, func(bd *builder) { slab.Floats.Put(bd.scratch) })

// keptArrays is enough for the concurrent jobs of one key a service runs
// (four by default) on each of two ranks of one process.
const keptArrays = 8

// arrayOf returns the array of one run: for an R-only run a built array of
// the run's key, re-armed and bound to a and b, when the process holds one,
// and otherwise a new one, which goes to the shelf after a clean run.
func arrayOf(a, b *matrix.Tiled, opts Options, rc RunConfig, env Env, ep transport.Endpoint, here int) *builder {
	if env.Part == nil {
		return newBuilder(a, b, opts, rc, env, ep, here)
	}
	key := arrayKey{m: a.M, n: a.N, opts: opts, nodes: rc.Nodes, here: here, threads: rc.Threads}
	if b != nil {
		key.nrhs = b.N
	}
	bd, ok := arrays.Take(key)
	if !ok {
		bd = newBuilder(a, b, opts, rc, env, ep, here)
		bd.key = key
	} else {
		bd.a, bd.b, bd.rc = a, b, rc
		bd.s.Rearm(bd.config(env, ep))
	}
	bd.kept = true
	return bd
}

// release gives a kept array back to the shelf, for the next run of its
// key, holding nothing of the run: not its tiles, hooks or endpoint, nor a
// packet it gathered (pulsar.VSA.Clear).
func (bd *builder) release() {
	if bd.kept {
		bd.kept = false
		bd.a, bd.b, bd.rc = nil, nil, RunConfig{}
		bd.s.Clear()
		arrays.Put(bd.key, bd)
	}
}

// colWidth is the width of global tile column l: of a, or of the rhs b.
func colWidth(a, b *matrix.Tiled, l int) int {
	if l < a.NT {
		return a.TileCols(l)
	}
	return b.TileCols(l - a.NT)
}

// colTile resolves a global column index to the tile at row i.
func (bd *builder) colTile(i, l int) *matrix.Mat {
	if l < bd.a.NT {
		return bd.a.Tile(i, l)
	}
	return bd.b.Tile(i, l-bd.a.NT)
}

// Place is the one placement rule (paper §IV-A: the VDP→thread map is the
// algorithm's; §V-C): call c of an array of mt tile rows runs on the node
// owning its Home row — rows go to nodes in contiguous blocks of ⌈mt/nodes⌉
// — on thread (row + col) % threads. A merge is homed at its survivor, so a
// binary-tree parent runs with its first child, and every kernel touching a
// tile of row i runs on TileRowOwner(i): a rank needs the input tiles of the
// rows it owns and no others.
func Place(c Call, mt, nodes, threads int) (node, thread int) {
	row, col := c.Home()
	return TileRowOwner(mt, nodes, row), (row + col) % threads
}

// TileRowOwner returns the node that owns tile row `row` of mt, Place's node.
func TileRowOwner(mt, nodes, row int) int { return row / ((mt + nodes - 1) / nodes) }

// OwnedTileRows returns the half-open range [lo, hi) of the mt tile rows
// that node owns; the trailing nodes own nothing when mt is short.
func OwnedTileRows(mt, nodes, node int) (lo, hi int) {
	per := (mt + nodes - 1) / nodes
	lo = min(node*per, mt)
	return lo, min(lo+per, mt)
}

// mapping places each VDP by Place of the call it runs. Flat-tree domains
// stay node-local under the fixed boundary only: shifted domains start at
// row j, not at an ownership boundary, so one can straddle two nodes and its
// tsqrt chain then crosses the wire.
func (bd *builder) mapping() pulsar.Mapping {
	return func(t tuple.Tuple) (int, int) {
		return Place(homeCall(t), bd.a.MT, bd.rc.Nodes, bd.rc.Threads)
	}
}

// homeCall inverts vdpTup as far as Place reads it: a call with the Home of
// every call VDP t can run, its third component's row at its column.
func homeCall(t tuple.Tuple) Call {
	c := Call{Kernel: Geqrt, J: t.At(1), I: t.At(2), L: t.At(1)} // a panel's or merge's column is J
	switch t.At(0) {
	case kindUpdate:
		c.L = t.At(3)
	case kindMergeUpdate:
		c.L = t.At(4)
	}
	return c
}

// port is where a VDP takes one datum of its call in (-1: the call creates
// it) and where the datum's next user takes it from.
type port struct{ in, out int }

// vdpKinds maps each tile kernel onto the VDP that runs it: the tuple kind,
// the slot counts, and one port per datum in Call.Access order. A datum the
// call only reads is a (V,T) packet, and its out port is the by-pass forward
// to the next column. A panel call's out port 1 carries its reflectors on as
// a (V,T) packet, and slot 2, on a run that keeps the log, its log entry.
var vdpKinds = [NumKernels]struct {
	kind      int
	nin, nout int
	ports     []port
}{
	Geqrt: {kindPanel, 2, 3, []port{{0, 1}, {-1, 0}}},
	Tsqrt: {kindPanel, 2, 3, []port{{1, 0}, {0, 1}}},
	Ttqrt: {kindMerge, 2, 3, []port{{0, 0}, {1, 1}}},
	Ormqr: {kindUpdate, 3, 4, []port{{1, 0}, {0, 1}}},
	Tsmqr: {kindUpdate, 3, 4, []port{{1, 0}, {2, 1}, {0, 3}}},
	Ttmqr: {kindMergeUpdate, 3, 3, []port{{2, 0}, {0, 1}, {1, 2}}},
}

// vdpTup returns the tuple of the VDP that runs tile kernel call c.
func vdpTup(c Call) tuple.Tuple {
	row, l := c.Home()
	switch k := vdpKinds[c.Kernel].kind; k {
	case kindPanel:
		return tuple.Tuple{k, c.J, row, -1, -1}
	case kindUpdate:
		return tuple.Tuple{k, c.J, row, l, -1}
	case kindMerge:
		return tuple.Tuple{k, c.J, c.I, c.K, -1}
	}
	return tuple.Tuple{kindMergeUpdate, c.J, c.I, c.K, l}
}

// local returns the configuration of c's VDP, carving its views.
func (bd *builder) local(c Call) *callLocal {
	v := bd.carve(c)
	return &callLocal{c: c, ib: bd.opts.IB, fwd: c.L+1 < bd.a.NT+bd.bnt, log: !bd.rOnly, t: v[0], r: v[1]}
}

// holder is the producer a datum's next user receives it from, and the node
// it runs on. final marks a tile an update wrote last: once the listing ends
// it is a tile of R or of QᵀB.
type holder struct {
	from  endpoint
	node  int
	final bool
}

// build maps the listing (List) onto the array: one VDP per tile kernel
// call, each datum of the call connected from its last holder — a tile, or
// the (V,T) packet of one it only reads — or taken as an input tile. A panel
// call's log output is declared at the call, each panel's final R at its
// WriteBack, and the tiles of R and QᵀB after the listing, in (i, l) order.
func (bd *builder) build() {
	held := map[Datum]holder{}
	List(bd.a.MT, bd.a.NT, bd.bnt, bd.opts, func(c Call) {
		if c.Kernel == WriteBack {
			if bd.rOnly {
				bd.diag = append(bd.diag, bd.carve(c)[0])
			}
			bd.finalR(c.J, held[Datum{I: c.I, L: c.J, R: true}].from)
			return
		}
		k, tup := vdpKinds[c.Kernel], vdpTup(c)
		bd.s.NewVDP(tup, 1, callFn, c.Kernel.Class(), k.nin, k.nout).SetLocal(bd.local(c))
		to, _ := Place(c, bd.a.MT, bd.rc.Nodes, bd.rc.Threads)
		n := 0
		c.Access(func(d Datum, write bool) {
			p := k.ports[n]
			n++
			h, ok := held[d]
			switch {
			case ok:
				size := bd.nbBytes
				if !write {
					size *= 2 // a (V,T) packet
				}
				bd.s.Connect(h.from.tup, h.from.slot, tup, p.in, size, false)
				if h.node != to && (bd.here < 0 || to == bd.here) {
					bd.land(endpoint{tup, p.in}, c, d, write)
				}
			case !d.R:
				bd.s.Input(tup, p.in, bd.nbBytes)
				bd.inputs = append(bd.inputs, input{endpoint{tup, p.in}, to, d})
			}
			held[d] = holder{endpoint{tup, p.out}, to, write && d.L > c.J}
		})
		if c.Kernel <= Ttqrt && !bd.rOnly {
			bd.logOutput(c, endpoint{tup, 2})
		}
	})
	for i := 0; i < bd.a.MT; i++ {
		for l := 0; l < bd.a.NT+bd.bnt; l++ {
			if h := held[Datum{I: i, L: l}]; h.final {
				bd.tileOutput(h.from, i, l)
			}
		}
	}
}

// logOutput declares the log entry of panel call c, its (V,T) packet. The
// reflector tile of a Geqrt or Tsqrt is placed in A here, before the panel's
// WriteBack writes R over the diagonal one; a Ttqrt's reflectors are the
// eliminated R, which only the entry keeps.
func (bd *builder) logOutput(c Call, from endpoint) {
	row, _ := c.Home()
	bd.output(from, func(f *Factorization, p *pulsar.Packet) {
		vt := p.Data.(*vtMsg)
		if c.Kernel != Ttqrt {
			f.A.SetTile(row, c.J, vt.V)
		}
		f.log = append(f.log, *vt)
	})
}

// finalR declares panel j's surviving R, which goes over the upper triangle
// of the diagonal tile — over the reflectors the log placed there, or into
// diag[j] when an R-only run declared no log.
func (bd *builder) finalR(j int, from endpoint) {
	bd.output(from, func(f *Factorization, p *pulsar.Packet) {
		if bd.rOnly {
			f.A.SetTile(j, j, bd.diag[j])
		}
		writeR(f.A.Tile(j, j), p.Tile())
	})
}

// --- scratch ------------------------------------------------------------

// The T factors, the domain R packets and an R-only run's assembled
// diagonal tiles are views of one slab the array owns, carved at build time
// in listing order, each compact (LD = its rows): a VDP body allocates
// nothing, and a service rank that keeps the array (Env.Part) runs the next
// job of its key on the same views. Every kernel writes the part of a view
// it later reads — T's upper triangles, R's upper trapezoid — so a re-armed
// array's scratch is never zeroed.

// A packet that reaches a node from another lands in a view carved the same
// way, on the receiving node only: each inbound inter-node channel of a node
// carries one packet per run, and the proxy decodes it into the channel's
// landing (pulsar.VSA.Land) instead of into fresh matrices.

// cut takes the next rows×cols view of the scratch: its header, compact,
// which newBuilder points at its span once build has cut every view.
func (bd *builder) cut(rows, cols int) *matrix.Mat {
	v := &matrix.Mat{Rows: rows, Cols: cols, LD: rows}
	bd.views = append(bd.views, v)
	bd.carved += rows * cols
	return v
}

// carve cuts c's views from the scratch when this process carves them, and
// returns them in this order: a Geqrt's T and then its domain's R packet, a
// Tsqrt's or Ttqrt's T, an R-only run's WriteBack's diagonal tile; nil
// otherwise. A kernel call's are carved on the node it runs on, a
// write-back's on the node that assembles R (every node's when here < 0).
func (bd *builder) carve(c Call) (v [2]*matrix.Mat) {
	n := bd.a.TileCols(c.J)
	if c.Kernel == WriteBack {
		if bd.here <= 0 {
			v[0] = bd.cut(bd.a.TileRows(c.J), n)
		}
		return v
	}
	if node, _ := Place(c, bd.a.MT, bd.rc.Nodes, 1); bd.here >= 0 && node != bd.here {
		return v
	}
	switch c.Kernel {
	case Geqrt:
		k := min(bd.a.TileRows(c.I), n)
		v[0], v[1] = bd.cut(min(bd.opts.IB, k), k), bd.cut(k, n)
	case Tsqrt, Ttqrt:
		v[0] = bd.cut(min(bd.opts.IB, n), n)
	}
	return v
}

// land cuts the landing of datum d, which call c's VDP takes at to from a
// VDP on another node, and gives it to the channel: the tile or domain R
// itself when c writes it; when c only reads it, the (V,T) packet of the
// transformation, V of d's shape and then the T of the panel call that made
// it.
func (bd *builder) land(to endpoint, c Call, d Datum, write bool) {
	m, n := bd.a.TileRows(d.I), colWidth(bd.a, bd.b, d.L)
	if d.R {
		m = min(m, n)
	}
	var l any
	switch v := bd.cut(m, n); {
	case write:
		l = v
	case c.Kernel == Ormqr: // a Geqrt's T
		k := min(m, n)
		l = &vtMsg{V: v, T: bd.cut(min(bd.opts.IB, k), k)}
	default: // a Tsqrt's or Ttqrt's T
		l = &vtMsg{V: v, T: bd.cut(min(bd.opts.IB, n), n)}
	}
	bd.s.Land(to.tup, to.slot, l)
}

// --- the VDP body -------------------------------------------------------

// wsOf returns the firing worker's kernel workspace; nil (letting the
// kernels fall back to their pool) if the runtime has none configured.
func wsOf(v *pulsar.VDP) *kernels.Workspace {
	ws, _ := v.WorkerState().(*kernels.Workspace)
	return ws
}

// callFn is the body of every VDP of the array: it takes each datum of its
// call at the datum's in port, runs the call (Call.run), and pushes each
// datum it wrote at its out port. A Geqrt creates its domain's R in the
// carved view. A (V,T) packet the call only reads is forwarded before the
// kernel runs, so the by-pass overlaps with it (paper §V-C). A panel call
// sends the datum on out port 1 — its reflectors — as a (V,T) packet when a
// column follows, and as its log entry on slot 2 when the run keeps the log.
func callFn(v *pulsar.VDP) {
	l := v.Local().(*callLocal)
	ports := vdpKinds[l.c.Kernel].ports
	var h [3]*matrix.Mat
	var wrote [3]bool
	t, n := l.t, 0
	l.c.Access(func(_ Datum, write bool) {
		switch p := ports[n]; {
		case p.in < 0:
			h[n] = l.r
		case write:
			h[n] = v.Pop(p.in).Tile()
		default:
			vt := v.Pop(p.in)
			if l.fwd {
				v.Push(p.out, vt)
			}
			m := vt.Data.(*vtMsg)
			h[n], t = m.V, m.T
		}
		wrote[n] = write
		n++
	})
	l.c.run(wsOf(v), true, l.ib, h, t)
	for i, p := range ports {
		switch {
		case !wrote[i]:
		case p.out == 1 && l.c.Kernel <= Ttqrt:
			vt := pulsar.NewPacket(&vtMsg{V: h[i], T: t})
			if l.fwd {
				v.Push(1, vt)
			}
			if l.log {
				v.Push(2, vt)
			}
		default:
			v.Push(p.out, pulsar.NewPacket(h[i]))
		}
	}
}

// --- injection and assembly ---------------------------------------------

// inject seeds the array's inputs that node local runs — every input when
// local is negative, the whole array running here — with their matrix (and
// rhs) tiles: those of the rows local owns. Across a mesh the other ranks
// inject their own shares, so every tile enters the array exactly once.
func (bd *builder) inject(local int) {
	for _, in := range bd.inputs {
		if local < 0 || in.node == local {
			bd.s.Inject(in.to.tup, in.to.slot, pulsar.NewPacket(bd.colTile(in.d.I, in.d.L)))
		}
	}
}

// assemble hands every declared output's packet to its place. Every tile of
// the result is one a VDP handed over, so the containers start as shells.
func (bd *builder) assemble() (*Factorization, error) {
	a := bd.a
	f := &Factorization{M: a.M, N: a.N, Opts: bd.opts, A: matrix.NewTiledShell(a.M, a.N, a.NB), ROnly: bd.rOnly}
	switch {
	case bd.b == nil:
	case a.NT == 0: // no panel, so no call: QᵀB is B
		f.QTB = bd.b
	default:
		f.QTB = matrix.NewTiledShell(bd.b.M, bd.b.N, bd.b.NB)
	}
	for _, o := range bd.outputs {
		p, err := collectedOne(bd.s, o.from.tup, o.from.slot)
		if err != nil {
			return nil, err
		}
		o.place(f, p)
	}
	return f, nil
}

// collectedOne returns the single packet collector slot of VDP tup must hold.
func collectedOne(s *pulsar.VSA, tup tuple.Tuple, slot int) (*pulsar.Packet, error) {
	ps := s.Collected(tup, slot)
	if len(ps) != 1 {
		return nil, fmt.Errorf("qr: collector %v[%d] holds %d packets, want 1", tup, slot, len(ps))
	}
	return ps[0], nil
}
