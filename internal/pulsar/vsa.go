package pulsar

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pulsarqr/internal/slab"
	"pulsarqr/internal/transport"
	"pulsarqr/internal/tuple"
)

// ErrAborted is returned by Run when the VSA was stopped by Abort before
// every VDP was destroyed (e.g. a canceled job).
var ErrAborted = errors.New("pulsar: run aborted")

// Scheduling selects how a worker treats a ready VDP.
type Scheduling int

const (
	// Lazy fires a ready VDP once and moves on to the next VDP. It
	// encourages lookahead — interleaving panel factorizations with
	// trailing updates — and is the scheme the paper found to utilize
	// cores better for tree-based QR.
	Lazy Scheduling = iota
	// Aggressive keeps firing the same VDP for as long as it stays ready.
	Aggressive
)

func (s Scheduling) String() string {
	if s == Aggressive {
		return "aggressive"
	}
	return "lazy"
}

// Mapping places a VDP, identified by its tuple, onto a (node, thread)
// pair. It must be a pure function of the tuple so that every node derives
// the same placement.
type Mapping func(t tuple.Tuple) (node, thread int)

// FireEvent describes one VDP firing, for tracing and statistics.
type FireEvent struct {
	Tuple        tuple.Tuple
	Class        string
	Node, Thread int
	Start, End   time.Time
	Seq          int64
}

// WaitEvent describes one interval a worker spent parked with nothing ready
// to fire — the time its VDPs were blocked on empty input FIFOs. Recorded
// only when a WaitHook is installed.
type WaitEvent struct {
	Node, Thread int
	Start, End   time.Time
}

// CommKind classifies proxy and communicator activity for CommEvent.
type CommKind uint8

const (
	// CommSend is one eager Isend of a marshaled inter-node packet.
	CommSend CommKind = iota
	// CommRecv is one arrival delivered to a local channel (unmarshal + push).
	CommRecv
	// CommBarrier is the post-run collective barrier of a distributed Run.
	CommBarrier
)

// CommEvent describes one inter-node communication action of a node's proxy
// (or the closing barrier of a distributed run). Peer is the remote rank,
// -1 for collectives; Bytes is the marshaled payload size.
type CommEvent struct {
	Node       int
	Kind       CommKind
	Peer       int
	Tag        int
	Bytes      int
	Start, End time.Time
}

// Config parameterizes a VSA run.
type Config struct {
	// Nodes is the number of simulated distributed-memory nodes (MPI
	// ranks). Default 1.
	Nodes int
	// ThreadsPerNode is the number of worker threads per node (the paper
	// dedicates one extra thread per node to the communication proxy;
	// here the proxy is its own goroutine). Default 1.
	ThreadsPerNode int
	// Scheduling selects lazy or aggressive firing.
	Scheduling Scheduling
	// Map places VDPs on (node, thread) pairs; when nil, VDPs are placed
	// cyclically in insertion order.
	Map Mapping
	// Params is the read-only global parameter block visible to every VDP.
	Params any
	// FireHook, when non-nil, is called after every VDP firing. It may be
	// called concurrently from different workers and must be safe for that.
	FireHook func(FireEvent)
	// WaitHook, when non-nil, observes every interval a worker spends
	// parked with nothing ready to fire — channel-wait time, and the tail of
	// the run in which the worker has no live VDP left. It is ignored when
	// Pool is set (a caller-owned pool's idleness belongs to no single run);
	// install Pool.OnWait instead. Same concurrency contract as FireHook.
	WaitHook func(WaitEvent)
	// CommHook, when non-nil, observes the proxy's inter-node sends and
	// deliveries and the closing barrier of a distributed run. Same
	// concurrency contract as FireHook.
	CommHook func(CommEvent)
	// WorkerState, when non-nil, is called once per worker thread at Run
	// time to create that worker's private state (e.g. a reusable kernel
	// workspace). A firing VDP reaches its worker's state through
	// VDP.WorkerState; since a worker fires one VDP at a time, the state
	// needs no locking.
	WorkerState func(node, thread int) any
	// DeadlockTimeout aborts the run when no VDP fires for this long while
	// VDPs remain alive. Zero selects the 30s default; negative disables.
	DeadlockTimeout time.Duration
	// Comm, when non-nil, switches the run to distributed mode: this
	// process executes only the VDPs mapped to node Comm.Rank() and
	// exchanges inter-node packets over the endpoint (e.g. a TCP mesh of
	// real OS processes built with transport.DialTCP). Every participating
	// process must construct an identical array — same VDPs, channels and
	// Map — so tags and placements agree. Nodes must equal Comm.Size().
	// When nil, all nodes run in this process over the in-process
	// substrate, preserving the original single-process behavior.
	Comm transport.Endpoint
	// Pool, when non-nil, executes this process's VDPs on a caller-owned
	// worker pool, shared with other concurrently running VSAs and left
	// running afterwards, instead of on a pool Run starts and closes itself.
	// ThreadsPerNode is forced to the pool's thread count and WorkerState is
	// ignored (the pool's workers carry their own state). Without Comm,
	// Nodes must be 1: a caller-owned pool serves one process as one node.
	Pool *Pool
}

// VSA is a Virtual Systolic Array: the set of VDPs and channels built by
// the user, plus the runtime state needed to execute it. Build the array
// with NewVDP/Connect/Input/Output, seed it with Inject, then call Run. An
// array that has run can run again after Rearm (Clear, then a new Config).
type VSA struct {
	cfg      Config
	params   any
	vdps     map[string]*VDP
	order    []*VDP
	channels []*Channel

	// runs numbers the array's runs; Clear starts the next. A VDP on a
	// worker's list carries the number of the run it was attached for, so a
	// sweep still holding the list of an ended run never fires a re-armed VDP.
	runs      atomic.Uint64
	running   atomic.Bool
	fired     atomic.Int64
	delivered atomic.Int64
	alive     atomic.Int64
	aborted   atomic.Bool
	busy      atomic.Int64  // workers sweeping this VSA's VDPs, +1 until Run starts draining
	drained   chan struct{} // wakes Run's drain when busy reaches zero (see release)
	abortMu   sync.Mutex    // orders an abort against Clear's reset of it
	done      chan struct{}
	doneOnce  sync.Once
	workers   [][]*worker // [node][thread]; only the local row in distributed mode
	proxies   []*proxy    // per node; only the local entry in distributed mode
	netMsgs   int64
	netBytes  int64
}

// New creates an empty VSA with the given configuration.
func New(cfg Config) *VSA {
	return &VSA{
		cfg:     cfg.normalize(),
		params:  cfg.Params,
		vdps:    map[string]*VDP{},
		done:    make(chan struct{}),
		drained: make(chan struct{}, 1),
	}
}

// normalize fills cfg's defaults.
func (cfg Config) normalize() Config {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.ThreadsPerNode <= 0 {
		cfg.ThreadsPerNode = 1
	}
	if cfg.Pool != nil {
		cfg.ThreadsPerNode = cfg.Pool.Threads()
		cfg.WorkerState = nil
	}
	if cfg.DeadlockTimeout == 0 {
		cfg.DeadlockTimeout = 30 * time.Second
	}
	return cfg
}

// Abort stops the run: no further VDP of this VSA fires, and Run returns
// ErrAborted once in-flight firings have drained. It is safe to call from
// any goroutine, more than once, and before or after Run — the mechanism
// behind per-job cancellation in a long-running service.
func (s *VSA) Abort() {
	s.abortMu.Lock()
	defer s.abortMu.Unlock()
	s.aborted.Store(true)
	s.markDone()
}

// abortRun is Abort for run r alone: a peer failure reported after its run
// ended must not stop the run the array was re-armed for.
func (s *VSA) abortRun(r uint64) {
	s.abortMu.Lock()
	defer s.abortMu.Unlock()
	if s.runs.Load() == r {
		s.aborted.Store(true)
		s.markDone()
	}
}

// Clear lets go of everything an array's last run left in it and makes the
// array ready to run again, as its build left it, without rebuilding
// anything: every VDP's counter back to its start and the VDP alive; every
// channel empty — collectors too — enabled unless it was created disabled,
// not destroyed, and its landing free for the next run's first packet; the
// run counters at zero and any abort cleared. Of the configuration it keeps
// only how the array is placed (Nodes, ThreadsPerNode, Scheduling, Map,
// DeadlockTimeout): the run's endpoint, pool, hooks, worker state and
// params go, so an idle array holds nothing of its last run. Rearm gives it
// the next run's. The array must not be running; an aborted run may be
// cleared.
func (s *VSA) Clear() {
	if s.running.Load() {
		panic("pulsar: Clear of a running VSA")
	}
	s.abortMu.Lock()
	s.runs.Add(1)
	s.abortMu.Unlock()
	// A sweep that took its worker's list before the last run detached may
	// still take a hold on s. Once busy is zero every hold that could read
	// the last run's number has ended, and a later one reads the new number
	// before it looks at a VDP: nothing reads what the resets below write.
	for s.busy.Load() != 0 {
		<-s.drained
	}
	s.abortMu.Lock()
	s.aborted.Store(false)
	s.done, s.doneOnce = make(chan struct{}), sync.Once{}
	s.abortMu.Unlock()
	old := s.cfg
	s.cfg = Config{Nodes: old.Nodes, ThreadsPerNode: old.ThreadsPerNode, Scheduling: old.Scheduling, Map: old.Map, DeadlockTimeout: old.DeadlockTimeout}
	s.params = nil
	s.fired.Store(0)
	s.delivered.Store(0)
	s.alive.Store(0)
	s.workers, s.proxies = nil, nil
	s.netMsgs, s.netBytes = 0, 0
	for _, v := range s.order {
		v.counter, v.dead = v.life, false
	}
	for _, c := range s.channels {
		c.rearm()
	}
}

// Rearm clears the array (Clear) and gives it the configuration of its next
// run, so the run takes its own endpoint, pool and hooks. cfg must place
// every VDP where the configuration the array was built with did (the same
// Nodes, thread count and Map). Seed the array again with Inject.
func (s *VSA) Rearm(cfg Config) {
	s.Clear()
	s.cfg, s.params = cfg.normalize(), cfg.Params
}

func (s *VSA) markDone() {
	s.doneOnce.Do(func() { close(s.done) })
}

// NewVDP creates a VDP with the given tuple, firing counter, executable
// function and trace class, inserts it into the array, and returns it.
// nin and nout size the input and output slot tables.
func (s *VSA) NewVDP(tup tuple.Tuple, counter int, fn Func, class string, nin, nout int) *VDP {
	if counter <= 0 {
		panic(fmt.Sprintf("pulsar: VDP %v counter %d must be positive", tup, counter))
	}
	key := tup.Key()
	if _, dup := s.vdps[key]; dup {
		panic(fmt.Sprintf("pulsar: duplicate VDP tuple %v", tup))
	}
	v := &VDP{
		tup:     tup.Clone(),
		counter: counter,
		life:    counter,
		fn:      fn,
		class:   class,
		in:      make([]*Channel, nin),
		out:     make([]*Channel, nout),
		vsa:     s,
	}
	s.vdps[key] = v
	s.order = append(s.order, v)
	return v
}

// VDPCount returns the number of VDPs in the array.
func (s *VSA) VDPCount() int { return len(s.order) }

// VDPs returns the array's VDPs in the order they were created.
func (s *VSA) VDPs() []*VDP { return s.order }

// ChannelCount returns the number of channels in the array.
func (s *VSA) ChannelCount() int { return len(s.channels) }

// Fired returns the total number of VDP firings so far.
func (s *VSA) Fired() int64 { return s.fired.Load() }

// NetworkStats returns the number of inter-node messages and payload bytes
// the run moved through the message-passing substrate (valid after Run).
func (s *VSA) NetworkStats() (messages, bytes int64) { return s.netMsgs, s.netBytes }

// Connect creates a channel from output slot srcSlot of the VDP identified
// by src to input slot dstSlot of the VDP identified by dst. maxBytes
// declares the maximum packet size: an inter-node packet is marshaled into
// a buffer of that many bytes (a larger packet grows it). When
// startDisabled is true the channel begins inactive and must be enabled by
// the destination VDP before it gates firing — the mechanism the QR array
// uses for the binary-tree-to-flat-tree hand-off.
func (s *VSA) Connect(src tuple.Tuple, srcSlot int, dst tuple.Tuple, dstSlot, maxBytes int, startDisabled bool) {
	sv := s.mustVDP(src)
	dv := s.mustVDP(dst)
	c := &Channel{
		srcVDP: sv, dstVDP: dv,
		srcSlot: srcSlot, dstSlot: dstSlot,
		maxBytes:      maxBytes,
		active:        !startDisabled,
		startDisabled: startDisabled,
	}
	s.attachOut(sv, srcSlot, c)
	s.attachIn(dv, dstSlot, c)
	s.channels = append(s.channels, c)
}

// Input creates an external injection channel into input slot dstSlot of
// dst. Packets enter it through Inject.
func (s *VSA) Input(dst tuple.Tuple, dstSlot, maxBytes int) {
	dv := s.mustVDP(dst)
	c := &Channel{dstVDP: dv, srcSlot: -1, dstSlot: dstSlot, maxBytes: maxBytes, active: true}
	s.attachIn(dv, dstSlot, c)
	s.channels = append(s.channels, c)
}

// Land gives the channel into input slot dstSlot of dst a landing: the
// packet that reaches it from another node is decoded into v, storage of
// exactly the payload's type and shape (a *matrix.Mat, or whatever its
// codec's Decode takes as into), instead of into fresh memory. Only a run's
// first packet lands; a later one is decoded fresh. Call it before the run;
// the landing stays for every run after Rearm.
func (s *VSA) Land(dst tuple.Tuple, dstSlot int, v any) {
	dv := s.mustVDP(dst)
	if dstSlot < 0 || dstSlot >= len(dv.in) || dv.in[dstSlot] == nil {
		panic(fmt.Sprintf("pulsar: landing on VDP %v input slot %d, which no channel feeds", dst, dstSlot))
	}
	dv.in[dstSlot].landing = v
}

// Output creates an external collector channel on output slot srcSlot of
// src. Packets pushed to it accumulate in its queue and are retrieved with
// Collected after the run.
func (s *VSA) Output(src tuple.Tuple, srcSlot, maxBytes int) {
	sv := s.mustVDP(src)
	c := &Channel{srcVDP: sv, srcSlot: srcSlot, dstSlot: -1, maxBytes: maxBytes, active: true}
	s.attachOut(sv, srcSlot, c)
	s.channels = append(s.channels, c)
}

// Inject pushes a packet into the external input channel at (dst, dstSlot).
// It may be called before the run to seed the array, or concurrently with
// it to stream data in.
func (s *VSA) Inject(dst tuple.Tuple, dstSlot int, p *Packet) {
	v, ok := s.vdps[dst.Key()]
	if !ok {
		panic(fmt.Sprintf("pulsar: Inject: no VDP %v", dst))
	}
	c := v.inputChannel(dstSlot)
	if c.srcVDP != nil {
		panic(fmt.Sprintf("pulsar: Inject: channel %s is not an external input", c))
	}
	c.push(p)
	if s.running.Load() {
		s.wakeWorker(v.node, v.thread)
	}
}

// Seed places an initial token into any input channel of dst before the
// run starts — the classical dataflow mechanism for pipeline delays (e.g.
// the delay registers of a systolic filter). Unlike Inject it works on
// internal channels, and it must be called before Run.
func (s *VSA) Seed(dst tuple.Tuple, dstSlot int, p *Packet) {
	if s.running.Load() {
		panic("pulsar: Seed must be called before Run")
	}
	v, ok := s.vdps[dst.Key()]
	if !ok {
		panic(fmt.Sprintf("pulsar: Seed: no VDP %v", dst))
	}
	v.inputChannel(dstSlot).push(p)
}

// Collected returns the packets pushed to the external output channel at
// (src, srcSlot), in push order. In distributed mode each process holds
// only the output of its own VDPs; drivers gather the rest explicitly
// (see AddCollected). The packets stay until Clear.
func (s *VSA) Collected(src tuple.Tuple, srcSlot int) []*Packet {
	c := s.collector(src, srcSlot)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queue[c.head:]
}

// AddCollected appends a packet to the external output channel at
// (src, srcSlot), as if the array had pushed it. Distributed drivers use
// it on the root rank to merge collector output gathered from the other
// processes, so assembly code written against Collected works unchanged.
func (s *VSA) AddCollected(src tuple.Tuple, srcSlot int, p *Packet) {
	s.collector(src, srcSlot).push(p)
}

// collector returns the external output channel at (src, srcSlot).
func (s *VSA) collector(src tuple.Tuple, srcSlot int) *Channel {
	v := s.mustVDP(src)
	if srcSlot < 0 || srcSlot >= len(v.out) || v.out[srcSlot] == nil || v.out[srcSlot].dstVDP != nil {
		panic(fmt.Sprintf("pulsar: VDP %v output slot %d is not a collector", src, srcSlot))
	}
	return v.out[srcSlot]
}

func (s *VSA) mustVDP(t tuple.Tuple) *VDP {
	v, ok := s.vdps[t.Key()]
	if !ok {
		panic(fmt.Sprintf("pulsar: no VDP %v", t))
	}
	return v
}

func (s *VSA) attachOut(v *VDP, slot int, c *Channel) {
	if slot < 0 || slot >= len(v.out) {
		panic(fmt.Sprintf("pulsar: VDP %v output slot %d out of range [0,%d)", v.tup, slot, len(v.out)))
	}
	if v.out[slot] != nil {
		panic(fmt.Sprintf("pulsar: VDP %v output slot %d already connected", v.tup, slot))
	}
	v.out[slot] = c
}

func (s *VSA) attachIn(v *VDP, slot int, c *Channel) {
	if slot < 0 || slot >= len(v.in) {
		panic(fmt.Sprintf("pulsar: VDP %v input slot %d out of range [0,%d)", v.tup, slot, len(v.in)))
	}
	if v.in[slot] != nil {
		panic(fmt.Sprintf("pulsar: VDP %v input slot %d already connected", v.tup, slot))
	}
	v.in[slot] = c
}

// route delivers a packet pushed on channel c: collectors queue it,
// intra-node channels enqueue zero-copy, inter-node channels marshal into a
// warm buffer of the channel's maxBytes (slab.Bytes) and hand the bytes to
// the source node's proxy.
func (s *VSA) route(c *Channel, p *Packet) {
	switch {
	case c.dstVDP == nil:
		c.push(p)
	case !s.running.Load() || !c.interNode:
		c.push(p)
		if s.running.Load() {
			s.wakeWorker(c.dstVDP.node, c.dstVDP.thread)
		}
	default:
		b, err := appendPacket(slab.Bytes.Take(c.maxBytes)[:0], p)
		if err != nil {
			panic(fmt.Sprintf("pulsar: cannot ship packet on %s: %v", c, err))
		}
		s.proxies[c.srcNode].enqueue(c.dstNode, c.tag, b)
	}
}

func (s *VSA) wakeWorker(node, thread int) {
	if node < len(s.workers) && thread < len(s.workers[node]) {
		s.workers[node][thread].wake()
	}
}
