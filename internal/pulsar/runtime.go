package pulsar

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"pulsarqr/internal/slab"
	"pulsarqr/internal/transport"
)

// Run maps the array onto nodes and threads, attaches the VDPs to worker
// pools and starts the proxies, propagates data until every VDP has been
// destroyed, and returns. A non-nil error reports a deadlock (no progress for
// DeadlockTimeout while VDPs remain alive), including a description of the
// stuck VDPs.
//
// Every run executes on a Pool. With Config.Pool nil, Run starts one pool per
// local node for the duration of the run — ThreadsPerNode workers, state from
// Config.WorkerState, Config.WaitHook observing their parks — and closes it
// before returning; a caller-owned Config.Pool outlives the run and may be
// shared with other runs.
//
// When Config.Comm is nil every node runs in this process over the
// in-process substrate. When Comm is set, only the VDPs mapped to node
// Comm.Rank() execute here; inter-node packets travel over the endpoint,
// and Run ends with a Barrier across all ranks so that every process's
// proxy has shut down (its wildcard receive canceled) before any process
// posts follow-up traffic such as a result gather.
func (s *VSA) Run() error {
	if s.running.Load() {
		return fmt.Errorf("pulsar: VSA already running")
	}
	if s.aborted.Load() {
		return ErrAborted
	}
	if len(s.order) == 0 {
		return nil
	}
	dist := s.cfg.Comm != nil
	local := -1
	var msgs0, bytes0 int64
	if dist {
		if s.cfg.Comm.Size() != s.cfg.Nodes {
			return fmt.Errorf("pulsar: Comm spans %d ranks but Nodes is %d", s.cfg.Comm.Size(), s.cfg.Nodes)
		}
		local = s.cfg.Comm.Rank()
		msgs0, bytes0 = s.cfg.Comm.Stats() // endpoint is caller-owned: report deltas
	} else if s.cfg.Pool != nil && s.cfg.Nodes != 1 {
		return fmt.Errorf("pulsar: a run on a caller-owned pool without Comm must have Nodes=1, got %d", s.cfg.Nodes)
	}
	s.place()

	var lw *transport.Local
	if !dist {
		lw = transport.NewLocal(s.cfg.Nodes)
	}
	s.workers = make([][]*worker, s.cfg.Nodes)
	s.proxies = make([]*proxy, s.cfg.Nodes)
	pools := make([]*Pool, s.cfg.Nodes)      // per local node
	attach := make([][][]share, s.cfg.Nodes) // [local node][thread]
	for n := 0; n < s.cfg.Nodes; n++ {
		if dist && n != local {
			continue
		}
		pools[n] = s.cfg.Pool
		if pools[n] == nil {
			pools[n] = s.newRunPool(n)
		}
		s.workers[n] = pools[n].workers
		attach[n] = make([][]share, s.cfg.ThreadsPerNode)
		ep := s.cfg.Comm
		if !dist {
			ep = lw.Endpoint(n)
		}
		s.proxies[n] = newProxy(s, n, ep)
	}
	s.resolveChannels()
	run, alive := s.runs.Load(), 0
	for _, v := range s.order {
		if dist && v.node != local {
			continue
		}
		attach[v.node][v.thread] = append(attach[v.node][v.thread], share{v, run})
		alive++
	}
	s.alive.Store(int64(alive))
	// Run's own hold, released when the drain below begins. An add, not a
	// store: a sweep of an earlier run may still hold s (see Clear).
	s.busy.Add(1)
	s.running.Store(true)
	defer s.running.Store(false)

	// When the communicator can report peer deaths, a dead peer aborts the
	// run immediately — the deterministic alternative to waiting out the
	// deadlock watchdog — and the cause is carried to the returned error.
	var commMu sync.Mutex
	var commErr error
	if dist {
		if fo, ok := s.cfg.Comm.(transport.FailureObserver); ok {
			fo.OnPeerFailure(func(rank int, err error) {
				commMu.Lock()
				if commErr == nil {
					commErr = err
				}
				commMu.Unlock()
				s.abortRun(run)
			})
			defer fo.OnPeerFailure(nil)
		}
	}

	for n, p := range pools {
		if p != nil {
			p.attach(attach[n])
		}
	}
	if alive == 0 {
		s.markDone()
	}
	var pwg sync.WaitGroup
	for _, p := range s.proxies {
		if p == nil {
			continue
		}
		pwg.Add(1)
		go func(p *proxy) {
			defer pwg.Done()
			p.run()
		}(p)
	}

	// Deadlock watchdog: if progress stalls while VDPs remain, abort the
	// run; the error is composed after in-flight firings have drained, so
	// VDP state is read race-free. Progress is firings plus delivered
	// inter-node packets: a distributed rank may go long stretches without
	// firing while remote ranks feed it.
	var deadlocked bool
	watchdogDone := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(watchdogDone)
		if s.cfg.DeadlockTimeout < 0 {
			<-finished
			return
		}
		tick := time.NewTicker(s.cfg.DeadlockTimeout)
		defer tick.Stop()
		last := int64(-1)
		for {
			select {
			case <-finished:
				return
			case <-tick.C:
				cur := s.fired.Load() + s.delivered.Load()
				if cur == last && s.alive.Load() > 0 {
					deadlocked = true
					s.Abort()
					return
				}
				last = cur
			}
		}
	}()

	<-s.done
	// Drain in-flight firings so the shutdown path below (and a deadlock
	// error's VDP inspection) reads settled state: whoever takes busy to zero
	// once Run's hold is gone — this release, or else a worker's — ends the
	// wait. Then take the VDPs off the workers, which frees a caller-owned
	// pool for the next job; a run-owned pool has had its only one.
	s.release()
	for s.busy.Load() != 0 {
		<-s.drained
	}
	for _, p := range pools {
		if p == nil {
			continue
		}
		p.detach(s)
		if p != s.cfg.Pool {
			p.Close()
		}
	}
	close(finished)
	<-watchdogDone
	for _, p := range s.proxies {
		if p != nil {
			p.stopProxy()
		}
	}
	pwg.Wait()
	aborted := s.aborted.Load() && !deadlocked
	if dist {
		m, b := s.cfg.Comm.Stats()
		s.netMsgs, s.netBytes = m-msgs0, b-bytes0
		s.cfg.Comm.OnArrival(nil) // the proxy is gone; stop waking it
		// An aborted run skips the closing barrier: its peers abort on
		// their own (a canceled job is canceled on every rank) and waiting
		// for them here would hold a canceled job's resources hostage.
		if !aborted {
			ch := s.cfg.CommHook
			var bt0 time.Time
			if ch != nil {
				bt0 = time.Now()
			}
			if err := s.cfg.Comm.Barrier(); err != nil && !deadlocked {
				return fmt.Errorf("pulsar: post-run barrier: %w", err)
			}
			if ch != nil {
				// This collective doubles as the trace clock anchor: every
				// rank leaves it within one release broadcast of the others,
				// so merged shards align on its End.
				ch(CommEvent{Node: local, Kind: CommBarrier, Peer: -1, Start: bt0, End: time.Now()})
			}
		}
	} else {
		s.netMsgs, s.netBytes = 0, 0
		for _, p := range s.proxies {
			m, b := p.comm.Stats()
			s.netMsgs += m
			s.netBytes += b
		}
	}
	if deadlocked {
		return s.deadlockError(dist, local)
	}
	commMu.Lock()
	ce := commErr
	commMu.Unlock()
	if ce != nil {
		return fmt.Errorf("pulsar: communicator failed: %w", ce)
	}
	if aborted {
		return ErrAborted
	}
	return nil
}

// place assigns every VDP to a (node, thread) pair using the configured
// mapping, or cyclically in insertion order when no mapping is given.
func (s *VSA) place() {
	nn, nt := s.cfg.Nodes, s.cfg.ThreadsPerNode
	for i, v := range s.order {
		if s.cfg.Map != nil {
			n, t := s.cfg.Map(v.tup)
			if n < 0 || n >= nn || t < 0 || t >= nt {
				panic(fmt.Sprintf("pulsar: mapping placed VDP %v on (%d,%d) outside %dx%d",
					v.tup, n, t, nn, nt))
			}
			v.node, v.thread = n, t
		} else {
			v.node = i % nn
			v.thread = (i / nn) % nt
		}
	}
}

// resolveChannels classifies channels as intra- or inter-node and assigns
// MPI tags to the latter: channels between each ordered pair of nodes are
// numbered consecutively in construction order, exactly the scheme the
// paper uses to route packets to destination channels on the receiving
// side.
func (s *VSA) resolveChannels() {
	type pair struct{ a, b int }
	next := map[pair]int{}
	for _, c := range s.channels {
		if c.srcVDP == nil || c.dstVDP == nil {
			continue // external
		}
		c.srcNode, c.dstNode = c.srcVDP.node, c.dstVDP.node
		if c.srcNode == c.dstNode {
			c.interNode = false
			continue
		}
		c.interNode = true
		p := pair{c.srcNode, c.dstNode}
		c.tag = next[p]
		next[p]++
	}
	for _, px := range s.proxies {
		if px != nil {
			px.index(s.channels)
		}
	}
}

// deadlockError describes the live VDPs and the state of their inputs; in
// distributed mode only this rank's VDPs are inspected (remote ones never
// fire here, so their state is meaningless locally).
func (s *VSA) deadlockError(dist bool, local int) error {
	var stuck []string
	for _, v := range s.order {
		if v.dead || (dist && v.node != local) {
			continue
		}
		var ins []string
		for i, c := range v.in {
			if c == nil {
				continue
			}
			c.mu.Lock()
			state := "active"
			if c.destroyed {
				state = "destroyed"
			} else if !c.active {
				state = "disabled"
			}
			ins = append(ins, fmt.Sprintf("in%d:%s:%d", i, state, len(c.queue)-c.head))
			c.mu.Unlock()
		}
		stuck = append(stuck, fmt.Sprintf("%v(counter=%d)[%s]", v.tup, v.counter, strings.Join(ins, " ")))
		if len(stuck) >= 16 {
			stuck = append(stuck, "...")
			break
		}
	}
	sort.Strings(stuck)
	err := fmt.Errorf("pulsar: deadlock: %d VDPs alive after %v without progress: %s",
		s.alive.Load(), s.cfg.DeadlockTimeout, strings.Join(stuck, ", "))
	// A stall with a known-dead peer is network death, not an algorithmic
	// deadlock: surface the peer failure as the unwrappable cause so
	// callers can tell the two apart.
	if dist {
		if fo, ok := s.cfg.Comm.(transport.FailureObserver); ok {
			if pe := fo.PeerFailure(); pe != nil {
				return fmt.Errorf("pulsar: run stalled after peer failure: %w (%v)", pe, err)
			}
		}
	}
	return err
}

// worker sweeps its list of VDPs for ready ones and fires them, mirroring
// the per-thread scheduling loop of the PULSAR runtime. It belongs to a Pool
// and may host VDPs of several VSAs at once, so vdps is guarded by mu:
// attach and detach happen from the goroutines of the Runs it serves.
type worker struct {
	node, id int
	state    any // per-worker private state, from the pool's State factory

	mu      sync.Mutex
	cond    *sync.Cond
	kick    bool
	stopped bool

	vdps []share

	// tasks is the worker's queue of Pool.Exec batch tasks (guarded by mu).
	// FIFO for the owner; siblings steal from the tail.
	tasks []func(state any)

	// waitHook, when set, observes each parked interval. It is installed
	// through Pool.OnWait under mu, and read under mu at every park entry.
	waitHook func(WaitEvent)
}

func (w *worker) wake() {
	w.mu.Lock()
	w.kick = true
	w.mu.Unlock()
	w.cond.Signal()
}

func (w *worker) stop() {
	w.mu.Lock()
	w.stopped = true
	w.kick = true
	w.mu.Unlock()
	w.cond.Signal()
}

func (w *worker) isStopped() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stopped
}

// fire runs one firing of v on the calling worker's goroutine.
func (v *VDP) fire() {
	s := v.vsa
	hook := s.cfg.FireHook
	var start time.Time
	if hook != nil {
		start = time.Now()
	}
	v.fn(v)
	v.counter--
	seq := s.fired.Add(1)
	if v.counter <= 0 {
		v.dead = true
		if s.alive.Add(-1) == 0 {
			s.markDone()
		}
	}
	if hook != nil {
		hook(FireEvent{
			Tuple: v.tup, Class: v.class,
			Node: v.node, Thread: v.thread,
			Start: start, End: time.Now(), Seq: seq,
		})
	}
}

// proxy owns a node's inter-node communication: it posts one wildcard
// receive, routes arrivals to local channels by (source, tag), and drains
// per-node outgoing queues with eager non-blocking sends — the same
// Isend/Irecv/Test cycle the paper describes.
type proxy struct {
	vsa  *VSA
	node int
	comm transport.Endpoint

	mu      sync.Mutex
	cond    *sync.Cond
	kick    bool
	stopped bool
	outQ    []outMsg

	inChans map[int64]*Channel
}

type outMsg struct {
	dst, tag int
	buf      []byte // marshal buffer taken from slab.Bytes, put back after Isend
}

func newProxy(s *VSA, node int, comm transport.Endpoint) *proxy {
	p := &proxy{vsa: s, node: node, comm: comm, inChans: map[int64]*Channel{}}
	p.cond = sync.NewCond(&p.mu)
	comm.OnArrival(p.wake)
	return p
}

// index records the inbound inter-node channels of this node, keyed by
// source node and tag.
func (p *proxy) index(channels []*Channel) {
	for _, c := range channels {
		if c.interNode && c.dstNode == p.node {
			p.inChans[int64(c.srcNode)<<32|int64(c.tag)] = c
		}
	}
}

func (p *proxy) wake() {
	p.mu.Lock()
	p.kick = true
	p.mu.Unlock()
	p.cond.Signal()
}

func (p *proxy) stopProxy() {
	p.mu.Lock()
	p.stopped = true
	p.kick = true
	p.mu.Unlock()
	p.cond.Signal()
}

func (p *proxy) enqueue(dst, tag int, buf []byte) {
	p.mu.Lock()
	p.outQ = append(p.outQ, outMsg{dst, tag, buf})
	p.kick = true
	p.mu.Unlock()
	p.cond.Signal()
}

func (p *proxy) run() {
	recv := p.comm.Irecv(transport.Any, transport.Any)
	for {
		progress := false
		for recv.Test() {
			p.deliver(recv.Source(), recv.Tag(), recv.Data())
			recv.Release() // decoded: no packet keeps the bytes
			recv = p.comm.Irecv(transport.Any, transport.Any)
			progress = true
		}
		p.mu.Lock()
		out := p.outQ
		p.outQ = nil
		p.mu.Unlock()
		for _, m := range out {
			// Sends are eager: the transport has copied or serialized the
			// payload by the time Isend returns (the Endpoint contract), so
			// the marshal buffer can go back to slab.Bytes immediately.
			hook := p.vsa.cfg.CommHook
			var t0 time.Time
			if hook != nil {
				t0 = time.Now()
			}
			p.comm.Isend(m.buf, m.dst, m.tag)
			slab.Bytes.Put(m.buf)
			if hook != nil {
				hook(CommEvent{Node: p.node, Kind: CommSend, Peer: m.dst, Tag: m.tag, Bytes: len(m.buf), Start: t0, End: time.Now()})
			}
			progress = true
		}
		// Exit once asked to stop with nothing left to send or deliver;
		// stopProxy is only called after every VDP has been destroyed, so
		// anything still arriving is a dead letter (e.g. the final
		// circulating tokens of a toroidal array).
		p.mu.Lock()
		stopped := p.stopped && len(p.outQ) == 0
		p.mu.Unlock()
		if stopped && !recv.Test() {
			recv.Cancel()
			return
		}
		if !progress {
			p.mu.Lock()
			for !p.kick {
				p.cond.Wait()
			}
			p.kick = false
			p.mu.Unlock()
		}
	}
}

func (p *proxy) deliver(src, tag int, data []byte) {
	hook := p.vsa.cfg.CommHook
	var t0 time.Time
	if hook != nil {
		t0 = time.Now()
	}
	c, ok := p.inChans[int64(src)<<32|int64(tag)]
	if !ok {
		panic(fmt.Sprintf("pulsar: node %d received unroutable message src=%d tag=%d", p.node, src, tag))
	}
	var landing any
	if !c.landed {
		landing, c.landed = c.landing, true
	}
	pkt, err := unmarshalInto(data, landing)
	if err != nil {
		panic(fmt.Sprintf("pulsar: node %d channel %s: %v", p.node, c, err))
	}
	c.push(pkt)
	p.vsa.delivered.Add(1)
	p.vsa.wakeWorker(c.dstVDP.node, c.dstVDP.thread)
	if hook != nil {
		hook(CommEvent{Node: p.node, Kind: CommRecv, Peer: src, Tag: tag, Bytes: len(data), Start: t0, End: time.Now()})
	}
}
