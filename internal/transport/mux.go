package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Mux multiplexes independent jobs onto one underlying Endpoint. Every
// process of a fleet dials its mesh once, wraps the endpoint in a Mux, and
// opens one virtual JobEndpoint per concurrent factorization: sends carry a
// job id in front of the payload, and a pump goroutine demultiplexes
// arrivals into per-job mailboxes. Each JobEndpoint has the full Endpoint
// semantics — matching receives, per-job barriers, per-job stats — so the
// PULSAR runtime runs unchanged over it, and any number of jobs share the
// persistent connections without dial-per-job cost or tag collisions.
//
// The muxed header is [u32 job id][u8 kind]; kind separates data from the
// per-job barrier protocol (barrierState.wait, the body the TCP transport
// runs, rank 0 coordinating). Messages that arrive for a job not yet
// opened are buffered and flushed at Open — the natural race when one rank
// starts a job before its peers heard about it. Messages for a closed job
// are dropped (the dead letters of a canceled run).
//
// A job need not span the whole fleet: OpenOn builds a session over any
// subset of the real ranks, with its own dense virtual rank space — the
// mechanism that lets a degraded fleet keep running jobs on the survivors.
//
// When the underlying endpoint reports peer deaths (FailureObserver, as
// the TCP substrate does), the Mux fans each death out to every open job
// session: the dead member's receives cancel, its barriers depart, and the
// session's own FailureObserver surface carries the cause — so a fleet
// member dying mid-job surfaces as an immediate, attributable error rather
// than the job's deadlock timeout.
type Mux struct {
	ep Endpoint

	// barTotal accumulates every job session's barriers across the mux's
	// whole life — per-job BarrierStats die with their JobEndpoint, so this
	// is the series a long-lived server exports (qrserve_mux_barriers_total).
	barTotal barrierCtrs

	mu       sync.Mutex
	jobs     map[uint32]*JobEndpoint
	pending  map[uint32][]muxMsg
	closedJ  map[uint32]bool // closed ids at/above closedLo, compacted as the watermark advances
	closedLo uint32          // every id below it is closed or currently open (in jobs)
	closed   bool
	cur      Request // outstanding pump receive, canceled on Close

	failureLog // real ranks the underlying endpoint reported dead; the fleet manager observes

	wg sync.WaitGroup
}

const muxHeaderLen = 5

// Muxed message kinds (the byte after the job id): data, or muxBarrier plus
// the barrier phase — enter 1, release 2, abort 3.
const (
	muxData    byte = 0
	muxBarrier byte = 1
)

// muxMsg is one arrival for a job: data is a view of up's payload, which
// the job's receiver releases through its own request.
type muxMsg struct {
	source, tag int
	kind        byte
	data        []byte
	up          Request
}

var errJobClosed = errors.New("transport: job endpoint closed")

// NewMux wraps ep and starts the demultiplexing pump. The Mux owns the
// endpoint's receive side: all traffic through ep must go through job
// endpoints from here on. Closing the Mux stops the pump and fails every
// open job; the underlying endpoint remains the caller's to close.
func NewMux(ep Endpoint) *Mux {
	m := &Mux{
		ep:      ep,
		jobs:    map[uint32]*JobEndpoint{},
		pending: map[uint32][]muxMsg{},
		closedJ: map[uint32]bool{},
	}
	if fo, ok := ep.(FailureObserver); ok {
		fo.OnPeerFailure(m.peerFailed)
	}
	m.wg.Add(1)
	go m.pump()
	return m
}

// peerFailed is the underlying endpoint's death report: record it (so
// sessions opened later start degraded), fan it out to every open job
// session, and notify the Mux's own observers (the service's fleet
// manager).
func (m *Mux) peerFailed(rank int, err error) {
	fns, first := m.recordDeath(rank, err)
	if !first {
		return
	}
	// Snapshot the sessions after recording: one opened in between reads the
	// record itself (OpenOn), and a session told twice ignores the second.
	m.mu.Lock()
	jobs := make([]*JobEndpoint, 0, len(m.jobs))
	for _, e := range m.jobs {
		jobs = append(jobs, e)
	}
	m.mu.Unlock()
	for _, e := range jobs {
		e.peerFailed(rank, err)
	}
	for _, fn := range fns {
		fn(rank, err)
	}
}

// DeadPeers returns the real ranks the underlying endpoint has reported
// dead, in ascending order.
func (m *Mux) DeadPeers() []int {
	var out []int
	for _, d := range m.deaths() {
		out = append(out, d.rank)
	}
	sort.Ints(out)
	return out
}

// Open creates the virtual endpoint for job, spanning every rank of the
// underlying endpoint. Opening an already-open or already-closed job id is
// an error: ids identify one job's lifetime.
func (m *Mux) Open(job uint32) (*JobEndpoint, error) {
	all := make([]int, m.ep.Size())
	for i := range all {
		all[i] = i
	}
	return m.OpenOn(job, all)
}

// OpenOn creates the virtual endpoint for job over a subset of the real
// ranks. The session has its own dense rank space: member ranks[i] is
// virtual rank i (ranks are sorted first), Size() is len(ranks), and every
// member must open the job with the same member set. The calling process's
// real rank must be a member. Traffic from non-members is dropped.
func (m *Mux) OpenOn(job uint32, ranks []int) (*JobEndpoint, error) {
	if len(ranks) == 0 {
		return nil, fmt.Errorf("transport: job %d: empty member set", job)
	}
	members := append([]int(nil), ranks...)
	sort.Ints(members)
	size := m.ep.Size()
	vrank := make([]int, size)
	for i := range vrank {
		vrank[i] = -1
	}
	for v, r := range members {
		if r < 0 || r >= size {
			return nil, fmt.Errorf("transport: job %d: member rank %d out of world of %d", job, r, size)
		}
		if vrank[r] != -1 {
			return nil, fmt.Errorf("transport: job %d: duplicate member rank %d", job, r)
		}
		vrank[r] = v
	}
	self := vrank[m.ep.Rank()]
	if self < 0 {
		return nil, fmt.Errorf("transport: job %d: own rank %d not in member set %v", job, m.ep.Rank(), ranks)
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if _, ok := m.jobs[job]; ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("transport: job %d already open", job)
	}
	if m.closedJ[job] || job < m.closedLo {
		m.mu.Unlock()
		return nil, fmt.Errorf("transport: job %d already closed", job)
	}
	e := &JobEndpoint{
		mux:     m,
		job:     job,
		members: members,
		vrank:   vrank,
		self:    self,
		mb:      newMailbox(len(members)),
		bar:     newBarrierState(self, len(members)),
	}
	m.jobs[job] = e
	buffered := m.pending[job]
	delete(m.pending, job)
	m.mu.Unlock()

	for _, msg := range buffered {
		e.dispatch(msg)
	}
	// A session opened on an already-degraded fleet starts with the dead
	// members departed, exactly as if they died a moment later.
	for _, d := range m.deaths() {
		e.peerFailed(d.rank, d.cause)
	}
	return e, nil
}

// Close stops the pump and fails every open job endpoint. Pending buffered
// messages are dropped.
func (m *Mux) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	jobs := make([]*JobEndpoint, 0, len(m.jobs))
	for _, e := range m.jobs {
		jobs = append(jobs, e)
	}
	cur := m.cur
	m.mu.Unlock()

	for _, e := range jobs {
		e.Close()
	}
	if cur != nil {
		cur.Cancel()
	}
	m.wg.Wait()
	return nil
}

// pump is the demultiplexer: one wildcard receive at a time on the real
// endpoint, routed by the job id in the muxed header.
func (m *Mux) pump() {
	defer m.wg.Done()
	for {
		req := m.ep.Irecv(Any, Any)
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			req.Cancel()
			return
		}
		m.cur = req
		m.mu.Unlock()
		req.Wait()
		if req.Canceled() {
			m.failAll()
			return
		}
		m.route(req)
	}
}

// failAll marks every open job's communicator failed — the pump is gone
// (mux closed or the underlying endpoint died), so no receive or barrier
// can ever complete again.
func (m *Mux) failAll() {
	m.mu.Lock()
	m.closed = true
	jobs := make([]*JobEndpoint, 0, len(m.jobs))
	for _, e := range m.jobs {
		jobs = append(jobs, e)
	}
	m.mu.Unlock()
	for _, e := range jobs {
		e.fail()
	}
}

// route hands one completed receive of the real endpoint to its job. A
// message nobody will read — not a muxed frame, or for a closed job — is
// released on the spot.
func (m *Mux) route(req Request) {
	data := req.Data()
	if len(data) < muxHeaderLen {
		req.Release() // not a muxed frame; drop
		return
	}
	job := binary.BigEndian.Uint32(data)
	msg := muxMsg{source: req.Source(), tag: req.Tag(), kind: data[4], data: data[muxHeaderLen:], up: req}
	m.mu.Lock()
	e, open := m.jobs[job]
	if !open {
		keep := !m.closedJ[job] && job >= m.closedLo && !m.closed
		if keep {
			m.pending[job] = append(m.pending[job], msg)
		}
		m.mu.Unlock()
		if !keep {
			req.Release()
		}
		return
	}
	m.mu.Unlock()
	e.dispatch(msg)
}

// Depths reports the mux's occupancy: open job sessions, messages buffered
// for jobs not yet opened, and the total unmatched backlog across the open
// sessions' mailboxes.
// BarrierTotals aggregates the barriers of every job session this mux ever
// carried, including sessions already closed. This is where per-job barrier
// activity is visible on a long-lived server: the root endpoint's
// BarrierStats only counts collectives run directly on it (trace gathers,
// shutdown), not the muxed per-job ones.
func (m *Mux) BarrierTotals() BarrierStats { return m.barTotal.stats() }

func (m *Mux) Depths() (open, pending, backlog int) {
	m.mu.Lock()
	open = len(m.jobs)
	for _, msgs := range m.pending {
		pending += len(msgs)
	}
	jobs := make([]*JobEndpoint, 0, len(m.jobs))
	for _, e := range m.jobs {
		jobs = append(jobs, e)
	}
	m.mu.Unlock()
	for _, e := range jobs {
		backlog += e.mb.depth()
	}
	return open, pending, backlog
}

// compact advances the closed-below watermark. Job ids are allocated
// monotonically, so the ever-growing run of retired ids at the bottom can
// be summarized by one bound instead of one closedJ entry per job for the
// life of the mux; only the (small) set of ids closed out of order above
// the watermark keeps an entry. Ids still open — the long-lived control
// job — are stepped over: they live in m.jobs, which route and Open
// consult before the watermark, and a later Close below the watermark
// needs no entry at all. Callers hold m.mu.
func (m *Mux) compact() {
	for {
		if m.closedJ[m.closedLo] {
			delete(m.closedJ, m.closedLo)
		} else if _, open := m.jobs[m.closedLo]; !open {
			return
		}
		m.closedLo++
	}
}

// JobEndpoint is one job's virtual rank endpoint over a Mux. It implements
// Endpoint; the runtime's proxy and the gather path use it exactly like a
// dedicated communicator. Ranks are virtual: member i of the session's
// (sorted) member set is rank i, whatever its real rank in the fleet.
type JobEndpoint struct {
	mux     *Mux
	job     uint32
	members []int // virtual rank → real rank
	vrank   []int // real rank → virtual rank, -1 for non-members
	self    int   // own virtual rank

	mb  *mailbox
	bar *barrierState

	failureLog // member deaths, in virtual ranks

	closed    atomic.Bool
	msgs      atomic.Int64
	bytes     atomic.Int64
	recvMsgs  atomic.Int64
	recvBytes atomic.Int64
	barT      barrierCtrs
}

func (e *JobEndpoint) dispatch(msg muxMsg) {
	src := e.vrank[msg.source]
	if src < 0 {
		msg.up.Release() // not a member of this session
		return
	}
	switch msg.kind {
	case muxData:
		e.recvMsgs.Add(1)
		e.recvBytes.Add(int64(len(msg.data)))
		e.mb.push(envelope{source: src, tag: msg.tag, data: msg.data, up: msg.up})
	default:
		e.bar.handle(src, msg.tag, msg.kind-muxBarrier)
		msg.up.Release()
	}
}

// peerFailed departs one real rank from this session: its receives cancel,
// its barriers stop waiting for it, and the session's failure observers
// hear about it (in virtual rank terms) exactly once.
func (e *JobEndpoint) peerFailed(real int, err error) {
	if real < 0 || real >= len(e.vrank) {
		return
	}
	v := e.vrank[real]
	if v < 0 || e.closed.Load() {
		return
	}
	fns, first := e.recordDeath(v, err)
	if !first {
		return
	}
	e.bar.depart(v, fmt.Errorf("transport: job %d member %d (rank %d) is gone: %w", e.job, v, real, err))
	e.mb.depart(v)
	for _, fn := range fns {
		fn(v, err)
	}
}

func (e *JobEndpoint) fail() {
	e.bar.fail(ErrClosed)
	e.mb.fail()
}

// Job returns the job id this endpoint serves.
func (e *JobEndpoint) Job() uint32 { return e.job }

// Members returns the session's member set: real rank Members()[i] is
// virtual rank i.
func (e *JobEndpoint) Members() []int {
	return append([]int(nil), e.members...)
}

func (e *JobEndpoint) Rank() int { return e.self }
func (e *JobEndpoint) Size() int { return len(e.members) }

func (e *JobEndpoint) OnArrival(fn func()) { e.mb.setNotify(fn) }

func (e *JobEndpoint) Stats() (messages, bytes int64) {
	return e.msgs.Load(), e.bytes.Load()
}

// IOStats returns this job session's traffic in both directions.
func (e *JobEndpoint) IOStats() (sentMsgs, sentBytes, recvMsgs, recvBytes int64) {
	return e.msgs.Load(), e.bytes.Load(), e.recvMsgs.Load(), e.recvBytes.Load()
}

// Backlog returns the number of delivered-but-unmatched messages sitting in
// this job's mailbox — the channel occupancy of the session.
func (e *JobEndpoint) Backlog() int { return e.mb.depth() }

// BarrierStats reports how many of this job's barriers completed and the
// total wait.
func (e *JobEndpoint) BarrierStats() BarrierStats { return e.barT.stats() }

// send ships prefix and data behind the muxed header on the real endpoint,
// translating the virtual destination to its real rank: the real endpoint
// writes header, prefix and data straight into its frame.
func (e *JobEndpoint) send(kind byte, prefix, data []byte, dest, tag int) {
	hdr := make([]byte, muxHeaderLen, muxHeaderLen+len(prefix))
	binary.BigEndian.PutUint32(hdr, e.job)
	hdr[4] = kind
	e.mux.ep.IsendPrefixed(append(hdr, prefix...), data, e.members[dest], tag)
}

// Isend sends data to dest with the given tag within this job. Payloads are
// copied into the muxed frame before return, preserving the eager-send
// contract. Sends on a closed job endpoint are dropped (a canceled job's
// stragglers).
func (e *JobEndpoint) Isend(data []byte, dest, tag int) Request {
	return e.IsendPrefixed(nil, data, dest, tag)
}

// IsendPrefixed is Isend of prefix followed by data.
func (e *JobEndpoint) IsendPrefixed(prefix, data []byte, dest, tag int) Request {
	if dest < 0 || dest >= len(e.members) {
		panic(fmt.Sprintf("transport: job %d Isend to rank %d out of session of %d", e.job, dest, len(e.members)))
	}
	if !e.closed.Load() {
		e.msgs.Add(1)
		e.bytes.Add(int64(len(prefix) + len(data)))
		e.send(muxData, prefix, data, dest, tag)
	}
	return &netRequest{done: true, source: dest, tag: tag}
}

// Irecv posts a receive for (source|Any, tag|Any) within this job.
func (e *JobEndpoint) Irecv(source, tag int) Request {
	req := &netRequest{isRecv: true, source: source, tag: tag, mb: e.mb}
	e.mb.post(req)
	return req
}

// Barrier blocks until every member has entered this job's barrier:
// barrierState.wait's protocol over the session's virtual ranks, each phase
// byte carried in a muxed control message. Like the TCP barrier it is
// departure-aware: a member reported dead fails the barriers it never
// entered, with the death as the cause, instead of hanging until a timeout.
func (e *JobEndpoint) Barrier() error {
	start := time.Now()
	err := e.bar.wait(func(to, gen int, phase byte) { e.send(muxBarrier+phase, nil, nil, to, gen) })
	e.barT.observe(start)
	e.mux.barTotal.observe(start)
	return err
}

// Close retires the job id: posted receives and barrier waits are failed,
// and later arrivals for this job are dropped by the pump. The underlying
// endpoint is untouched.
func (e *JobEndpoint) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	m := e.mux
	m.mu.Lock()
	delete(m.jobs, e.job)
	delete(m.pending, e.job)
	if e.job >= m.closedLo {
		m.closedJ[e.job] = true
		m.compact()
	}
	m.mu.Unlock()
	e.bar.fail(errJobClosed)
	e.mb.fail()
	return nil
}
