package transport

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Schedule is a seeded, deterministic fault plan for a Chaos endpoint.
// Every message's fate — dropped, duplicated, delayed — is decided by a
// per-destination PRNG derived from Seed, so two runs issuing the same
// per-link send sequence draw the same verdicts in the same order and the
// FaultLog compares byte-identical. Sever and kill events fire on message
// counts, not wall-clock, for the same reason.
type Schedule struct {
	// Seed derives every per-link PRNG; the same seed and the same
	// per-link send sequence reproduce the same fault sequence exactly.
	Seed int64
	// Drop is the probability in [0,1] that a message's first transmission
	// is lost (the retransmit protocol recovers it).
	Drop float64
	// Duplicate is the probability that a message is transmitted twice
	// (the receiver deduplicates).
	Duplicate float64
	// DelayP50 and DelayP95 shape the injected latency distribution: half
	// of all messages are delayed up to DelayP50, 95% up to DelayP95, with
	// a linear tail capped near 2×DelayP95. Zero injects no delay.
	DelayP50 time.Duration
	DelayP95 time.Duration
	// Sever lists link-cut events: when the AtFrame-th message (counting
	// per destination, from 1) is about to go to Peer, the link is severed.
	// On a substrate implementing LinkSeverer (TCP) the real connections
	// are cut and the substrate's reconnect machinery must repair them;
	// otherwise the link goes dark for For and the retransmit protocol
	// carries the traffic across the gap.
	Sever []SeverEvent
	// KillAtFrame, when positive, kills this rank abruptly when its
	// KillAtFrame-th message (counting across all destinations) is sent:
	// Crash() on a substrate implementing Crasher, else a local blackout.
	KillAtFrame int64
	// RetransmitInterval is the resend cadence for unacknowledged
	// messages. Default 20ms.
	RetransmitInterval time.Duration
}

// SeverEvent cuts the link to Peer when this rank's AtFrame-th message to
// it (counting from 1) is about to be sent.
type SeverEvent struct {
	Peer    int
	AtFrame int64
	// For is how long the link stays dark on substrates without a real
	// LinkSeverer. Default 50ms.
	For time.Duration
}

// Chaos message kinds, first byte of every payload on the underlying
// endpoint.
const (
	chaosData byte = 1
	chaosAck  byte = 2
)

const (
	chaosDataHdr = 1 + 4 + 4 // kind, seq, tag
	chaosAckLen  = 1 + 4     // kind, cumulative ack
	chaosAckEach = 4         // ack cadence: one cumulative ack per this many deliveries
)

// Chaos wraps an Endpoint with a deterministic fault injector and the
// retransmission protocol that makes the faults survivable: every message
// gets a per-link sequence number and is retained until the receiver's
// cumulative acknowledgement covers it; the receiver reorders by sequence
// number and deduplicates, so messages above the Chaos surface arrive
// exactly once, in per-link order — drops, duplicates and delays below are
// invisible except as latency. That is the property the chaos tests
// exercise: a factorization over a lossy link must still match the
// sequential oracle bit for bit.
//
// Chaos works on any substrate. On TCP it composes with the substrate's
// own resilience: a Sever event cuts the real connections (LinkSeverer)
// and the TCP reconnect layer repairs them, while Chaos's retransmission
// covers whatever the gap swallowed.
type Chaos struct {
	ep  Endpoint
	sch Schedule
	mb  *mailbox

	rank, size int

	send []*chaosSender // per-destination, nil at own rank
	recv []*chaosRecver // per-source, nil at own rank

	sendN  atomic.Int64 // messages across all destinations (kill trigger)
	killed atomic.Bool

	pendMu  sync.Mutex
	pending Request // the pump's outstanding wildcard receive

	failureLog // the underlying endpoint's deaths, as seen through the wrapper

	closed    atomic.Bool
	closeOnce sync.Once
	retick    *time.Ticker
	stopRe    chan struct{}
	wg        sync.WaitGroup

	msgs, bytes atomic.Int64
}

// chaosSender is the per-destination send half: sequence numbers, the
// unacked retransmission window, the fault PRNG and its verdict log.
type chaosSender struct {
	mu      sync.Mutex
	dst     int
	nextSeq uint32
	window  map[uint32][]byte // seq → encoded chaos frame awaiting ack
	rng     *rand.Rand
	frames  int64 // first transmissions on this link (sever trigger)
	dark    time.Time
	severed []bool // per Schedule.Sever event: already fired?
	log     []byte
}

// chaosRecver is the per-source receive half: the next expected sequence
// number, the reorder buffer, and the ack cadence counter.
type chaosRecver struct {
	mu     sync.Mutex
	expect uint32
	buf    map[uint32]envelope
	nAcked int
}

// NewChaos wraps ep with the fault schedule sch. The wrapper owns all
// traffic on ep (it posts a wildcard receive pump); use the Chaos endpoint
// exclusively once created. Closing the Chaos does not close ep.
func NewChaos(ep Endpoint, sch Schedule) *Chaos {
	if sch.RetransmitInterval <= 0 {
		sch.RetransmitInterval = 20 * time.Millisecond
	}
	for i := range sch.Sever {
		if sch.Sever[i].For <= 0 {
			sch.Sever[i].For = 50 * time.Millisecond
		}
	}
	size := ep.Size()
	c := &Chaos{
		ep:     ep,
		sch:    sch,
		mb:     newMailbox(size),
		rank:   ep.Rank(),
		size:   size,
		send:   make([]*chaosSender, size),
		recv:   make([]*chaosRecver, size),
		stopRe: make(chan struct{}),
	}
	for j := 0; j < size; j++ {
		if j == c.rank {
			continue
		}
		// One PRNG per ordered link, derived from the seed and both rank
		// ids: the verdict stream of link (i→j) depends only on the seed
		// and the sequence of sends on that link.
		c.send[j] = &chaosSender{
			dst:     j,
			window:  map[uint32][]byte{},
			rng:     rand.New(rand.NewSource(sch.Seed ^ int64(c.rank)<<20 ^ int64(j)<<4 ^ 0x5eed)),
			severed: make([]bool, len(sch.Sever)),
		}
		c.recv[j] = &chaosRecver{buf: map[uint32]envelope{}}
	}
	if fo, ok := ep.(FailureObserver); ok {
		fo.OnPeerFailure(func(rank int, err error) {
			fns, _ := c.recordDeath(rank, err)
			c.mb.depart(rank)
			for _, fn := range fns {
				fn(rank, err)
			}
		})
	}
	c.retick = time.NewTicker(sch.RetransmitInterval)
	c.wg.Add(2)
	go c.pump()
	go c.retransmitLoop()
	return c
}

func (c *Chaos) Rank() int { return c.rank }
func (c *Chaos) Size() int { return c.size }

func (c *Chaos) OnArrival(fn func()) { c.mb.setNotify(fn) }

func (c *Chaos) Stats() (messages, bytes int64) {
	return c.msgs.Load(), c.bytes.Load()
}

// Barrier delegates to the underlying endpoint: barrier traffic is control
// plane, not subject to injected faults (MPI semantics make no delivery
// promise at a barrier either way).
func (c *Chaos) Barrier() error { return c.ep.Barrier() }

// Isend sends data to dest with the given tag, subjecting the message's
// first transmission to the schedule's fault draws. The payload is copied
// before return; delivery above the receiving Chaos happens exactly once,
// in per-link order, whatever happens on the wire in between.
func (c *Chaos) Isend(data []byte, dest, tag int) Request {
	if dest < 0 || dest >= c.size {
		panic(fmt.Sprintf("transport: chaos Isend to rank %d out of world of %d", dest, c.size))
	}
	c.msgs.Add(1)
	c.bytes.Add(int64(len(data)))
	if dest == c.rank {
		buf := make([]byte, len(data))
		copy(buf, data)
		c.mb.push(envelope{source: c.rank, tag: tag, data: buf})
		return &netRequest{done: true, source: dest, tag: tag}
	}
	if c.killed.Load() || c.closed.Load() {
		return &netRequest{done: true, source: dest, tag: tag}
	}

	if k := c.sch.KillAtFrame; k > 0 && c.sendN.Add(1) == k {
		c.kill()
		return &netRequest{done: true, source: dest, tag: tag}
	}

	s := c.send[dest]
	s.mu.Lock()
	seq := s.nextSeq
	s.nextSeq++
	frame := make([]byte, chaosDataHdr+len(data))
	frame[0] = chaosData
	binary.BigEndian.PutUint32(frame[1:], seq)
	binary.BigEndian.PutUint32(frame[5:], uint32(tag))
	copy(frame[chaosDataHdr:], data)
	s.window[seq] = frame
	s.frames++

	// Sever events fire on the per-link message count, before the fault
	// draws, so they do not disturb the PRNG stream.
	for i, ev := range c.sch.Sever {
		if !s.severed[i] && ev.Peer == dest && s.frames == ev.AtFrame {
			s.severed[i] = true
			s.log = append(s.log, '!')
			if sv, ok := c.ep.(LinkSeverer); ok {
				sv.SeverLink(dest)
			} else {
				s.dark = time.Now().Add(ev.For)
			}
		}
	}

	// Exactly three draws per message, whatever the verdict, so the
	// stream stays aligned and the log replays byte-identically.
	uDrop := s.rng.Float64()
	uDup := s.rng.Float64()
	uDelay := s.rng.Float64()
	verdict := byte('.')
	var delay time.Duration
	switch {
	case uDrop < c.sch.Drop:
		verdict = 'x'
	case uDup < c.sch.Duplicate:
		verdict = '2'
	default:
		if delay = c.sch.delay(uDelay); delay > 0 {
			s.log = append(s.log, '~')
			s.log = appendMicros(s.log, delay)
			s.log = append(s.log, ';')
		}
	}
	if verdict != '.' || delay == 0 {
		s.log = append(s.log, verdict)
	}
	dark := !s.dark.IsZero() && time.Now().Before(s.dark)
	s.mu.Unlock()

	switch {
	case verdict == 'x' || dark:
		// Lost: the retransmit loop recovers it from the window.
	case delay > 0:
		d := delay
		time.AfterFunc(d, func() {
			if !c.closed.Load() && !c.killed.Load() {
				c.ep.Isend(frame, dest, 0)
			}
		})
	default:
		c.ep.Isend(frame, dest, 0)
		if verdict == '2' {
			c.ep.Isend(frame, dest, 0)
		}
	}
	return &netRequest{done: true, source: dest, tag: tag}
}

func (c *Chaos) Irecv(source, tag int) Request {
	req := &netRequest{isRecv: true, source: source, tag: tag, mb: c.mb}
	c.mb.post(req)
	return req
}

// delay maps one uniform draw to the schedule's latency distribution.
func (s *Schedule) delay(u float64) time.Duration {
	p50, p95 := s.DelayP50, s.DelayP95
	if p50 <= 0 && p95 <= 0 {
		return 0
	}
	if p95 < p50 {
		p95 = p50
	}
	switch {
	case u < 0.5:
		return time.Duration(2 * u * float64(p50))
	case u < 0.95:
		return p50 + time.Duration((u-0.5)/0.45*float64(p95-p50))
	default:
		return p95 + time.Duration((u-0.95)/0.05*float64(p95))
	}
}

// appendMicros appends the delay rounded to microseconds in decimal.
func appendMicros(b []byte, d time.Duration) []byte {
	us := d.Microseconds()
	if us == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for us > 0 {
		i--
		tmp[i] = byte('0' + us%10)
		us /= 10
	}
	return append(b, tmp[i:]...)
}

// FaultLog renders every link's verdict sequence — 'x' drop, '2'
// duplicate, '~<µs>;' delay, '.' clean, '!' sever — one line per
// destination. Two runs with the same seed and per-link send sequence
// produce byte-identical logs; the replay test asserts exactly that.
func (c *Chaos) FaultLog() string {
	var dsts []int
	for j, s := range c.send {
		if s != nil {
			dsts = append(dsts, j)
		}
	}
	sort.Ints(dsts)
	out := make([]byte, 0, 256)
	for _, j := range dsts {
		s := c.send[j]
		s.mu.Lock()
		out = append(out, fmt.Sprintf("->%d:", j)...)
		out = append(out, s.log...)
		out = append(out, '\n')
		s.mu.Unlock()
	}
	return string(out)
}

// pump owns the underlying endpoint's receive side: one wildcard receive
// at a time, demultiplexing data frames through the per-source reorder
// buffer and acks into the senders' windows.
func (c *Chaos) pump() {
	defer c.wg.Done()
	for {
		if c.closed.Load() || c.killed.Load() {
			return
		}
		req := c.ep.Irecv(Any, Any)
		c.pendMu.Lock()
		c.pending = req
		c.pendMu.Unlock()
		if c.closed.Load() || c.killed.Load() {
			// The stop landed between the check above and the registration:
			// its cancelPending saw the previous receive, not this one.
			req.Cancel()
		}
		req.Wait()
		if req.Canceled() {
			return
		}
		c.handle(req.Source(), req.Data())
	}
}

func (c *Chaos) handle(src int, msg []byte) {
	if len(msg) < 1 || src == c.rank {
		return
	}
	switch msg[0] {
	case chaosAck:
		if len(msg) != chaosAckLen {
			return
		}
		ack := binary.BigEndian.Uint32(msg[1:])
		s := c.send[src]
		if s == nil {
			return
		}
		s.mu.Lock()
		for seq := range s.window {
			if seq < ack {
				delete(s.window, seq)
			}
		}
		s.mu.Unlock()
	case chaosData:
		if len(msg) < chaosDataHdr {
			return
		}
		r := c.recv[src]
		if r == nil {
			return
		}
		seq := binary.BigEndian.Uint32(msg[1:])
		tag := int(binary.BigEndian.Uint32(msg[5:]))
		env := envelope{source: src, tag: tag, data: msg[chaosDataHdr:]}
		var deliver []envelope
		ackNow := false
		r.mu.Lock()
		switch {
		case seq < r.expect:
			// Duplicate of something already delivered: re-ack so the
			// sender stops retransmitting it.
			ackNow = true
		case seq == r.expect:
			deliver = append(deliver, env)
			r.expect++
			for {
				next, ok := r.buf[r.expect]
				if !ok {
					break
				}
				delete(r.buf, r.expect)
				deliver = append(deliver, next)
				r.expect++
			}
			r.nAcked += len(deliver)
			if r.nAcked >= chaosAckEach {
				r.nAcked = 0
				ackNow = true
			}
		default: // a gap: hold for reorder, tell the sender where we are
			r.buf[seq] = env
			ackNow = true
		}
		expect := r.expect
		r.mu.Unlock()
		for _, e := range deliver {
			c.mb.push(e)
		}
		if ackNow {
			c.sendAck(src, expect)
		}
	}
}

func (c *Chaos) sendAck(src int, expect uint32) {
	if c.closed.Load() || c.killed.Load() {
		return
	}
	var ack [chaosAckLen]byte
	ack[0] = chaosAck
	binary.BigEndian.PutUint32(ack[1:], expect)
	c.ep.Isend(ack[:], src, 0)
}

// retransmitLoop resends every unacknowledged message on the schedule's
// cadence. Retransmissions bypass the fault draws — only a message's first
// transmission consumes PRNG verdicts — so the fault log stays exactly
// reproducible while delivery remains guaranteed.
func (c *Chaos) retransmitLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stopRe:
			return
		case <-c.retick.C:
		}
		if c.closed.Load() || c.killed.Load() {
			return
		}
		for j, s := range c.send {
			if s == nil {
				continue
			}
			s.mu.Lock()
			if !s.dark.IsZero() && time.Now().Before(s.dark) {
				s.mu.Unlock()
				continue
			}
			frames := make([][]byte, 0, len(s.window))
			for _, f := range s.window {
				frames = append(frames, f)
			}
			s.mu.Unlock()
			for _, f := range frames {
				if c.closed.Load() || c.killed.Load() {
					return
				}
				c.ep.Isend(f, j, 0)
			}
		}
	}
}

// kill simulates this rank dying mid-send: on a Crasher substrate the real
// connections are torn down with no goodbye; everywhere the local mailbox
// blacks out and the pump and retransmissions stop, so nothing is sent or
// delivered past the kill point.
func (c *Chaos) kill() {
	if !c.killed.CompareAndSwap(false, true) {
		return
	}
	if cr, ok := c.ep.(Crasher); ok {
		cr.Crash()
	}
	c.cancelPending()
	c.mb.fail()
}

func (c *Chaos) cancelPending() {
	c.pendMu.Lock()
	req := c.pending
	c.pendMu.Unlock()
	if req != nil {
		req.Cancel()
	}
}

// Close stops the wrapper — pump, retransmissions, pending timers lapse —
// without closing the underlying endpoint (the caller owns that).
func (c *Chaos) Close() error {
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		close(c.stopRe)
		c.retick.Stop()
		c.cancelPending()
		c.wg.Wait()
		c.mb.fail()
	})
	return nil
}
