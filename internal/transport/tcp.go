package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pulsarqr/internal/slab"
)

// TCPConfig configures one rank of a TCP communicator.
type TCPConfig struct {
	// Rank is this process's rank in [0, len(Peers)).
	Rank int
	// Peers lists every rank's address ("host:port"), own rank included;
	// Peers[Rank] is the address this endpoint listens on.
	Peers []string
	// Listener, when non-nil, is a pre-bound listener used instead of
	// binding Peers[Rank] — no port race (ListenLoopback makes them).
	Listener net.Listener
	// RendezvousTimeout bounds the whole mesh setup: dialing every peer
	// (with retry/backoff) and receiving every peer's hello. Default 15s.
	RendezvousTimeout time.Duration
	// DialBackoff is the initial delay between dial retries; it doubles up
	// to 1s. Default 25ms.
	DialBackoff time.Duration
	// Reconnect, when positive, turns on transparent link repair: a
	// connection that breaks without the clean-shutdown bye is redialed
	// with capped exponential backoff plus jitter for up to this long, and
	// unacknowledged frames are re-sent from a bounded window, so a
	// transient link drop is invisible above the Endpoint surface. Only
	// past the budget is the peer declared dead (a *PeerDeathError reaches
	// the FailureObserver callbacks). Every rank of a mesh must agree on
	// whether Reconnect is on: the acknowledgement stream that resend
	// depends on is only produced by reconnect-enabled receivers. Zero
	// (the default) keeps the original semantics — any connection loss is
	// an immediate departure — and changes nothing on the wire.
	Reconnect time.Duration
	// ReconnectBackoff is the initial delay between redial attempts after
	// an established link broke; it doubles, with jitter, up to 1s.
	// Default 10ms.
	ReconnectBackoff time.Duration
	// HeartbeatInterval, when positive, sends a heartbeat frame on every
	// link idle for that long, and drives the dead-peer monitor.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout declares a peer dead when nothing — data, barrier
	// or heartbeat traffic — arrived from it for this long. Zero takes
	// 4×HeartbeatInterval; ignored when HeartbeatInterval is zero.
	HeartbeatTimeout time.Duration
	// Logf, when non-nil, receives diagnostic messages (dropped stray
	// connections, write failures, link repairs).
	Logf func(format string, args ...any)
}

func (cfg TCPConfig) withDefaults() TCPConfig {
	if cfg.RendezvousTimeout <= 0 {
		cfg.RendezvousTimeout = 15 * time.Second
	}
	if cfg.DialBackoff <= 0 {
		cfg.DialBackoff = 25 * time.Millisecond
	}
	if cfg.ReconnectBackoff <= 0 {
		cfg.ReconnectBackoff = 10 * time.Millisecond
	}
	if cfg.HeartbeatInterval > 0 && cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 4 * cfg.HeartbeatInterval
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return cfg
}

const (
	// writeTimeout bounds each frame write so a wedged peer cannot block a
	// writer forever.
	writeTimeout = 30 * time.Second
	// unackedWindow bounds the frames retained per link for re-send while
	// Reconnect is on; overflowing it (acks not arriving for a whole window)
	// fails the link as dead.
	unackedWindow = 4096
	// ackEvery is the acknowledgement cadence of a reconnect-enabled
	// receiver: one cumulative FrameAck per this many received frames.
	ackEvery = 32
)

// DialTCP joins the TCP communicator described by cfg: it listens on its
// own address, dials every peer with retry/backoff, and waits until every
// peer has dialed in, so the full mesh is up when it returns. Each ordered
// rank pair (i → j) uses one dedicated connection carrying i's frames to j;
// the dialing side writes, the accepting side reads — see docs/TRANSPORT.md.
// With cfg.Reconnect set the accepting side also writes acknowledgement
// frames back on the same connection, which is what lets a redialing peer
// resume exactly where the broken connection left off.
func DialTCP(cfg TCPConfig) (Endpoint, error) {
	cfg = cfg.withDefaults()
	size := len(cfg.Peers)
	if size == 0 {
		return nil, fmt.Errorf("transport: empty peer list")
	}
	if cfg.Rank < 0 || cfg.Rank >= size {
		return nil, fmt.Errorf("transport: rank %d out of world of %d", cfg.Rank, size)
	}

	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Peers[cfg.Rank])
		if err != nil {
			return nil, fmt.Errorf("transport: rank %d cannot listen on %s: %w", cfg.Rank, cfg.Peers[cfg.Rank], err)
		}
	}

	ep := &tcpEndpoint{
		rank:         cfg.Rank,
		size:         size,
		ln:           ln,
		peerAddrs:    append([]string(nil), cfg.Peers...),
		reconnect:    cfg.Reconnect,
		reconBackoff: cfg.ReconnectBackoff,
		hbInterval:   cfg.HeartbeatInterval,
		hbTimeout:    cfg.HeartbeatTimeout,
		logf:         cfg.Logf,
		mb:           newMailbox(size),
		bar:          newBarrierState(cfg.Rank, size),
		peers:        make([]*peerLink, size),
		links:        make([]linkCtrs, size),
		rxCnt:        make([]atomic.Int64, size),
		lastRecv:     make([]atomic.Int64, size),
		helloSeen:    make([]bool, size),
		sawBye:       make([]atomic.Bool, size),
		inStates:     make([]*inConnState, size),
		deadTimers:   make(map[int]*time.Timer),
		stopHB:       make(chan struct{}),
	}
	ep.helloCond = sync.NewCond(&ep.connMu)
	ep.wg.Add(1)
	go ep.acceptLoop()

	deadline := time.Now().Add(cfg.RendezvousTimeout)

	// Dial every peer concurrently, retrying with exponential backoff
	// until the rendezvous deadline.
	dialErrs := make([]error, size)
	var dwg sync.WaitGroup
	for j := 0; j < size; j++ {
		if j == cfg.Rank {
			continue
		}
		dwg.Add(1)
		go func(j int) {
			defer dwg.Done()
			dialErrs[j] = ep.dialPeer(j, cfg.Peers[j], cfg.DialBackoff, deadline)
		}(j)
	}
	dwg.Wait()
	for j, err := range dialErrs {
		if err != nil {
			ep.Close()
			return nil, fmt.Errorf("transport: rank %d cannot reach rank %d at %s: %w",
				cfg.Rank, j, cfg.Peers[j], err)
		}
	}

	// Wait until every peer has dialed in (their hello identifies them).
	expire := time.AfterFunc(time.Until(deadline), func() {
		ep.connMu.Lock()
		ep.helloExpired = true
		ep.connMu.Unlock()
		ep.helloCond.Broadcast()
	})
	ep.connMu.Lock()
	for ep.helloCnt < size-1 && !ep.helloExpired {
		ep.helloCond.Wait()
	}
	ok := ep.helloCnt == size-1
	var missing []int
	if !ok {
		for j, seen := range ep.helloSeen {
			if j != cfg.Rank && !seen {
				missing = append(missing, j)
			}
		}
	}
	ep.connMu.Unlock()
	expire.Stop()
	if !ok {
		ep.Close()
		return nil, fmt.Errorf("transport: rank %d rendezvous timed out after %v waiting for ranks %v",
			cfg.Rank, cfg.RendezvousTimeout, missing)
	}
	if ep.hbInterval > 0 {
		now := time.Now().UnixNano()
		for j := range ep.lastRecv {
			ep.lastRecv[j].Store(now) // silence counts from mesh-up, not epoch
		}
		ep.wg.Add(1)
		go ep.heartbeatLoop()
	}
	return ep, nil
}

// dialPeer establishes the outbound connection to one peer, retrying with
// exponential backoff until the deadline, then sends the hello frame and
// starts the peer's writer goroutine (and, in reconnect mode, the ack
// reader for the connection's reverse direction).
func (ep *tcpEndpoint) dialPeer(j int, addr string, backoff time.Duration, deadline time.Time) error {
	const maxBackoff = time.Second
	var lastErr error
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			if lastErr == nil {
				lastErr = fmt.Errorf("dial budget exhausted")
			}
			return lastErr
		}
		attempt := 2 * time.Second
		if remaining < attempt {
			attempt = remaining
		}
		conn, err := net.DialTimeout("tcp", addr, attempt)
		if err == nil {
			conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			err = WriteFrame(conn, Frame{Type: FrameHello, Rank: ep.rank})
			conn.SetWriteDeadline(time.Time{})
			if err == nil {
				p := newPeerLink(conn)
				ep.peers[j] = p
				ep.wg.Add(1)
				go func() {
					defer ep.wg.Done()
					ep.writeLoop(j, p)
				}()
				if ep.reconnect > 0 {
					ep.wg.Add(1)
					go func() {
						defer ep.wg.Done()
						ep.ackLoop(p, conn)
					}()
				}
				return nil
			}
			conn.Close()
		}
		lastErr = err
		if time.Now().Add(backoff).After(deadline) {
			return lastErr
		}
		time.Sleep(backoff)
		backoff *= 2
		if backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// tcpEndpoint is one rank of a TCP communicator.
type tcpEndpoint struct {
	rank, size   int
	ln           net.Listener
	peerAddrs    []string
	reconnect    time.Duration
	reconBackoff time.Duration
	hbInterval   time.Duration
	hbTimeout    time.Duration
	logf         func(string, ...any)

	mb  *mailbox
	bar *barrierState

	peers []*peerLink // outbound links; nil at own rank

	connMu       sync.Mutex
	helloCond    *sync.Cond
	inConns      []net.Conn
	helloSeen    []bool
	helloCnt     int
	helloExpired bool
	inStates     []*inConnState      // per-src inbound connection ownership
	deadTimers   map[int]*time.Timer // pending dead-peer verdicts awaiting a re-hello

	failureLog // peer departures: a clean shutdown, a crash, a budget exhausted

	sawBye []atomic.Bool // peers that announced a clean shutdown

	closed    atomic.Bool
	closeOnce sync.Once
	hbOnce    sync.Once
	stopHB    chan struct{}
	wg        sync.WaitGroup

	msgs     atomic.Int64
	bytes    atomic.Int64
	links    []linkCtrs     // per-peer traffic counters, indexed by rank
	rxCnt    []atomic.Int64 // per-peer cumulative received stream frames (ack protocol)
	lastRecv []atomic.Int64 // per-peer unixnano of the last arrival (heartbeat monitor)
	barT     barrierCtrs
}

// inConnState serializes ownership of the inbound connection from one
// source rank: a re-hello closes the previous connection and waits for its
// reader to drain before the new one reports a resume point, so the
// cumulative receive count can never miss frames still buffered in a dying
// connection.
type inConnState struct {
	conn net.Conn
	done chan struct{}
}

func (ep *tcpEndpoint) Rank() int { return ep.rank }
func (ep *tcpEndpoint) Size() int { return ep.size }

func (ep *tcpEndpoint) OnArrival(fn func()) { ep.mb.setNotify(fn) }

func (ep *tcpEndpoint) Stats() (messages, bytes int64) {
	return ep.msgs.Load(), ep.bytes.Load()
}

// Isend sends data to dest with the given tag. The payload is serialized
// into a frame before return, so the caller may reuse its buffer; delivery
// is asynchronous through the peer's writer goroutine.
func (ep *tcpEndpoint) Isend(data []byte, dest, tag int) Request {
	return ep.IsendPrefixed(nil, data, dest, tag)
}

// IsendPrefixed is Isend of prefix followed by data. The frame is encoded
// into warm storage (slab.Bytes), which the peer's writer gives back once the
// bytes are on the wire, or acknowledged with reconnect on; a message to
// this rank itself arrives in warm storage.
func (ep *tcpEndpoint) IsendPrefixed(prefix, data []byte, dest, tag int) Request {
	if dest < 0 || dest >= ep.size {
		panic(fmt.Sprintf("transport: Isend to rank %d out of world of %d", dest, ep.size))
	}
	if tag < 0 || tag > MaxTag {
		panic(fmt.Sprintf("transport: Isend tag %d out of range", tag))
	}
	n := len(prefix) + len(data)
	ep.msgs.Add(1)
	ep.bytes.Add(int64(n))
	lc := &ep.links[dest]
	lc.sentFrames.Add(1)
	lc.sentBytes.Add(int64(n))
	if dest == ep.rank {
		lc.recvFrames.Add(1)
		lc.recvBytes.Add(int64(n))
		buf := slab.Bytes.Take(n)
		copy(buf[copy(buf, prefix):], data)
		ep.mb.push(envelope{source: ep.rank, tag: tag, data: buf, warm: true})
	} else {
		fb := appendFrame(slab.Bytes.Take(HeaderLen + n)[:0], FrameData, ep.rank, tag, prefix, data)
		ep.peers[dest].enqueue(fb, true)
	}
	return &netRequest{done: true, source: dest, tag: tag}
}

// Irecv posts a receive for (source|Any, tag|Any). On a failed or closed
// endpoint the returned request is already canceled, never left hanging.
func (ep *tcpEndpoint) Irecv(source, tag int) Request {
	if source != Any && (source < 0 || source >= ep.size) {
		panic(fmt.Sprintf("transport: Irecv source %d out of world of %d", source, ep.size))
	}
	if tag != Any && (tag < 0 || tag > MaxTag) {
		panic(fmt.Sprintf("transport: Irecv tag %d out of range", tag))
	}
	req := &netRequest{isRecv: true, source: source, tag: tag, mb: ep.mb}
	ep.mb.post(req)
	return req
}

// fail marks the communicator broken (protocol corruption): every posted
// receive is canceled and every barrier waiter errors out.
func (ep *tcpEndpoint) fail(err error) {
	ep.logf("transport: rank %d: %v", ep.rank, err)
	ep.bar.fail(err)
	ep.mb.fail()
}

// peerLost records that a peer is gone — a clean shutdown, a crash, or a
// reconnect/heartbeat budget exhausted. Only operations that can no longer
// complete are failed: posted receives naming that source, and barrier
// waits still missing that peer's participation. Everything else — data
// already in flight from other peers, barrier releases already on the
// wire — proceeds, which is what lets ranks shut down in their natural
// staggered order. Registered FailureObserver callbacks fire exactly once
// per peer, outside the locks.
func (ep *tcpEndpoint) peerLost(src int, err error) {
	var pde *PeerDeathError
	if !errors.As(err, &pde) {
		pde = &PeerDeathError{Rank: src, Err: err}
	}
	fns, first := ep.recordDeath(src, pde)
	if !first {
		return
	}
	ep.logf("transport: rank %d lost peer %d: %v", ep.rank, src, err)
	ep.bar.depart(src, fmt.Errorf("transport: rank %d is gone: %w", src, err))
	ep.mb.depart(src)
	for _, fn := range fns {
		fn(src, pde)
	}
}

func (ep *tcpEndpoint) acceptLoop() {
	defer ep.wg.Done()
	for {
		conn, err := ep.ln.Accept()
		if err != nil {
			return // listener closed
		}
		ep.connMu.Lock()
		ep.inConns = append(ep.inConns, conn)
		ep.connMu.Unlock()
		ep.wg.Add(1)
		go func() {
			defer ep.wg.Done()
			ep.readLoop(conn)
		}()
	}
}

// claimInbound takes ownership of the inbound direction from src: the
// previous connection (a broken one being replaced after a redial) is
// closed and fully drained first, and any pending dead-peer verdict for
// src is disarmed. It returns the done channel the owning reader must
// close on exit.
func (ep *tcpEndpoint) claimInbound(src int, conn net.Conn) chan struct{} {
	done := make(chan struct{})
	ep.connMu.Lock()
	st := ep.inStates[src]
	var prevConn net.Conn
	var prevDone chan struct{}
	if st != nil {
		prevConn, prevDone = st.conn, st.done
	}
	ep.inStates[src] = &inConnState{conn: conn, done: done}
	if t := ep.deadTimers[src]; t != nil {
		t.Stop()
		delete(ep.deadTimers, src)
	}
	ep.connMu.Unlock()
	if prevConn != nil {
		prevConn.Close()
		<-prevDone
	}
	return done
}

// ownsInbound reports whether conn is still the registered inbound
// connection from src (false once a re-hello replaced it).
func (ep *tcpEndpoint) ownsInbound(src int, conn net.Conn) bool {
	ep.connMu.Lock()
	defer ep.connMu.Unlock()
	return ep.inStates[src] != nil && ep.inStates[src].conn == conn
}

// armDeadVerdict schedules the dead-peer verdict for src: unless a
// re-hello arrives within the reconnect budget, the peer is declared dead.
func (ep *tcpEndpoint) armDeadVerdict(src int, cause error) {
	ep.connMu.Lock()
	defer ep.connMu.Unlock()
	if ep.deadTimers[src] != nil || ep.closed.Load() {
		return
	}
	ep.deadTimers[src] = time.AfterFunc(ep.reconnect, func() {
		ep.peerLost(src, &PeerDeathError{Rank: src,
			Err: fmt.Errorf("no reconnect within %v: %w", ep.reconnect, cause)})
	})
}

// sendAck writes one cumulative acknowledgement for src's stream on the
// reverse direction of its inbound connection. Failures are ignored: a
// broken connection surfaces through its read side.
func (ep *tcpEndpoint) sendAck(src int, conn net.Conn) {
	var payload [8]byte
	binary.BigEndian.PutUint64(payload[:], uint64(ep.rxCnt[src].Load()))
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	WriteFrame(conn, Frame{Type: FrameAck, Rank: ep.rank, Payload: payload[:]})
	conn.SetWriteDeadline(time.Time{})
}

// readLoop serves one inbound connection: a hello frame identifies the
// sender, then data frames are demultiplexed into the mailbox (where the
// runtime's tag/source matching picks them up) and barrier frames into the
// barrier state. In reconnect mode it also acknowledges the stream back to
// the sender, and a dropped connection is held open for a re-hello (for up
// to the reconnect budget) instead of immediately departing the peer.
func (ep *tcpEndpoint) readLoop(conn net.Conn) {
	f, err := ReadFrame(conn)
	if err != nil || f.Type != FrameHello || f.Rank < 0 || f.Rank >= ep.size || f.Rank == ep.rank {
		// A stray or malformed connection (port scan, misconfiguration):
		// drop it without failing the communicator.
		ep.logf("transport: rank %d dropped stray connection from %v", ep.rank, conn.RemoteAddr())
		conn.Close()
		return
	}
	src := f.Rank
	done := ep.claimInbound(src, conn)
	defer close(done)
	ep.connMu.Lock()
	if !ep.helloSeen[src] {
		ep.helloSeen[src] = true
		ep.helloCnt++
	}
	ep.connMu.Unlock()
	ep.helloCond.Broadcast()
	if ep.reconnect > 0 {
		// The resume point: everything before it arrived, everything after
		// it the (re)dialing sender must (re)send.
		ep.sendAck(src, conn)
	}

	for {
		f, err := ReadFrame(conn)
		if err != nil {
			// End of stream. A peer that said bye (or a mesh without
			// reconnect) is departing — the normal staggered course of a
			// run. Otherwise the connection broke: hold the verdict for
			// the reconnect budget so a redial can resume invisibly.
			conn.Close()
			if ep.closed.Load() {
				return
			}
			if ep.reconnect > 0 && !ep.sawBye[src].Load() {
				if ep.ownsInbound(src, conn) {
					ep.logf("transport: rank %d: link from %d broke (%v), awaiting reconnect", ep.rank, src, err)
					ep.armDeadVerdict(src, err)
				}
				return
			}
			ep.peerLost(src, err)
			return
		}
		ep.lastRecv[src].Store(time.Now().UnixNano())
		switch f.Type {
		case FrameData:
			if f.Rank != src {
				conn.Close()
				ep.fail(fmt.Errorf("rank %d sent frame claiming rank %d", src, f.Rank))
				return
			}
			ep.links[src].recvFrames.Add(1)
			ep.links[src].recvBytes.Add(int64(len(f.Payload)))
			ep.mb.push(envelope{source: src, tag: f.Tag, data: f.Payload, warm: true})
		case FrameBarrier:
			if len(f.Payload) != 1 {
				conn.Close()
				ep.fail(fmt.Errorf("rank %d sent malformed barrier frame", src))
				return
			}
			ep.links[src].recvFrames.Add(1)
			ep.links[src].recvBytes.Add(1)
			ep.bar.handle(src, f.Tag, f.Payload[0])
			slab.Bytes.Put(f.Payload)
		case FrameBye:
			ep.sawBye[src].Store(true)
		case FrameHeartbeat:
			// Liveness only; lastRecv above is the whole point.
		default:
			// Redundant hello: ignore, and keep it out of the stream count.
			continue
		}
		if n := ep.rxCnt[src].Add(1); ep.reconnect > 0 && n%ackEvery == 0 {
			ep.sendAck(src, conn)
		}
	}
}

// ackLoop consumes the reverse direction of one outbound connection:
// cumulative acknowledgement frames from the accepting side, pruning the
// re-send window as they arrive. When the connection dies while it is still
// the link's, it wakes the writer to repair it: a sender with nothing left
// to write would otherwise never see a write fail, and the frames the break
// swallowed would wait in the window forever. The redial path reads its
// resume acknowledgement synchronously and then starts a fresh ackLoop on
// the repaired connection.
func (ep *tcpEndpoint) ackLoop(p *peerLink, conn net.Conn) {
	for {
		f, err := ReadFrame(conn)
		if err != nil {
			p.mu.Lock()
			if p.conn == conn {
				p.broken = conn
			}
			p.mu.Unlock()
			p.cond.Signal()
			return
		}
		if f.Type == FrameAck && len(f.Payload) == 8 {
			p.ackTo(int64(binary.BigEndian.Uint64(f.Payload)))
		}
	}
}

// writeLoop drains one peer's outbound queue onto its connection. On close
// it flushes everything already queued before shutting the connection down
// (graceful shutdown); on a write error, or a break its ack reader saw, it
// either repairs the link (redial plus re-send of the unacknowledged
// window, when Reconnect is on) or drops the queue and marks the peer
// departed.
func (ep *tcpEndpoint) writeLoop(dst int, p *peerLink) {
	for {
		p.mu.Lock()
		for len(p.q) == 0 && !p.stopped && p.err == nil && p.broken == nil {
			p.cond.Wait()
		}
		if p.err != nil || (p.stopped && len(p.q) == 0) {
			conn := p.conn
			p.mu.Unlock()
			conn.Close()
			return
		}
		batch := p.q
		p.q = nil
		conn := p.conn
		broken := p.broken == conn
		p.broken = nil
		p.mu.Unlock()
		if broken && !ep.repair(dst, p, &conn, errors.New("connection broke")) {
			return
		}
		for i := 0; i < len(batch); i++ {
			b := batch[i]
			conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			if _, err := conn.Write(b.data); err != nil {
				if !ep.repair(dst, p, &conn, err) {
					return
				}
				i-- // the failed frame rides the repaired link
				continue
			}
			if !p.recordWrite(b, ep.reconnect > 0, unackedWindow) {
				ep.dropLink(dst, p, fmt.Errorf("unacked window overflow (%d frames, no acks)", unackedWindow))
				return
			}
		}
	}
}

// repair redials the broken link when Reconnect allows it and installs the
// repaired connection in *conn. Otherwise, or once the budget is spent, it
// drops the link and reports false.
func (ep *tcpEndpoint) repair(dst int, p *peerLink, conn *net.Conn, err error) bool {
	if ep.reconnect > 0 && !ep.closed.Load() && !p.isStopped() {
		if c, ok := ep.redial(dst, p, *conn); ok {
			*conn = c
			return true
		}
		err = fmt.Errorf("reconnect budget %v exhausted: %w", ep.reconnect, err)
	}
	ep.dropLink(dst, p, err)
	return false
}

// dropLink abandons the outbound link: the queue is dropped, the
// connection closed, and the peer departed (unless the endpoint itself is
// closing).
func (ep *tcpEndpoint) dropLink(dst int, p *peerLink, err error) {
	p.mu.Lock()
	p.err = err
	p.q = nil
	conn := p.conn
	p.mu.Unlock()
	conn.Close()
	if !ep.closed.Load() {
		ep.peerLost(dst, fmt.Errorf("write: %w", err))
	}
}

// redial repairs a broken outbound link: dial with capped exponential
// backoff plus jitter until the reconnect budget runs out, re-hello, read
// the receiver's resume acknowledgement, prune the window to it and
// re-send the remainder. On success the repaired connection is installed
// on the link (with a fresh ackLoop) and returned.
func (ep *tcpEndpoint) redial(dst int, p *peerLink, old net.Conn) (net.Conn, bool) {
	old.Close()
	deadline := time.Now().Add(ep.reconnect)
	backoff := ep.reconBackoff
	const maxBackoff = time.Second
	rng := rand.New(rand.NewSource(int64(ep.rank)<<20 ^ int64(dst) ^ time.Now().UnixNano()))
	for attempt := 1; ; attempt++ {
		if ep.closed.Load() || p.isStopped() || ep.isDead(dst) {
			return nil, false
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, false
		}
		dialT := 2 * time.Second
		if remaining < dialT {
			dialT = remaining
		}
		conn, err := net.DialTimeout("tcp", ep.peerAddrs[dst], dialT)
		if err == nil {
			err = ep.resume(dst, p, conn)
			if err == nil {
				ep.logf("transport: rank %d repaired link to %d after %d attempt(s)", ep.rank, dst, attempt)
				p.mu.Lock()
				p.conn = conn
				p.mu.Unlock()
				ep.wg.Add(1)
				go func() {
					defer ep.wg.Done()
					ep.ackLoop(p, conn)
				}()
				return conn, true
			}
			conn.Close()
		}
		// Capped exponential backoff with jitter so a whole fleet
		// redialing one recovered rank does not stampede in lockstep.
		sleep := backoff + time.Duration(rng.Int63n(int64(backoff)+1))
		if remaining := time.Until(deadline); sleep > remaining {
			sleep = remaining
		}
		time.Sleep(sleep)
		backoff *= 2
		if backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// resume performs the re-hello handshake on a fresh connection: hello, then
// the receiver's cumulative acknowledgement tells this side exactly which
// suffix of the unacked window it never received; that suffix is re-sent
// before regular queue traffic continues.
func (ep *tcpEndpoint) resume(dst int, p *peerLink, conn net.Conn) error {
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err := WriteFrame(conn, Frame{Type: FrameHello, Rank: ep.rank}); err != nil {
		return fmt.Errorf("re-hello: %w", err)
	}
	conn.SetWriteDeadline(time.Time{})
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	f, err := ReadFrame(conn)
	conn.SetReadDeadline(time.Time{})
	if err != nil {
		return fmt.Errorf("resume ack: %w", err)
	}
	if f.Type != FrameAck || len(f.Payload) != 8 {
		return fmt.Errorf("resume handshake got frame type %d, want ack", f.Type)
	}
	p.ackTo(int64(binary.BigEndian.Uint64(f.Payload)))
	for _, b := range p.unacked() {
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if _, err := conn.Write(b.data); err != nil {
			return fmt.Errorf("window re-send: %w", err)
		}
	}
	conn.SetWriteDeadline(time.Time{})
	return nil
}

// heartbeatLoop keeps idle links warm and renders the dead-peer verdict on
// silence: a peer from which nothing arrived for HeartbeatTimeout — not
// even the heartbeats its own monitor should be sending — is departed with
// a PeerDeathError.
func (ep *tcpEndpoint) heartbeatLoop() {
	defer ep.wg.Done()
	tick := time.NewTicker(ep.hbInterval)
	defer tick.Stop()
	for {
		select {
		case <-ep.stopHB:
			return
		case <-tick.C:
		}
		now := time.Now()
		for j := 0; j < ep.size; j++ {
			if j == ep.rank || ep.isDead(j) || ep.sawBye[j].Load() {
				continue
			}
			if p := ep.peers[j]; p != nil && now.Sub(p.lastWrite()) >= ep.hbInterval {
				hb := EncodeFrame(Frame{Type: FrameHeartbeat, Rank: ep.rank})
				p.enqueue(hb, false)
			}
			if ep.hbTimeout > 0 {
				last := time.Unix(0, ep.lastRecv[j].Load())
				if now.Sub(last) > ep.hbTimeout {
					ep.peerLost(j, &PeerDeathError{Rank: j,
						Err: fmt.Errorf("silent for %v (heartbeat timeout %v)", now.Sub(last).Round(time.Millisecond), ep.hbTimeout)})
				}
			}
		}
	}
}

// Barrier blocks until every rank has entered it: barrierState.wait's
// protocol, each phase byte carried in a reserved FrameBarrier frame.
func (ep *tcpEndpoint) Barrier() error {
	start := time.Now()
	err := ep.bar.wait(func(to, gen int, phase byte) {
		ep.links[to].sentFrames.Add(1)
		ep.links[to].sentBytes.Add(1)
		ep.peers[to].enqueue(EncodeFrame(Frame{Type: FrameBarrier, Rank: ep.rank, Tag: gen, Payload: []byte{phase}}), false)
	})
	ep.barT.observe(start)
	return err
}

// Links reports per-peer traffic and outbound queue depths.
func (ep *tcpEndpoint) Links() []LinkStats {
	out := make([]LinkStats, ep.size)
	for j := range out {
		depth := 0
		if p := ep.peers[j]; p != nil {
			depth = p.depth()
		}
		out[j] = ep.links[j].snapshot(j, depth)
	}
	return out
}

// BarrierStats reports how many barriers completed and the total wait.
func (ep *tcpEndpoint) BarrierStats() BarrierStats { return ep.barT.stats() }

// SeverLink cuts both directions of the connection pair to one peer, as a
// network fault would: nothing is flushed or announced, queues and windows
// stay intact, and the reconnect machinery must repair the damage. Part of
// the LinkSeverer fault-injection surface; meaningless (an instant
// departure) unless Reconnect is enabled mesh-wide.
func (ep *tcpEndpoint) SeverLink(peer int) {
	if peer < 0 || peer >= ep.size || peer == ep.rank {
		return
	}
	ep.logf("transport: rank %d severing link to %d", ep.rank, peer)
	if p := ep.peers[peer]; p != nil {
		p.mu.Lock()
		conn := p.conn
		p.mu.Unlock()
		conn.Close()
	}
	ep.connMu.Lock()
	var in net.Conn
	if st := ep.inStates[peer]; st != nil {
		in = st.conn
	}
	ep.connMu.Unlock()
	if in != nil {
		in.Close()
	}
}

// Crash simulates the abrupt death of this rank for fault-injection tests:
// every connection and the listener are torn down with no bye and no
// flush, exactly as a killed process would leave them. Peers discover the
// death through their own failure detection (reconnect budget, heartbeat
// timeout, or immediate departure without reconnect). Part of the Crasher
// surface.
func (ep *tcpEndpoint) Crash() {
	ep.closed.Store(true)
	ep.hbOnce.Do(func() { close(ep.stopHB) })
	ep.ln.Close()
	for _, p := range ep.peers {
		if p != nil {
			p.abort()
		}
	}
	ep.connMu.Lock()
	conns := append([]net.Conn(nil), ep.inConns...)
	for src, t := range ep.deadTimers {
		t.Stop()
		delete(ep.deadTimers, src)
	}
	ep.connMu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	ep.helloCond.Broadcast()
	ep.bar.fail(ErrClosed)
	ep.mb.fail()
}

// Close shuts the endpoint down gracefully: a bye frame announces the
// departure (in reconnect mode, so peers never wait for a reconnect that
// cannot come), queued outbound frames are flushed, connections and the
// listener are closed, and any still-posted receive is canceled so no
// caller blocks on a closed communicator.
func (ep *tcpEndpoint) Close() error {
	ep.closeOnce.Do(func() {
		if ep.reconnect > 0 && !ep.closed.Load() {
			bye := EncodeFrame(Frame{Type: FrameBye, Rank: ep.rank})
			for j, p := range ep.peers {
				if p != nil && !ep.isDead(j) {
					p.enqueue(bye, false)
				}
			}
		}
		ep.closed.Store(true)
		ep.hbOnce.Do(func() { close(ep.stopHB) })
		ep.ln.Close()
		for _, p := range ep.peers {
			if p != nil {
				p.stop()
			}
		}
		// Writers flush their queues and close their own connections; the
		// inbound side is cut here, which ends the reader goroutines.
		ep.connMu.Lock()
		conns := append([]net.Conn(nil), ep.inConns...)
		for src, t := range ep.deadTimers {
			t.Stop()
			delete(ep.deadTimers, src)
		}
		ep.connMu.Unlock()
		for _, c := range conns {
			c.Close()
		}
		ep.helloCond.Broadcast()
		ep.wg.Wait()
		ep.bar.fail(ErrClosed)
		ep.mb.fail()
	})
	return nil
}

// peerLink is the outbound half of one rank pair: an unbounded frame queue
// drained by a dedicated writer goroutine, so Isend never blocks on the
// network (the same eager decoupling the in-process substrate provides).
// In reconnect mode it additionally retains every written-but-unacked
// frame in a bounded window, the raw material of the post-redial re-send.
type peerLink struct {
	mu      sync.Mutex
	cond    *sync.Cond
	conn    net.Conn
	q       []outFrame
	stopped bool
	err     error
	broken  net.Conn // the connection its ack reader saw break, for the writer to repair

	sent    []outFrame // written but not yet acknowledged (reconnect mode)
	sentCnt int64      // frames fully written on the link since rendezvous
	ackCnt  int64      // highest cumulative acknowledgement received

	lastEnq atomic.Int64 // unixnano of the last enqueue (heartbeat idle check)
}

// outFrame is one queued wire frame; warm says data is warm storage, given
// back to slab.Bytes after a successful write (or, in reconnect mode, once the
// receiver acknowledged the frame). Barrier and control frames are not.
type outFrame struct {
	data []byte
	warm bool
}

// recycle gives a written frame's buffer back to slab.Bytes.
func (b outFrame) recycle() {
	if b.warm {
		slab.Bytes.Put(b.data)
	}
}

func newPeerLink(conn net.Conn) *peerLink {
	p := &peerLink{conn: conn}
	p.cond = sync.NewCond(&p.mu)
	p.lastEnq.Store(time.Now().UnixNano())
	return p
}

func (p *peerLink) enqueue(frame []byte, warm bool) {
	p.lastEnq.Store(time.Now().UnixNano())
	p.mu.Lock()
	if p.stopped || p.err != nil {
		p.mu.Unlock()
		return // dropped: the communicator is shutting down or broken
	}
	p.q = append(p.q, outFrame{frame, warm})
	p.mu.Unlock()
	p.cond.Signal()
}

// depth returns the number of frames queued behind the writer.
func (p *peerLink) depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.q)
}

func (p *peerLink) lastWrite() time.Time {
	return time.Unix(0, p.lastEnq.Load())
}

func (p *peerLink) stop() {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
	p.cond.Signal()
}

// abort kills the link with no flush: queued frames drop, the connection
// closes mid-stream — the Crash primitive's per-link half.
func (p *peerLink) abort() {
	p.mu.Lock()
	p.err = ErrClosed
	p.q = nil
	conn := p.conn
	p.mu.Unlock()
	conn.Close()
	p.cond.Signal()
}

func (p *peerLink) isStopped() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stopped
}

// recordWrite accounts one successfully written frame. Without reconnect
// the pooled buffer goes straight back; with it the frame joins the
// unacked window, whose overflow (false) fails the link.
func (p *peerLink) recordWrite(b outFrame, reconnect bool, window int) bool {
	p.mu.Lock()
	p.sentCnt++
	if !reconnect {
		p.mu.Unlock()
		b.recycle()
		return true
	}
	p.sent = append(p.sent, b)
	over := len(p.sent) > window
	p.mu.Unlock()
	return !over
}

// ackTo prunes the unacked window up to the cumulative count n, recycling
// the pooled buffers of the acknowledged frames.
func (p *peerLink) ackTo(n int64) {
	p.mu.Lock()
	drop := n - p.ackCnt
	if drop <= 0 {
		p.mu.Unlock()
		return
	}
	if drop > int64(len(p.sent)) {
		drop = int64(len(p.sent))
	}
	acked := p.sent[:drop]
	p.sent = append([]outFrame(nil), p.sent[drop:]...)
	p.ackCnt = n
	p.mu.Unlock()
	for _, b := range acked {
		b.recycle()
	}
}

// unacked snapshots the window of written-but-unacknowledged frames, the
// exact suffix a repaired connection must carry again.
func (p *peerLink) unacked() []outFrame {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]outFrame(nil), p.sent...)
}

// barrierState tracks barrier generations on both sides of the centralized
// protocol: rank 0 records which ranks entered each generation, other ranks
// wait for their release frame. Departed peers fail only the barriers they
// never participated in — a generation a peer entered before leaving still
// completes, so ranks may exit in staggered order.
type barrierState struct {
	self      int // this rank; 0 coordinates
	mu        sync.Mutex
	cond      *sync.Cond
	gen       int
	entered   map[int]map[int]bool // generation → set of ranks that entered (rank 0 only)
	released  map[int]bool
	aborted   map[int]bool // generations rank 0 declared doomed (BarrierAbort)
	departed  []bool
	departErr []error
	err       error // communicator-wide failure (protocol violation or Close)
}

func newBarrierState(self, size int) *barrierState {
	b := &barrierState{
		self:      self,
		entered:   map[int]map[int]bool{},
		released:  map[int]bool{},
		aborted:   map[int]bool{},
		departed:  make([]bool, size),
		departErr: make([]error, size),
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait is one barrier episode, the only body of the protocol: every rank
// reports to rank 0, which releases everyone once all have arrived.
// Generations keep distinct episodes apart; the collective-call contract
// (every rank calls Barrier the same number of times, in the same order
// relative to its own sends) makes the generation counters line up across
// ranks. send is all the substrate contributes: deliver this phase byte for
// this generation to that rank, where the receiving side hands it to handle.
func (b *barrierState) wait(send func(to, gen int, phase byte)) error {
	size := len(b.departed)
	b.mu.Lock()
	if b.err != nil {
		defer b.mu.Unlock()
		return b.err
	}
	gen := b.gen
	b.gen++
	b.mu.Unlock()
	if size == 1 {
		return nil
	}

	if b.self == 0 {
		b.mu.Lock()
		for len(b.entered[gen]) < size-1 && b.err == nil && b.missingLocked(gen) < 0 {
			b.cond.Wait()
		}
		// A completed generation wins over a concurrent failure or
		// departure (a peer may exit cleanly right after its own Barrier
		// returned, its enter frame for this generation already received).
		var err error
		if len(b.entered[gen]) < size-1 {
			if b.err != nil {
				err = b.err
			} else if j := b.missingLocked(gen); j >= 0 {
				err = fmt.Errorf("transport: barrier cannot complete: %w", b.departErr[j])
			}
		}
		delete(b.entered, gen)
		b.mu.Unlock()
		// A generation that can never complete is aborted, not abandoned:
		// the ranks already waiting in it would otherwise hold out forever
		// for a release that will not come — a non-root rank cannot tell a
		// slow collective from a doomed one on its own.
		phase := BarrierRelease
		if err != nil {
			phase = BarrierAbort
		}
		for j := 1; j < size; j++ {
			send(j, gen, phase)
		}
		return err
	}

	send(0, gen, BarrierEnter)
	b.mu.Lock()
	for !b.released[gen] && !b.aborted[gen] && b.err == nil && !b.departed[0] {
		b.cond.Wait()
	}
	// A release already received wins over a concurrent failure: rank 0
	// may exit immediately after releasing the last generation.
	var err error
	if !b.released[gen] {
		switch j := b.departedLocked(); { // rank 0 itself, if it is among the departed
		case b.err != nil:
			err = b.err
		case j >= 0:
			err = fmt.Errorf("transport: barrier cannot complete: %w", b.departErr[j])
		default:
			err = fmt.Errorf("transport: barrier aborted by rank 0: a member departed before entering")
		}
	}
	delete(b.released, gen)
	delete(b.aborted, gen)
	b.mu.Unlock()
	return err
}

func (b *barrierState) handle(src, gen int, phase byte) {
	b.mu.Lock()
	switch phase {
	case BarrierEnter:
		set := b.entered[gen]
		if set == nil {
			set = map[int]bool{}
			b.entered[gen] = set
		}
		set[src] = true
	case BarrierRelease:
		b.released[gen] = true
	case BarrierAbort:
		b.aborted[gen] = true
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

func (b *barrierState) fail(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

func (b *barrierState) depart(src int, err error) {
	b.mu.Lock()
	if src >= 0 && src < len(b.departed) {
		b.departed[src] = true
		if b.departErr[src] == nil {
			b.departErr[src] = err
		}
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}

// missingLocked returns a rank that departed without entering generation
// gen (so the generation can never complete), or -1. Callers hold b.mu.
func (b *barrierState) missingLocked(gen int) int {
	for j := 1; j < len(b.departed); j++ {
		if b.departed[j] && !b.entered[gen][j] {
			return j
		}
	}
	return -1
}

// departedLocked returns the lowest departed member, or -1. Callers hold b.mu.
func (b *barrierState) departedLocked() int {
	for j, d := range b.departed {
		if d {
			return j
		}
	}
	return -1
}
