package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Schedule is a seeded, deterministic fault plan for a Chaos endpoint. It
// holds only the faults a real link has: latency, a cut link and a dead
// rank. Every message's delay is one draw from a per-destination PRNG
// derived from Seed, so two runs issuing the same per-link send sequence
// draw the same delays in the same order and the FaultLog compares
// byte-identical. Sever and kill events fire on message counts, not
// wall-clock, for the same reason.
type Schedule struct {
	// Seed derives every per-link PRNG; the same seed and the same
	// per-link send sequence reproduce the same fault sequence exactly.
	Seed int64
	// DelayP50 and DelayP95 shape the injected latency distribution: half
	// of all messages are delayed up to DelayP50, 95% up to DelayP95, with
	// a linear tail capped near 2×DelayP95. Zero injects no delay.
	DelayP50 time.Duration
	DelayP95 time.Duration
	// Sever lists link-cut events: when the AtFrame-th message (counting
	// per destination, from 1) is about to go to Peer, the link is severed.
	// On a substrate implementing LinkSeverer (TCP) the real connections
	// are cut and the substrate's reconnect machinery must repair them;
	// otherwise the link's traffic is held for For.
	Sever []SeverEvent
	// KillAtFrame, when positive, kills this rank abruptly when its
	// KillAtFrame-th message (counting across all destinations) is sent:
	// Crash() on a substrate implementing Crasher, else the wrapped
	// endpoint is closed.
	KillAtFrame int64
}

// SeverEvent cuts the link to Peer when this rank's AtFrame-th message to
// it (counting from 1) is about to be sent.
type SeverEvent struct {
	Peer    int
	AtFrame int64
	// For is how long the link's traffic is held on substrates without a
	// real LinkSeverer. Default 50ms.
	For time.Duration
}

// Chaos wraps an Endpoint with a deterministic fault injector. It adds no
// protocol of its own: every message goes to the wrapped endpoint under its
// own tag, and receives, arrivals, barriers and failure reports are the
// wrapped endpoint's. What Chaos changes is when a message leaves: each is
// delivered at the latest of the link's previous delivery, its send time
// plus its drawn delay, and the end of any Sever hold, so delay never
// reorders a link. On TCP a Sever cuts the real sockets and the
// substrate's redial-and-resume path must repair them.
type Chaos struct {
	Endpoint // receives, arrivals, barrier, rank and size: the wrapped endpoint's
	sch      Schedule

	links []*chaosLink // per-destination, nil at own rank

	sendN  atomic.Int64 // messages across all destinations (kill trigger)
	killed atomic.Bool

	closeOnce sync.Once
	wg        sync.WaitGroup

	msgs, bytes atomic.Int64
}

// chaosLink is one outbound link: its fault PRNG and verdict log, and the
// queue its deliverer forwards in order, each message at its due time.
type chaosLink struct {
	mu     sync.Mutex
	cond   *sync.Cond
	rng    *rand.Rand
	frames int64     // messages sent on this link (sever trigger)
	next   time.Time // due time of the latest message; later ones never precede it
	queue  []chaosMsg
	closed bool
	log    []byte
}

type chaosMsg struct {
	due  time.Time
	data []byte
	tag  int
}

// NewChaos wraps ep with the fault schedule sch. Closing the Chaos delivers
// what it still holds, then closes ep.
func NewChaos(ep Endpoint, sch Schedule) *Chaos {
	rank, size := ep.Rank(), ep.Size()
	c := &Chaos{Endpoint: ep, sch: sch, links: make([]*chaosLink, size)}
	for j := range c.links {
		if j == rank {
			continue
		}
		// One PRNG per ordered link, derived from the seed and both rank
		// ids: the delay stream of link (i→j) depends only on the seed and
		// the sequence of sends on that link.
		l := &chaosLink{rng: rand.New(rand.NewSource(sch.Seed ^ int64(rank)<<20 ^ int64(j)<<4 ^ 0x5eed))}
		l.cond = sync.NewCond(&l.mu)
		c.links[j] = l
		c.wg.Add(1)
		go c.deliver(j, l)
	}
	return c
}

// Stats counts what was handed to Isend, delivered yet or not.
func (c *Chaos) Stats() (messages, bytes int64) {
	return c.msgs.Load(), c.bytes.Load()
}

// Isend copies data and queues it for dest at a time drawn from the
// schedule. Messages to the own rank cross no link and go straight through.
func (c *Chaos) Isend(data []byte, dest, tag int) Request {
	return c.IsendPrefixed(nil, data, dest, tag)
}

// IsendPrefixed is Isend of prefix followed by data, one message under one
// draw of the schedule.
func (c *Chaos) IsendPrefixed(prefix, data []byte, dest, tag int) Request {
	if dest < 0 || dest >= len(c.links) {
		panic(fmt.Sprintf("transport: chaos Isend to rank %d out of world of %d", dest, len(c.links)))
	}
	if tag < 0 || tag > MaxTag {
		panic(fmt.Sprintf("transport: chaos Isend tag %d out of range", tag))
	}
	c.msgs.Add(1)
	c.bytes.Add(int64(len(prefix) + len(data)))
	l := c.links[dest]
	if l == nil {
		return c.Endpoint.IsendPrefixed(prefix, data, dest, tag)
	}
	done := &netRequest{done: true, source: dest, tag: tag}
	if c.killed.Load() {
		return done
	}
	if k := c.sch.KillAtFrame; k > 0 && c.sendN.Add(1) == k {
		c.kill()
		return done
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return done
	}
	l.frames++
	now := time.Now()
	for _, ev := range c.sch.Sever {
		if ev.Peer != dest || ev.AtFrame != l.frames {
			continue
		}
		l.log = append(l.log, '!')
		if sv, ok := c.Endpoint.(LinkSeverer); ok {
			sv.SeverLink(dest)
			continue
		}
		hold := ev.For
		if hold <= 0 {
			hold = 50 * time.Millisecond
		}
		if end := now.Add(hold); end.After(l.next) {
			l.next = end
		}
	}
	// Exactly one draw per message, so the stream stays aligned and the log
	// replays byte-identically.
	due := now
	if delay := c.sch.delay(l.rng.Float64()); delay > 0 {
		due = now.Add(delay)
		l.log = append(l.log, '~')
		l.log = appendMicros(l.log, delay)
		l.log = append(l.log, ';')
	} else {
		l.log = append(l.log, '.')
	}
	if due.Before(l.next) {
		due = l.next
	}
	l.next = due
	msg := append(append(make([]byte, 0, len(prefix)+len(data)), prefix...), data...)
	l.queue = append(l.queue, chaosMsg{due: due, data: msg, tag: tag})
	l.cond.Signal()
	return done
}

// deliver forwards one link's queue in order, each message at its due
// time, until the link is closed and drained.
func (c *Chaos) deliver(dest int, l *chaosLink) {
	defer c.wg.Done()
	for {
		l.mu.Lock()
		for len(l.queue) == 0 && !l.closed {
			l.cond.Wait()
		}
		if len(l.queue) == 0 {
			l.mu.Unlock()
			return
		}
		m := l.queue[0]
		l.queue = l.queue[1:]
		l.mu.Unlock()
		time.Sleep(time.Until(m.due))
		if !c.killed.Load() {
			c.Endpoint.Isend(m.data, dest, m.tag)
		}
	}
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

// FaultLog renders every link's verdict sequence — '~<µs>;' delayed, '.'
// undelayed, '!' link severed at the message that follows — one line per
// destination. Two runs with the same seed and per-link send sequence
// produce byte-identical logs; the replay test asserts exactly that.
func (c *Chaos) FaultLog() string {
	out := make([]byte, 0, 256)
	for j, l := range c.links {
		if l == nil {
			continue
		}
		l.mu.Lock()
		out = append(out, fmt.Sprintf("->%d:", j)...)
		out = append(out, l.log...)
		out = append(out, '\n')
		l.mu.Unlock()
	}
	return string(out)
}

// OnPeerFailure and PeerFailure report the wrapped endpoint's peer deaths;
// over an endpoint that cannot lose a peer there is none to report.
func (c *Chaos) OnPeerFailure(fn func(rank int, err error)) {
	if fo, ok := c.Endpoint.(FailureObserver); ok {
		fo.OnPeerFailure(fn)
	}
}

func (c *Chaos) PeerFailure() error {
	if fo, ok := c.Endpoint.(FailureObserver); ok {
		return fo.PeerFailure()
	}
	return nil
}

// kill simulates this rank dying mid-send: on a Crasher substrate the real
// connections are torn down with no goodbye, elsewhere the wrapped endpoint
// is closed; either way nothing queued or sent later leaves the rank. It
// runs once: exactly one send is the KillAtFrame-th.
func (c *Chaos) kill() {
	c.killed.Store(true)
	if cr, ok := c.Endpoint.(Crasher); ok {
		cr.Crash()
	} else {
		c.Endpoint.Close()
	}
}

// Close delivers every message already sent — as a socket flushes on a
// graceful close — and then closes the wrapped endpoint.
func (c *Chaos) Close() error {
	c.closeOnce.Do(func() {
		for _, l := range c.links {
			if l != nil {
				l.mu.Lock()
				l.closed = true
				l.mu.Unlock()
				l.cond.Signal()
			}
		}
		c.wg.Wait()
		c.Endpoint.Close()
	})
	return nil
}
