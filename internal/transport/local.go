package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pulsarqr/internal/slab"
)

// Local is the in-process communicator: size ranks inside one OS process,
// each with the mailbox the TCP and mux endpoints match receives in. Message
// payloads are copied between ranks (the isolation a distributed-memory
// system enforces) but never touch a socket.
type Local struct {
	eps []*localEndpoint

	// Generation barrier: the last rank to enter an episode opens the next.
	barMu   sync.Mutex
	barCond *sync.Cond
	barGen  int
	barCnt  int
}

// NewLocal creates an in-process communicator spanning size ranks.
func NewLocal(size int) *Local {
	if size <= 0 {
		panic(fmt.Sprintf("transport: local world size %d", size))
	}
	l := &Local{eps: make([]*localEndpoint, size)}
	l.barCond = sync.NewCond(&l.barMu)
	for i := range l.eps {
		l.eps[i] = &localEndpoint{owner: l, rank: i, mb: newMailbox(size), links: make([]linkCtrs, size)}
	}
	return l
}

// Size returns the number of ranks.
func (l *Local) Size() int { return len(l.eps) }

// Endpoint returns the communicator endpoint for one rank.
func (l *Local) Endpoint(rank int) Endpoint { return l.eps[rank] }

type localEndpoint struct {
	owner *Local
	rank  int
	mb    *mailbox
	msgs  atomic.Int64
	bytes atomic.Int64
	links []linkCtrs
	barT  barrierCtrs
}

func (e *localEndpoint) Rank() int { return e.rank }
func (e *localEndpoint) Size() int { return len(e.owner.eps) }

// Isend delivers a copy of data straight into dest's mailbox: the caller may
// recycle its buffer the moment Isend returns, and ranks never alias each
// other's memory.
func (e *localEndpoint) Isend(data []byte, dest, tag int) Request {
	return e.IsendPrefixed(nil, data, dest, tag)
}

// IsendPrefixed is Isend of prefix followed by data, copied into warm
// storage (slab.Bytes) that the receiver may release.
func (e *localEndpoint) IsendPrefixed(prefix, data []byte, dest, tag int) Request {
	if dest < 0 || dest >= len(e.owner.eps) {
		panic(fmt.Sprintf("transport: Isend to rank %d out of world of %d", dest, len(e.owner.eps)))
	}
	if tag < 0 || tag > MaxTag {
		panic(fmt.Sprintf("transport: Isend tag %d out of range", tag))
	}
	n := len(prefix) + len(data)
	e.msgs.Add(1)
	e.bytes.Add(int64(n))
	e.links[dest].sentFrames.Add(1)
	e.links[dest].sentBytes.Add(int64(n))
	// In-process delivery is immediate, so the receive side of the link is
	// credited here, on the destination endpoint's counters.
	d := e.owner.eps[dest]
	d.links[e.rank].recvFrames.Add(1)
	d.links[e.rank].recvBytes.Add(int64(n))
	buf := slab.Bytes.Take(n)
	copy(buf[copy(buf, prefix):], data)
	d.mb.push(envelope{source: e.rank, tag: tag, data: buf, warm: true})
	return &netRequest{done: true, source: dest, tag: tag}
}

func (e *localEndpoint) Irecv(source, tag int) Request {
	req := &netRequest{isRecv: true, source: source, tag: tag, mb: e.mb}
	e.mb.post(req)
	return req
}

// Barrier blocks until every rank of the world has entered it. In-process
// ranks never depart, so it cannot fail.
func (e *localEndpoint) Barrier() error {
	start := time.Now()
	l := e.owner
	l.barMu.Lock()
	gen := l.barGen
	l.barCnt++
	if l.barCnt == len(l.eps) {
		l.barCnt = 0
		l.barGen++
		l.barCond.Broadcast()
	} else {
		for gen == l.barGen {
			l.barCond.Wait()
		}
	}
	l.barMu.Unlock()
	e.barT.observe(start)
	return nil
}

func (e *localEndpoint) OnArrival(fn func()) { e.mb.setNotify(fn) }

// Stats reports the messages and payload bytes sent through this endpoint:
// per-rank accounting, what a real network transport can observe.
func (e *localEndpoint) Stats() (messages, bytes int64) {
	return e.msgs.Load(), e.bytes.Load()
}

// Links reports per-peer traffic. In-process sends complete synchronously,
// so queue depths are always zero.
func (e *localEndpoint) Links() []LinkStats {
	out := make([]LinkStats, len(e.links))
	for j := range out {
		out[j] = e.links[j].snapshot(j, 0)
	}
	return out
}

// BarrierStats reports how many barriers completed and the total wait.
func (e *localEndpoint) BarrierStats() BarrierStats { return e.barT.stats() }

// Close cancels the rank's posted receives and fails later ones, as the
// other substrates do; the world and the other ranks' endpoints live on.
func (e *localEndpoint) Close() error {
	e.mb.fail()
	return nil
}
