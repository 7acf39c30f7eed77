package pulsar

import (
	"fmt"
	"sync"
)

// Channel is a static unidirectional FIFO connection between two VDPs (or
// between the outside world and a VDP, for injection and collection). The
// source VDP pushes packets to its output slot; the destination VDP pops
// from its input slot. A channel may start disabled and be enabled,
// disabled or destroyed while the VSA runs; a VDP is ready to fire only
// when every *active* input channel holds a packet.
type Channel struct {
	// Static topology, fixed at construction.
	srcVDP, dstVDP   *VDP // nil srcVDP: external injection; nil dstVDP: collector
	srcSlot, dstSlot int
	maxBytes         int
	startDisabled    bool // a run starts with the channel inactive (Connect)

	// landing, when set, is where the first packet of a run that arrives
	// from another node is decoded (VSA.Land); landed says it has been. The
	// proxy alone reads and sets them.
	landing any
	landed  bool

	// Resolved at Run time.
	interNode bool
	tag       int // MPI tag within the (srcNode, dstNode) pair
	srcNode   int
	dstNode   int

	mu        sync.Mutex
	queue     []*Packet // queue[head:] is queued; an emptied queue keeps its storage
	head      int
	active    bool
	destroyed bool
}

// state helpers -------------------------------------------------------------

func (c *Channel) push(p *Packet) {
	c.mu.Lock()
	if c.destroyed {
		c.mu.Unlock()
		panic(fmt.Sprintf("pulsar: push on destroyed channel %s", c))
	}
	c.queue = append(c.queue, p)
	c.mu.Unlock()
}

func (c *Channel) pop() *Packet {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.head == len(c.queue) {
		return nil
	}
	p := c.queue[c.head]
	c.queue[c.head] = nil
	if c.head++; c.head == len(c.queue) {
		c.queue, c.head = c.queue[:0], 0
	}
	return p
}

// gate evaluates this input channel against the firing rule under a single
// lock acquisition. pass reports whether the channel does not block firing
// (it is inactive, destroyed, or holds a packet); activeNonEmpty reports
// whether it is an active channel that holds a packet.
func (c *Channel) gate() (pass, activeNonEmpty bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.destroyed || !c.active {
		return true, false
	}
	if c.head < len(c.queue) {
		return true, true
	}
	return false, false
}

func (c *Channel) setActive(on bool) {
	c.mu.Lock()
	c.active = on
	c.mu.Unlock()
}

func (c *Channel) destroy() {
	c.mu.Lock()
	c.destroyed = true
	c.empty()
	c.mu.Unlock()
}

// empty drops every queued packet and keeps the queue's storage. Callers
// hold mu, or own the channel outright (VSA.Clear).
func (c *Channel) empty() {
	clear(c.queue)
	c.queue, c.head = c.queue[:0], 0
}

// rearm returns the channel to the state a run starts in: empty, enabled
// unless it was created disabled, and its landing not yet landed in.
func (c *Channel) rearm() {
	c.empty()
	c.active, c.destroyed, c.landed = !c.startDisabled, false, false
}

func (c *Channel) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue) - c.head
}

// String describes the channel endpoints for diagnostics.
func (c *Channel) String() string {
	return fmt.Sprintf("%s[out %d] -> %s[in %d]", name(c.srcVDP), c.srcSlot, name(c.dstVDP), c.dstSlot)
}

// name is v's tuple, or "external" for the outside end of an injection or
// collector channel.
func name(v *VDP) string {
	if v == nil {
		return "external"
	}
	return v.tup.String()
}
