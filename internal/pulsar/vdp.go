package pulsar

import (
	"fmt"

	"pulsarqr/internal/tuple"
)

// Func is the executable code of a VDP, invoked once per firing. Inside it
// the VDP may pop from its input channels, run computational kernels, push
// to its output channels, and reconfigure its own input channels.
type Func func(v *VDP)

// VDP is a Virtual Data Processor: the software descendant of a systolic
// array's processing element. It is uniquely identified by its tuple, owns
// persistent local storage, and fires when every active input channel
// holds a packet. Its counter defines its life span: after that many
// firings the VDP is destroyed.
type VDP struct {
	tup     tuple.Tuple
	counter int
	life    int // the counter a run starts with
	fn      Func
	local   any
	class   string // label for tracing (e.g. "panel", "update", "binary")

	in, out []*Channel

	// Placement, resolved by the mapping function at Run time.
	node, thread int

	vsa  *VSA
	dead bool
}

// Tuple returns the VDP's identifying tuple.
func (v *VDP) Tuple() tuple.Tuple { return v.tup }

// Counter returns the remaining number of firings.
func (v *VDP) Counter() int { return v.counter }

// Class returns the trace class assigned at construction.
func (v *VDP) Class() string { return v.class }

// Node returns the node this VDP was mapped to (valid during Run).
func (v *VDP) Node() int { return v.node }

// Thread returns the worker thread this VDP was mapped to (valid during Run).
func (v *VDP) Thread() int { return v.thread }

// Local returns the VDP's persistent local storage.
func (v *VDP) Local() any { return v.local }

// SetLocal replaces the VDP's persistent local storage.
func (v *VDP) SetLocal(x any) { v.local = x }

// Params returns the VSA's read-only global parameters.
func (v *VDP) Params() any { return v.vsa.params }

// WorkerState returns the private state of the worker thread currently
// firing this VDP (created by Config.WorkerState), or nil when no factory
// was configured or the VDP is not being fired by the runtime. Because a
// worker fires one VDP at a time, the state may be used without locking for
// the duration of the firing.
func (v *VDP) WorkerState() any {
	if v.node < len(v.vsa.workers) && v.thread < len(v.vsa.workers[v.node]) {
		if w := v.vsa.workers[v.node][v.thread]; w != nil {
			return w.state
		}
	}
	return nil
}

// Pop removes and returns the packet at the head of input channel slot.
// Calling it on an empty or unconnected slot panics: the firing rule
// guarantees one packet per active input at fire time, so an empty pop is
// always a programming error in the VSA's construction.
func (v *VDP) Pop(slot int) *Packet {
	c := v.inputChannel(slot)
	p := c.pop()
	if p == nil {
		panic(fmt.Sprintf("pulsar: VDP %v popped empty input slot %d (%s)",
			v.tup, slot, c))
	}
	return p
}

// TryPop removes and returns the head packet of input channel slot, or nil
// when the channel is empty.
func (v *VDP) TryPop(slot int) *Packet {
	return v.inputChannel(slot).pop()
}

// Push sends a packet to output channel slot. For an intra-node channel the
// pointer is handed to the destination queue zero-copy; for an inter-node
// channel the payload is marshaled and passed to the node's proxy, and for
// a collector channel it is queued on that channel, for Collected.
func (v *VDP) Push(slot int, p *Packet) {
	if slot < 0 || slot >= len(v.out) || v.out[slot] == nil {
		panic(fmt.Sprintf("pulsar: VDP %v has no output channel in slot %d", v.tup, slot))
	}
	v.vsa.route(v.out[slot], p)
}

// EnableInput (re)activates input channel slot so that it participates in
// the firing rule again. Mirrors PULSAR's channel enable operation; the QR
// array uses it for the hand-off from the binary tree into a flat tree.
func (v *VDP) EnableInput(slot int) {
	v.inputChannel(slot).setActive(true)
	// Enabling may complete this VDP's readiness with a packet that is
	// already queued; make sure its worker takes another look.
	if v.vsa.running.Load() {
		v.vsa.wakeWorker(v.node, v.thread)
	}
}

// DisableInput deactivates input channel slot: the channel still buffers
// arriving packets but no longer gates firing.
func (v *VDP) DisableInput(slot int) {
	v.inputChannel(slot).setActive(false)
}

// DestroyInput permanently removes input channel slot, dropping any queued
// packets. A destroyed channel never participates in the firing rule.
func (v *VDP) DestroyInput(slot int) {
	v.inputChannel(slot).destroy()
}

// InputLen returns the number of queued packets in input slot (diagnostics).
func (v *VDP) InputLen(slot int) int { return v.inputChannel(slot).len() }

// Landing returns the storage VSA.Land gave input slot, or nil
// (diagnostics).
func (v *VDP) Landing(slot int) any { return v.inputChannel(slot).landing }

func (v *VDP) inputChannel(slot int) *Channel {
	if slot < 0 || slot >= len(v.in) || v.in[slot] == nil {
		panic(fmt.Sprintf("pulsar: VDP %v has no input channel in slot %d", v.tup, slot))
	}
	return v.in[slot]
}

// ready reports whether the VDP may fire: every active input channel
// holds a packet. The rule is vacuous for disabled, destroyed or
// unconnected channels, so a VDP whose inputs are all disabled fires like
// a generator (the domino array's diagonal uses exactly this for its
// input-free final dgeqrt), as does a VDP with no inputs at all.
func (v *VDP) ready() bool {
	if v.dead {
		return false
	}
	for _, c := range v.in {
		if c == nil {
			continue
		}
		if pass, _ := c.gate(); !pass {
			return false
		}
	}
	return true
}
