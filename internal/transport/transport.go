// Package transport is the pluggable inter-node communication layer of the
// PULSAR runtime reproduction. It abstracts the six MPI calls the runtime
// relies on — Isend, Irecv, Test, Get_count, Barrier and Cancel — behind an
// Endpoint interface with two implementations:
//
//   - Local: the in-process substrate, where every rank is a set of
//     goroutines in one OS process and a send is a copy into the
//     destination's mailbox; and
//   - TCP: a real network transport where every rank is its own OS process
//     and messages travel through length-prefixed frames over a full mesh
//     of TCP connections (see wire.go and docs/TRANSPORT.md).
//
// The runtime's proxy path is written against Endpoint only, so a
// factorization runs unchanged on either substrate.
package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Any is the wildcard for Irecv's source or tag (MPI_ANY_SOURCE /
// MPI_ANY_TAG).
const Any = -1

// Tags reserved for the exchanges a mesh makes outside a run. The runtime
// numbers a run's channel tags consecutively from 0 within each ordered pair
// of ranks, one per inter-node channel, so a run would need sixteen million
// channels between one pair to reach these (the service admits a task graph
// of 4 Mi kernels at most) — and no proxy is receiving when they are used:
// the upload precedes the run, and the run ends with a barrier.
const (
	// UploadTag carries a rank's rows of an uploaded matrix on the job
	// session, before the run.
	UploadTag = 1<<24 - 2
	// TraceGatherTag carries one trace shard per rank to rank 0.
	TraceGatherTag = 1<<24 - 1
	// GatherTagBase keys the result gather: the array's i-th declared output
	// travels under GatherTagBase+i, a rank's input sketch under the tag
	// after the last output.
	GatherTagBase = 1 << 24
)

// PeerDeathError reports that one peer rank of the communicator is gone —
// its process exited, its connection broke past the reconnect budget, or
// its heartbeats stopped. Layers above the Endpoint surface unwrap it to
// distinguish network death from algorithmic deadlock.
type PeerDeathError struct {
	Rank int
	Err  error
}

func (e *PeerDeathError) Error() string {
	return fmt.Sprintf("transport: peer rank %d is dead: %v", e.Rank, e.Err)
}

func (e *PeerDeathError) Unwrap() error { return e.Err }

// FailureObserver is implemented by endpoints that can report the death of
// individual peers (the TCP substrate and mux job sessions; a Chaos wrapper
// passes on its wrapped endpoint's reports). The in-process Local substrate
// never loses a peer and does not implement it; callers type-assert.
type FailureObserver interface {
	// OnPeerFailure registers a callback invoked (outside internal locks)
	// when a peer rank departs or is declared dead; nil unregisters every
	// callback. Each endpoint instance expects one logical consumer — the
	// runtime's proxy for a run endpoint, the Mux for its underlying one.
	OnPeerFailure(fn func(rank int, err error))
	// PeerFailure returns the first peer death observed on this endpoint
	// (typically a *PeerDeathError), or nil while the full communicator is
	// healthy. It keeps reporting after callbacks were unregistered, so
	// error paths can recover the cause after the fact.
	PeerFailure() error
}

// failureLog is the record of peer deaths behind an endpoint's
// FailureObserver surface, embedded by the TCP endpoint, the Mux and its job
// sessions: a rank is recorded once, deaths keep the order they were
// observed in, and the observers to notify come back as a snapshot so the
// caller runs them outside every lock.
type failureLog struct {
	failMu  sync.Mutex
	dead    []peerDeath // in order of death
	failFns []func(rank int, err error)
}

type peerDeath struct {
	rank  int
	cause error
}

// recordDeath notes that rank died of err. It reports false when the rank
// was already recorded; otherwise the observers registered at this instant.
func (l *failureLog) recordDeath(rank int, err error) ([]func(rank int, err error), bool) {
	l.failMu.Lock()
	defer l.failMu.Unlock()
	for _, d := range l.dead {
		if d.rank == rank {
			return nil, false
		}
	}
	l.dead = append(l.dead, peerDeath{rank, err})
	return append([]func(rank int, err error){}, l.failFns...), true
}

// OnPeerFailure registers an observer of later deaths; nil unregisters all.
func (l *failureLog) OnPeerFailure(fn func(rank int, err error)) {
	l.failMu.Lock()
	defer l.failMu.Unlock()
	if fn == nil {
		l.failFns = nil
	} else {
		l.failFns = append(l.failFns, fn)
	}
}

// PeerFailure returns the cause of the first death recorded, or nil.
func (l *failureLog) PeerFailure() error {
	if dead := l.deaths(); len(dead) > 0 {
		return dead[0].cause
	}
	return nil
}

func (l *failureLog) isDead(rank int) bool {
	for _, d := range l.deaths() {
		if d.rank == rank {
			return true
		}
	}
	return false
}

// deaths snapshots the record. Entries are never rewritten, only appended,
// so the prefix returned stays valid without a copy.
func (l *failureLog) deaths() []peerDeath {
	l.failMu.Lock()
	defer l.failMu.Unlock()
	return l.dead
}

// Crasher is implemented by endpoints that can simulate the abrupt death of
// their own rank for fault-injection tests: connections are severed without
// the clean-shutdown handshake, nothing queued is flushed, and peers are
// left to discover the death through their own failure detection.
type Crasher interface {
	Crash()
}

// LinkSeverer is implemented by endpoints whose link to one peer can be cut
// underneath the protocol — both directions of the TCP pair are closed as a
// network fault would, while queues, windows and counters stay intact, so
// the reconnect machinery (not a fresh rendezvous) must repair the link.
type LinkSeverer interface {
	SeverLink(peer int)
}

// Request tracks an outstanding Isend or Irecv, mirroring the MPI request
// object surface the runtime uses.
type Request interface {
	// Test reports whether the request has completed (MPI_Test).
	Test() bool
	// Wait blocks until the request completes or is canceled.
	Wait()
	// Cancel cancels an outstanding receive (MPI_Cancel), reporting
	// whether the cancellation took effect. Eager sends report false.
	Cancel() bool
	// Canceled reports whether the request was canceled before completing.
	Canceled() bool
	// Data returns the received payload (valid after a recv completes).
	// The payload is the receiver's: nothing in the transport reads or
	// writes it after delivery.
	Data() []byte
	// Release gives a completed receive's payload back to the transport's
	// warm storage, where the next frame of its size class arrives into it.
	// The caller must have copied out what it keeps: Data returns nil
	// afterwards, and the bytes are overwritten. A payload never released
	// is left to the garbage collector; a send has nothing to release.
	Release()
	// GetCount returns the payload size in bytes (MPI_Get_count).
	GetCount() int
	// Source returns the matched source rank of a completed receive.
	Source() int
	// Tag returns the matched tag of a completed receive.
	Tag() int
}

// ErrClosed fails the barrier of an endpoint closed under it, and is Await's
// verdict on a receive that ended unmatched with the context live and no
// peer recorded dead.
var ErrClosed = errors.New("transport: endpoint closed")

// Await blocks until req, a receive posted on ep, completes, and says why
// when it did not: nil for a completed receive, else context.Cause(ctx) when
// the context ended the wait, else the first peer death ep recorded (a
// *PeerDeathError), else ErrClosed.
func Await(ctx context.Context, ep Endpoint, req Request) error {
	stop := context.AfterFunc(ctx, func() { req.Cancel() })
	req.Wait()
	stop()
	if !req.Canceled() {
		return nil
	}
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	if fo, ok := ep.(FailureObserver); ok {
		if err := fo.PeerFailure(); err != nil {
			return err
		}
	}
	return ErrClosed
}

// Endpoint is one rank's attachment to the communicator: the six-call
// surface the runtime's proxy drives, plus lifecycle and accounting.
//
// Semantics (identical across implementations — one mailbox matches the
// receives of all of them): sends are eager — the payload is copied (or
// serialized) before Isend returns, so the caller may reuse its buffer
// immediately, and the returned request tests complete at once. Receives
// match on a (source, tag) pair, either of which may be Any; messages
// between a given pair of ranks are non-overtaking with respect to matching
// receives.
type Endpoint interface {
	// Rank returns this endpoint's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks in the communicator.
	Size() int
	// Isend sends data to dest with the given tag. The payload is copied;
	// the request completes eagerly.
	Isend(data []byte, dest, tag int) Request
	// IsendPrefixed sends prefix followed by data as one message, exactly
	// as Isend sends their concatenation, without the caller building it:
	// both are copied straight into the outgoing frame. A wrapper that
	// overrides Isend must override this too, since a mux session sends
	// through it.
	IsendPrefixed(prefix, data []byte, dest, tag int) Request
	// Irecv posts a receive for a message from source (or Any) with the
	// given tag (or Any).
	Irecv(source, tag int) Request
	// Barrier blocks until every rank has entered it. It returns an error
	// when the communicator has failed (e.g. a peer process died).
	Barrier() error
	// OnArrival registers a callback invoked (outside internal locks)
	// whenever a message arrives at this rank; the runtime's proxy uses it
	// to wake up instead of busy-polling.
	OnArrival(fn func())
	// Stats reports the number of messages and payload bytes this endpoint
	// has sent so far.
	Stats() (messages, bytes int64)
	// Close releases the endpoint's resources. Posted receives that can no
	// longer complete are canceled so no caller is left hanging.
	Close() error
}
