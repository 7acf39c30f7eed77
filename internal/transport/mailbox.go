package transport

import (
	"sync"

	"pulsarqr/internal/slab"
)

// mailbox implements MPI receive matching for every endpoint — in-process,
// TCP, mux job session: arrived, unmatched messages wait in an
// inbox; posted, unmatched receives wait in a queue; both are FIFO, so
// messages between a given pair of ranks are non-overtaking with respect to
// matching receives.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	inbox  []envelope
	recvs  []*netRequest
	notify func()
	failed bool
	gone   []bool // ranks that departed (connection ended): sends from them can never arrive
	nGone  int
	size   int
}

// envelope is one arrived message. Its payload is either warm storage of
// its own (warm: it goes back to slab.Bytes on release) or a view of a message
// the underlying endpoint delivered to a mux (up, which releases it).
type envelope struct {
	source, tag int
	data        []byte
	warm        bool
	up          Request
}

func newMailbox(size int) *mailbox {
	mb := &mailbox{gone: make([]bool, size), size: size}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// depth returns the number of delivered messages no receive has matched yet.
func (mb *mailbox) depth() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return len(mb.inbox)
}

func (mb *mailbox) setNotify(fn func()) {
	mb.mu.Lock()
	mb.notify = fn
	mb.mu.Unlock()
}

// push delivers one arrived message, completing the oldest matching posted
// receive or parking the message in the inbox.
func (mb *mailbox) push(env envelope) {
	mb.mu.Lock()
	matched := false
	for i, r := range mb.recvs {
		if r.matches(env) {
			mb.recvs = append(mb.recvs[:i], mb.recvs[i+1:]...)
			r.complete(env)
			matched = true
			break
		}
	}
	if !matched {
		mb.inbox = append(mb.inbox, env)
	}
	mb.cond.Broadcast()
	notify := mb.notify
	mb.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// post registers a receive, completing it immediately from the inbox when a
// matching message already arrived. A receive that can never complete — the
// mailbox failed, the named source departed, or every peer departed — is
// returned pre-canceled so no caller ever blocks on a dead communicator.
func (mb *mailbox) post(req *netRequest) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for i, env := range mb.inbox {
		if req.matches(env) {
			mb.inbox = append(mb.inbox[:i], mb.inbox[i+1:]...)
			req.complete(env)
			return
		}
	}
	dead := mb.failed || mb.nGone >= mb.size-1 ||
		(req.source >= 0 && req.source < mb.size && mb.gone[req.source])
	if dead {
		req.mu.Lock()
		req.canceled = true
		req.mu.Unlock()
		return
	}
	mb.recvs = append(mb.recvs, req)
}

// fail cancels every posted receive and makes future posts fail fast; the
// inbox is kept so already-arrived data stays readable by Test/Data on
// completed requests.
func (mb *mailbox) fail() {
	mb.mu.Lock()
	mb.failed = true
	mb.cancelLocked(func(*netRequest) bool { return true })
	mb.mu.Unlock()
}

// depart records that a rank's connection ended: posted receives naming
// that source are canceled (nothing from it can arrive any more), and when
// every peer is gone all receives are canceled, wildcards included.
func (mb *mailbox) depart(src int) {
	mb.mu.Lock()
	if src >= 0 && src < mb.size && !mb.gone[src] {
		mb.gone[src] = true
		mb.nGone++
	}
	if mb.nGone >= mb.size-1 {
		mb.cancelLocked(func(*netRequest) bool { return true })
	} else {
		mb.cancelLocked(func(r *netRequest) bool { return r.source == src })
	}
	mb.mu.Unlock()
}

// cancelLocked cancels every posted receive sel selects and wakes waiters.
// Callers hold mb.mu.
func (mb *mailbox) cancelLocked(sel func(*netRequest) bool) {
	var rest []*netRequest
	for _, r := range mb.recvs {
		if sel(r) {
			r.mu.Lock()
			r.canceled = true
			r.mu.Unlock()
		} else {
			rest = append(rest, r)
		}
	}
	mb.recvs = rest
	mb.cond.Broadcast()
	if mb.notify != nil {
		// The callback only signals a condition variable (the proxy's
		// wake); invoking it under the lock is deadlock-free because it
		// never re-enters the mailbox.
		mb.notify()
	}
}

// netRequest is the Request implementation of every endpoint. Sends complete
// eagerly; receives complete when the mailbox matches them.
type netRequest struct {
	mu       sync.Mutex
	done     bool
	canceled bool
	isRecv   bool
	source   int // matched source (recv) or destination (send)
	tag      int
	data     []byte
	warm     bool     // data is warm storage (envelope.warm)
	up       Request  // data is a view of up's payload (envelope.up)
	mb       *mailbox // owning mailbox for receives
}

func (r *netRequest) matches(env envelope) bool {
	if r.done || r.canceled {
		return false
	}
	if r.source != Any && r.source != env.source {
		return false
	}
	if r.tag != Any && r.tag != env.tag {
		return false
	}
	return true
}

// complete must be called with the owning mailbox's lock held (or before
// the request is published).
func (r *netRequest) complete(env envelope) {
	r.mu.Lock()
	r.done = true
	r.data, r.warm, r.up = env.data, env.warm, env.up
	r.source = env.source
	r.tag = env.tag
	r.mu.Unlock()
}

func (r *netRequest) Test() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done
}

func (r *netRequest) Canceled() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.canceled
}

func (r *netRequest) Wait() {
	if !r.isRecv {
		return // sends complete eagerly
	}
	mb := r.mb
	mb.mu.Lock()
	for {
		r.mu.Lock()
		ok := r.done || r.canceled
		r.mu.Unlock()
		if ok {
			break
		}
		mb.cond.Wait()
	}
	mb.mu.Unlock()
}

func (r *netRequest) Data() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.data
}

// Release gives the payload back: to slab.Bytes when it is warm storage, to
// the underlying receive when it is a view of one.
func (r *netRequest) Release() {
	r.mu.Lock()
	data, warm, up := r.data, r.warm, r.up
	r.data, r.warm, r.up = nil, false, nil
	r.mu.Unlock()
	switch {
	case warm:
		slab.Bytes.Put(data)
	case up != nil:
		up.Release()
	}
}

func (r *netRequest) GetCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.data)
}

func (r *netRequest) Source() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.source
}

func (r *netRequest) Tag() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tag
}

func (r *netRequest) Cancel() bool {
	if !r.isRecv {
		return false
	}
	mb := r.mb
	mb.mu.Lock()
	defer mb.mu.Unlock()
	r.mu.Lock()
	if r.done || r.canceled {
		r.mu.Unlock()
		return false
	}
	r.canceled = true
	r.mu.Unlock()
	for i, q := range mb.recvs {
		if q == r {
			mb.recvs = append(mb.recvs[:i], mb.recvs[i+1:]...)
			break
		}
	}
	mb.cond.Broadcast()
	return true
}
