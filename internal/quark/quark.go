// Package quark implements a QUARK-style task-superscalar runtime: the
// dynamic scheduling baseline the paper contrasts with the systolic design
// (§III-A). Tasks are submitted serially with read/write access
// declarations on data handles; the runtime infers dependencies exactly as
// a superscalar processor renames registers — a writer depends on the
// previous writer and every reader since, a reader depends on the previous
// writer — and executes ready tasks on a pool of workers.
//
// Centralized dependency tracking is what distinguishes this model from
// the systolic runtime: every submission serializes through the tracking
// structures, whereas PULSAR's dataflow resolves locally per channel. The
// benchmark harness uses that difference to reproduce the paper's
// runtime-comparison findings.
package quark

import "sync"

// Access declares how a task uses one handle.
type Access int

const (
	// Read declares shared, read-only use.
	Read Access = iota
	// Write declares exclusive, mutating use (covers read-modify-write).
	Write
)

// Dep pairs a data handle with an access mode. Handles may be any
// comparable value; pointers to tiles are typical.
type Dep struct {
	Handle any
	Mode   Access
}

// R builds a read dependency.
func R(h any) Dep { return Dep{Handle: h, Mode: Read} }

// W builds a write dependency.
func W(h any) Dep { return Dep{Handle: h, Mode: Write} }

type task struct {
	label   string
	fn      func()
	pending int     // unsatisfied dependencies
	succs   []*task // tasks waiting on this one
	seq     int
	done    bool
}

// lastUse tracks the renaming state of one handle.
type lastUse struct {
	writer  *task
	readers []*task
}

// Runtime is a task-superscalar execution engine. Submit tasks from one
// goroutine, then Wait for completion. A Runtime may be reused for
// multiple Submit/Wait rounds.
type Runtime struct {
	workers int

	mu       sync.Mutex
	cond     *sync.Cond
	ready    []*task
	uses     map[any]*lastUse
	inflight int
	seq      int
	started  bool
	closed   bool
	wg       sync.WaitGroup
}

// New creates a runtime with the given number of worker goroutines
// (minimum 1). Workers start on first submission and stop at Close.
func New(workers int) *Runtime {
	if workers < 1 {
		workers = 1
	}
	r := &Runtime{workers: workers, uses: map[any]*lastUse{}}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Submit enqueues a task with the given label, body and data accesses.
// Submission order defines dependency order, as in QUARK.
func (r *Runtime) Submit(label string, fn func(), deps ...Dep) {
	t := &task{label: label, fn: fn}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		panic("quark: Submit after Close")
	}
	t.seq = r.seq
	r.seq++
	r.inflight++

	// Dependency inference. A task touching the same handle twice is
	// legal; Write subsumes Read.
	seen := map[any]Access{}
	for _, d := range deps {
		if prev, dup := seen[d.Handle]; dup {
			if prev == Write || d.Mode == Read {
				continue
			}
		}
		seen[d.Handle] = d.Mode

		u := r.uses[d.Handle]
		if u == nil {
			u = &lastUse{}
			r.uses[d.Handle] = u
		}
		switch d.Mode {
		case Read:
			depend(u.writer, t)
			u.readers = append(u.readers, t)
		case Write:
			depend(u.writer, t)
			for _, rd := range u.readers {
				depend(rd, t)
			}
			u.writer = t
			u.readers = nil
		}
	}
	if t.pending == 0 {
		r.ready = append(r.ready, t)
		r.cond.Signal()
	}
	if !r.started {
		r.started = true
		for i := 0; i < r.workers; i++ {
			r.wg.Add(1)
			go r.worker()
		}
	}
	r.mu.Unlock()
}

// depend makes t wait for pred. Must run with the runtime lock held: a
// predecessor that already completed (done under the same lock) imposes no
// dependency, and duplicates are filtered by a linear scan (fan-outs are
// small in tile algorithms).
func depend(pred, t *task) {
	if pred == nil || pred == t || pred.done {
		return
	}
	for _, s := range pred.succs {
		if s == t {
			return
		}
	}
	pred.succs = append(pred.succs, t)
	t.pending++
}

func (r *Runtime) worker() {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		for len(r.ready) == 0 && !r.closed {
			r.cond.Wait()
		}
		if len(r.ready) == 0 && r.closed {
			r.mu.Unlock()
			return
		}
		// FIFO by submission order keeps the schedule close to QUARK's.
		t := r.ready[0]
		r.ready = r.ready[1:]
		r.mu.Unlock()

		t.fn()

		r.mu.Lock()
		t.done = true
		for _, s := range t.succs {
			s.pending--
			if s.pending == 0 {
				r.ready = append(r.ready, s)
			}
		}
		if len(t.succs) > 0 {
			r.cond.Broadcast()
		}
		r.inflight--
		if r.inflight == 0 {
			r.cond.Broadcast() // wake Wait
		}
		r.mu.Unlock()
	}
}

// Wait blocks until every submitted task has completed. The dependency
// state is reset afterwards so the runtime can be reused.
func (r *Runtime) Wait() {
	r.mu.Lock()
	for r.inflight > 0 {
		r.cond.Wait()
	}
	r.uses = map[any]*lastUse{}
	r.mu.Unlock()
}

// Close waits for completion and stops the workers.
func (r *Runtime) Close() {
	r.Wait()
	r.mu.Lock()
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
	if r.started {
		r.wg.Wait()
	}
}
