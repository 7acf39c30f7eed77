package pulsar

import (
	"sync"
	"sync/atomic"
	"time"
)

// Pool is the set of worker threads every Run executes on. Its workers host
// the VDPs of every VSA attached to them — concurrently, when several Runs
// overlap. A Run without Config.Pool starts one pool per local node and
// closes it on return (a run-owned pool); a pool the caller builds with
// NewPool outlives any single run and is the execution substrate of a
// long-running factorization service: per-worker state (kernel workspaces)
// stays warm across jobs, and many small arrays share one set of OS threads
// instead of each paying goroutine churn.
//
// A caller-owned Pool serves one process — in distributed mode, one rank.
// Attach a VSA by setting Config.Pool; Run then places only the local rank's
// VDPs onto the pool's workers and returns when they have all been destroyed
// (or the run is aborted), leaving the workers running for the next job.
type Pool struct {
	threads int
	workers []*worker

	next   atomic.Uint32 // round-robin cursor for Exec placement
	closed atomic.Bool

	wg        sync.WaitGroup
	closeOnce sync.Once
}

// NewPool starts threads persistent workers (values ≤ 0 mean 1). state,
// when non-nil, is called once per worker to create its private state (e.g. a
// reusable kernel workspace) — what Config.WorkerState supplies for a
// run-owned pool.
func NewPool(threads int, state func(thread int) any) *Pool {
	return newPool(threads, state, 0, nil)
}

// newRunPool starts the pool that executes node n of s for one Run: the
// configuration's thread count, worker state and wait hook, with the workers
// reporting n as their node.
func (s *VSA) newRunPool(n int) *Pool {
	var state func(int) any
	if ws := s.cfg.WorkerState; ws != nil {
		state = func(t int) any { return ws(n, t) }
	}
	return newPool(s.cfg.ThreadsPerNode, state, n, s.cfg.WaitHook)
}

// newPool starts a pool whose workers report node in their wait events,
// with onWait installed before the first of them can park.
func newPool(threads int, state func(int) any, node int, onWait func(WaitEvent)) *Pool {
	if threads <= 0 {
		threads = 1
	}
	p := &Pool{threads: threads}
	for t := 0; t < threads; t++ {
		w := &worker{node: node, id: t, waitHook: onWait}
		w.cond = sync.NewCond(&w.mu)
		if state != nil {
			w.state = state(t)
		}
		p.workers = append(p.workers, w)
	}
	// Workers start only after the slice is complete: their steal loops scan
	// p.workers, which must be immutable by then.
	for _, w := range p.workers {
		p.wg.Add(1)
		go func(w *worker) {
			defer p.wg.Done()
			w.run(p)
		}(w)
	}
	return p
}

// Threads returns the number of worker threads in the pool.
func (p *Pool) Threads() int { return p.threads }

// OnWait installs a hook observing every interval a worker spends parked
// with nothing ready to fire. Pass nil to remove it. The hook sees wait
// intervals across all VSAs sharing the pool — it measures the pool's
// idleness, not any one job's.
func (p *Pool) OnWait(fn func(WaitEvent)) {
	for _, w := range p.workers {
		w.mu.Lock()
		w.waitHook = fn
		w.mu.Unlock()
	}
}

// Close stops the workers and waits for them to exit. VSAs still attached
// stop making progress and queued Exec tasks are dropped; Close is meant for
// process shutdown.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		p.closed.Store(true)
		for _, w := range p.workers {
			w.stop()
		}
		p.wg.Wait()
	})
}

// Exec schedules fn onto one of the pool's workers and returns immediately.
// fn receives the executing worker's private state (the same state VDP
// firings see via WorkerState), so batch tasks share the warm per-worker
// kernel workspaces with factorization jobs. Tasks are placed round-robin
// but idle workers steal queued tasks from their siblings, so one slow task
// cannot strand work behind it. Exec reports false — and drops fn — once the
// pool has been closed.
func (p *Pool) Exec(fn func(state any)) bool {
	if fn == nil || p.closed.Load() {
		return false
	}
	w := p.workers[int(p.next.Add(1))%len(p.workers)]
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return false
	}
	w.tasks = append(w.tasks, fn)
	w.kick = true
	w.mu.Unlock()
	w.cond.Signal()
	return true
}

// popTask removes this worker's oldest queued task, or nil.
func (w *worker) popTask() func(any) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.tasks) == 0 {
		return nil
	}
	t := w.tasks[0]
	copy(w.tasks, w.tasks[1:])
	w.tasks[len(w.tasks)-1] = nil
	w.tasks = w.tasks[:len(w.tasks)-1]
	return t
}

// stealTask takes the newest queued task of another worker, scanning
// siblings from the thief's right-hand neighbor. Stealing from the tail
// keeps the victim's oldest (soonest-started) work with the victim.
func (p *Pool) stealTask(thief *worker) func(any) {
	for i := 1; i < len(p.workers); i++ {
		v := p.workers[(thief.id+i)%len(p.workers)]
		v.mu.Lock()
		if n := len(v.tasks); n > 0 {
			t := v.tasks[n-1]
			v.tasks[n-1] = nil
			v.tasks = v.tasks[:n-1]
			v.mu.Unlock()
			return t
		}
		v.mu.Unlock()
	}
	return nil
}

// share is a VDP on a worker's list, with the run of its VSA (VSA.runs) it
// was attached for.
type share struct {
	v   *VDP
	run uint64
}

// attach hands a VSA's local VDPs to the pool's workers, lists[t] being the
// VDPs mapped to thread t.
func (p *Pool) attach(lists [][]share) {
	for t, l := range lists {
		if len(l) == 0 {
			continue
		}
		w := p.workers[t]
		w.mu.Lock()
		w.vdps = append(w.vdps, l...)
		w.kick = true
		w.mu.Unlock()
		w.cond.Signal()
	}
}

// detach removes every VDP of s from the pool's workers. Run calls it after
// the VSA completed or aborted; the filtered copy leaves concurrently taken
// snapshots of the old slice intact.
func (p *Pool) detach(s *VSA) {
	for _, w := range p.workers {
		w.mu.Lock()
		var keep []share
		for _, e := range w.vdps {
			if e.v.vsa != s {
				keep = append(keep, e)
			}
		}
		w.vdps = keep
		w.mu.Unlock()
	}
}

// run is the worker's scheduling loop: a sweep over the VDPs of however many
// VSAs are attached, firing the ready ones, with no termination condition of
// its own — the worker parks when nothing is ready and lives until the pool
// closes. Between VDP sweeps the worker drains its Exec task queue, and
// before parking it tries to steal a queued task from a sibling.
func (w *worker) run(p *Pool) {
	for {
		w.mu.Lock()
		vdps := w.vdps
		stopped := w.stopped
		w.mu.Unlock()
		if stopped {
			return
		}
		progress := false
		for t := w.popTask(); t != nil; t = w.popTask() {
			t(w.state)
			progress = true
			if w.isStopped() {
				return
			}
		}
		// busy brackets the aborted checks and the firings so that an aborting
		// Run can wait for in-flight kernels to drain before it inspects VDP
		// state (see Run's shutdown path). One hold spans a stretch of VDPs of
		// the same VSA — attach appends each VSA's share contiguously — and
		// since neither a dead VDP nor an aborted VSA fires, the stretch left
		// to scan once a Run is draining costs no kernel. Nor does a VDP of a
		// run that has ended: the list may be older than the last detach, and
		// its VSA re-armed since.
		var held *VSA
		for _, e := range vdps {
			v, s := e.v, e.v.vsa
			if s != held {
				if held != nil {
					held.release()
				}
				s.busy.Add(1)
				held = s
			}
			if e.run != s.runs.Load() || v.dead || s.aborted.Load() {
				continue
			}
			fired := false
			aggressive := s.cfg.Scheduling == Aggressive
			for v.ready() {
				v.fire()
				fired = true
				if v.dead || !aggressive {
					break
				}
			}
			// A firing is the only thing in the sweep that takes time, so it
			// is the only place a Close needs to be noticed mid-sweep.
			if fired {
				progress = true
				if w.isStopped() {
					held.release()
					return
				}
			}
		}
		if held != nil {
			held.release()
		}
		if !progress {
			if t := p.stealTask(w); t != nil {
				t(w.state)
				continue
			}
			w.mu.Lock()
			hook := w.waitHook
			var t0 time.Time
			if hook != nil {
				t0 = time.Now()
			}
			for !w.kick && !w.stopped {
				w.cond.Wait()
			}
			w.kick = false
			stopped := w.stopped
			w.mu.Unlock()
			if hook != nil {
				hook(WaitEvent{Node: w.node, Thread: w.id, Start: t0, End: time.Now()})
			}
			if stopped {
				return
			}
		}
	}
}

// release ends one hold on s.busy — a worker's, around a stretch of its
// sweep, or Run's own for the span in which VDPs are alive. Run keeps its
// hold until the VSA is done, so busy reaches zero only while Run is
// draining, and the holder that takes it there wakes Run.
func (s *VSA) release() {
	if s.busy.Add(-1) == 0 {
		select {
		case s.drained <- struct{}{}:
		default: // a wake-up is already pending
		}
	}
}
