package service

import (
	"container/heap"
	"context"
	"errors"
	"sync"
	"time"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/obs"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/trace"
)

// Job lifecycle states. A job is terminal in done, failed, canceled or
// expired; its done channel closes exactly once on the transition.
type State string

const (
	StatePending  State = "pending"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
	StateExpired  State = "expired"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled || s == StateExpired
}

// Result is what a completed factorization leaves behind. The factor matrix
// R is retained (until evicted) so clients can fetch it; Q lives only as
// the implicit reflectors inside the run and is not kept.
type Result struct {
	Elapsed  time.Duration
	Gflops   float64
	Residual float64
	OK       bool // residual passed the service's acceptance threshold
	Stats    qr.RunStats
	R        *matrix.Mat // n×n, column-major: what a frame carries as is and a JSON view as rows
}

// Job is one admitted factorization request.
type Job struct {
	ID uint32
	// Spec is the request as admitted, less its upload. Nothing writes it
	// after admission: views read it without the lock.
	Spec JobSpec

	ctx    context.Context
	cancel context.CancelCauseFunc

	enqueued time.Time
	deadline time.Time // zero: none
	seq      int64     // admission order, FIFO tiebreak within a priority

	// life tracks the job's phase transitions and per-phase dwell times.
	// Always on: marking is lock-plus-arithmetic, and the spans come back
	// on every GET /v1/jobs/{id}.
	life obs.Lifecycle

	// metrics is set at admission. The job settles its own share of it —
	// the running gauge, the terminal counter — inside the state transition
	// that changes the share, so no observer of Done can read a stale one.
	metrics *Metrics

	mu     sync.Mutex
	state  State // written through setStateLocked
	errMsg string
	result *Result
	// upload is the uploaded matrix (column-major M×N; nil for a seeded job),
	// held from admission through every requeue and let go on the terminal
	// transition: what a finished job retains is its R.
	upload  []float64
	attempt int           // completed dispatch attempts beyond the first
	trace   []trace.Shard // per-rank shards, set before finish when Spec.Trace
	flight  []obs.Event   // flight-recorder tail, attached on non-done terminals

	done       chan struct{}
	onTerminal func() // runs once on the terminal transition, before done closes
}

// State returns the job's current state and error message (empty unless
// failed).
func (j *Job) State() (State, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.errMsg
}

// Result returns the job's result, nil until it completed successfully.
func (j *Job) Result() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// outcome is State and Result in one reading, for a view: a state read
// before the terminal transition must not be paired with a result read after.
func (j *Job) outcome() (State, string, *Result) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.errMsg, j.result
}

// input returns the job's upload, nil for a seeded job.
func (j *Job) input() []float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.upload
}

// TraceShards returns the job's gathered per-rank trace shards, nil unless
// the job requested tracing and completed.
func (j *Job) TraceShards() []trace.Shard {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace
}

func (j *Job) setTrace(shards []trace.Shard) {
	j.mu.Lock()
	j.trace = shards
	j.mu.Unlock()
}

// Spans returns the job's lifecycle span accounting so far.
func (j *Job) Spans() obs.Spans { return j.life.Snapshot() }

// Flight returns the flight-recorder tail attached when the job ended in
// trouble (failed, canceled, expired); nil for healthy or live jobs.
func (j *Job) Flight() []obs.Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flight
}

func (j *Job) setFlight(tail []obs.Event) {
	j.mu.Lock()
	j.flight = tail
	j.mu.Unlock()
}

// Attempts returns how many times the job has been requeued after a fleet
// failure (0 on the first attempt).
func (j *Job) Attempts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempt
}

// requeue returns the job to the pending state for another attempt,
// reporting false if it already reached a terminal state (a cancel racing
// the retry wins).
func (j *Job) requeue() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.setStateLocked(StatePending)
	j.attempt++
	j.life.Mark(obs.PhaseQueued) // retry wait accrues to queue time
	return true
}

// setStateLocked moves the job to state s, keeping the running gauge equal
// to the number of jobs in StateRunning. Callers hold j.mu.
func (j *Job) setStateLocked(s State) {
	if j.state == StateRunning {
		j.metrics.Running.Add(-1)
	}
	if s == StateRunning {
		j.metrics.Running.Add(1)
	}
	j.state = s
}

// Done closes when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel requests cancellation: queued jobs are dropped at dispatch,
// running jobs abort.
func (j *Job) Cancel() { j.cancel(context.Canceled) }

// finish moves the job to a terminal state exactly once.
func (j *Job) finish(s State, errMsg string, r *Result) bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.setStateLocked(s)
	j.errMsg = errMsg
	j.result = r
	j.upload = nil
	j.mu.Unlock()
	j.life.Mark(obs.PhaseTerminal)
	j.metrics.terminal(s).Add(1)
	if j.onTerminal != nil {
		j.onTerminal()
	}
	close(j.done)
	j.cancel(nil) // release the context's resources
	return true
}

// Admission errors.
var (
	ErrQueueFull = errors.New("service: admission queue full")
	ErrClosed    = errors.New("service: manager closed")
	ErrNotFound  = errors.New("service: no such job")
)

// Manager is the admission queue and dispatcher: a bounded priority queue
// in front of a fixed number of dispatcher goroutines. Backpressure is
// explicit — when the queue is at capacity Submit returns ErrQueueFull and
// nothing is buffered.
type Manager struct {
	run     func(*Job) // executes one job to a terminal state
	metrics *Metrics
	obs     *obs.Observer // event sink; nil is valid and free

	mu      sync.Mutex
	cond    *sync.Cond
	queue   jobQueue
	cap     int
	nextSeq int64
	closed  bool

	wg sync.WaitGroup
}

// NewManager starts workers dispatcher goroutines in front of a queue
// bounded at capacity. run is called once per dispatched job and must drive
// it to a terminal state, or requeue it.
func NewManager(capacity, workers int, metrics *Metrics, run func(*Job)) *Manager {
	if capacity <= 0 {
		capacity = 1
	}
	if workers <= 0 {
		workers = 1
	}
	m := &Manager{run: run, metrics: metrics, cap: capacity}
	m.cond = sync.NewCond(&m.mu)
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.dispatch()
	}
	return m
}

// Depth returns the number of queued (not yet dispatched) jobs.
func (m *Manager) Depth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queue.Len()
}

// Submit admits a job or rejects it with ErrQueueFull. The job must carry
// its context and deadline already; Submit assigns the FIFO sequence.
func (m *Manager) Submit(j *Job) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	if m.queue.Len() >= m.cap {
		m.mu.Unlock()
		m.metrics.RejectedFull.Add(1)
		return ErrQueueFull
	}
	j.seq = m.nextSeq
	m.nextSeq++
	j.metrics = m.metrics
	heap.Push(&m.queue, j)
	// The queued mark must land before the push is signaled: a dispatcher
	// could pop the job immediately, and a late mark would drag the phase
	// backwards. Submitted and Queued both accrue to queue wait anyway.
	j.life.Mark(obs.PhaseQueued)
	m.mu.Unlock()
	m.metrics.Accepted.Add(1)
	m.obs.Emit(obs.Event{Kind: obs.EvQueued, Class: "job", Job: j.ID,
		Tenant: j.Spec.Tenant, Attempt: j.Attempts()})
	m.cond.Signal()
	return nil
}

// Close stops admitting, drains the dispatchers, and cancels queued jobs.
// Running jobs are not interrupted here — the server cancels their contexts
// during shutdown.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	var rest []*Job
	for m.queue.Len() > 0 {
		rest = append(rest, heap.Pop(&m.queue).(*Job))
	}
	m.mu.Unlock()
	m.cond.Broadcast()
	for _, j := range rest {
		j.finish(StateCanceled, "service shutting down", nil)
	}
	m.wg.Wait()
}

// dispatch pops jobs in priority order and runs them, enforcing deadlines
// and cancellation at the dispatch point: an expired or canceled job is
// dropped before any resources are committed to it.
func (m *Manager) dispatch() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for m.queue.Len() == 0 && !m.closed {
			m.cond.Wait()
		}
		if m.queue.Len() == 0 && m.closed {
			m.mu.Unlock()
			return
		}
		j := heap.Pop(&m.queue).(*Job)
		m.mu.Unlock()

		if !j.deadline.IsZero() && time.Now().After(j.deadline) {
			j.finish(StateExpired, "deadline passed before dispatch", nil)
			continue
		}
		if j.ctx.Err() != nil {
			j.finish(StateCanceled, "", nil)
			continue
		}
		j.mu.Lock()
		j.setStateLocked(StateRunning)
		j.mu.Unlock()
		j.life.Mark(obs.PhaseDispatched)
		m.obs.Emit(obs.Event{Kind: obs.EvDispatched, Class: "job", Job: j.ID,
			Tenant: j.Spec.Tenant, Attempt: j.Attempts()})
		m.run(j)
	}
}

// jobQueue is a max-heap by priority, FIFO within equal priorities.
type jobQueue []*Job

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(a, b int) bool {
	if q[a].Spec.Priority != q[b].Spec.Priority {
		return q[a].Spec.Priority > q[b].Spec.Priority
	}
	return q[a].seq < q[b].seq
}
func (q jobQueue) Swap(a, b int) { q[a], q[b] = q[b], q[a] }
func (q *jobQueue) Push(x any)   { *q = append(*q, x.(*Job)) }
func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return j
}
