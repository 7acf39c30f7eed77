package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"pulsarqr/internal/batch"
	"pulsarqr/internal/blas"
	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/obs"
	"pulsarqr/internal/pulsar"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/session"
	"pulsarqr/internal/slab"
	"pulsarqr/internal/trace"
	"pulsarqr/internal/transport"
)

// residualTol is the acceptance threshold on the job's sketched backward
// error ‖Z − Rᵀ(R·X)‖_F / ‖Z‖_F (qr.Sketch): anything above it marks the
// result not-OK.
const residualTol = 1e-10

// flightTailLen is how many flight-recorder events attach to a job that ends
// in trouble; flightDumpLen is the postmortem dumped to the log when a fleet
// agent is evicted.
const (
	flightTailLen = 32
	flightDumpLen = 64
)

// Config parameterizes a Server.
type Config struct {
	// Threads sizes the persistent worker pool. Default 2.
	Threads int
	// QueueCap bounds the admission queue; a submit beyond it returns
	// ErrQueueFull. Default 32.
	QueueCap int
	// MaxConcurrent is the number of jobs factorizing at once. Default 4.
	MaxConcurrent int
	// ResultCap bounds the number of terminal jobs kept queryable; older
	// ones are evicted. Default 64.
	ResultCap int
	// Ep, when non-nil, is the fleet communicator: this process must be
	// rank 0, and the remaining ranks must run Agents. Jobs then execute
	// across the whole fleet over mux-multiplexed sessions. When nil the
	// server factorizes alone.
	Ep transport.Endpoint
	// DeadlockTimeout passes through to the runtime; zero = default.
	DeadlockTimeout time.Duration
	// TraceCap bounds each traced job's event recorder; zero takes
	// trace.DefaultCapacity. Overflow drops the oldest events and is
	// reported in the shard and the qrserve_trace_dropped_total counter.
	TraceCap int
	// BatchStreams caps concurrent POST /v1/batch streams — the batch
	// tenant's admission class, separate from the job queue so a flood of
	// batch traffic cannot starve big single-job tenants (and vice versa).
	// Default 2.
	BatchStreams int
	// CheckpointDir, when set, makes streaming sessions durable: every
	// session checkpoints its reduction spine there (QSC1 files), idle
	// sessions unload to disk, and a restarted server re-registers every
	// checkpoint it finds. Empty keeps sessions memory-only.
	CheckpointDir string
	// SessionStreams caps concurrent POST /v1/sessions/{id}/append streams —
	// the third admission class beside the job queue and batch streams.
	// Default 2.
	SessionStreams int
	// MaxSessions bounds the session table; MaxSessionsPerTenant bounds one
	// tenant's share. Zeros take the session package defaults (64 / 8).
	MaxSessions          int
	MaxSessionsPerTenant int
	// SessionIdle is how long a session may sit unused before it unloads
	// (durable) or is evicted (memory-only); zero takes the session package
	// default (10m), negative disables.
	SessionIdle time.Duration
	// CheckpointEvery is the default appends-per-checkpoint cadence for new
	// sessions (overridable per session); zero means every append.
	CheckpointEvery int
	// Logf receives service logs; nil discards them.
	Logf func(format string, args ...any)
	// Obs is the observability layer: structured events and the flight
	// recorder. Nil disables all of it at zero cost (every obs call is
	// nil-checked and allocation-free).
	Obs *obs.Observer
}

// Server is the factorization service: persistent pool, persistent fleet
// sessions, bounded admission queue, job registry, metrics.
type Server struct {
	cfg     Config
	pool    *pulsar.Pool
	mux     *transport.Mux
	ctl     *transport.JobEndpoint
	mgr     *Manager
	metrics *Metrics
	obs     *obs.Observer // nil when observability is disabled
	started time.Time

	batchSched    *batch.Scheduler
	batchStreams  streamClass // admission of POST /v1/batch streams
	sessions      *session.Table
	appendStreams streamClass // admission of session append streams

	baseCtx context.Context
	stop    context.CancelFunc

	nextID atomic.Uint32

	mu        sync.Mutex
	jobs      map[uint32]*Job
	terminal  []uint32     // eviction order of terminal jobs
	deadRanks map[int]bool // fleet ranks evicted after a peer-death verdict

	closeOnce sync.Once
}

// NewServer builds the service and warms its pool. With cfg.Ep set it also
// claims the control-plane mux channel to the fleet.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Threads <= 0 {
		cfg.Threads = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 32
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	if cfg.ResultCap <= 0 {
		cfg.ResultCap = 64
	}
	if cfg.BatchStreams <= 0 {
		cfg.BatchStreams = 2
	}
	if cfg.SessionStreams <= 0 {
		cfg.SessionStreams = 2
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:       cfg,
		metrics:   NewMetrics(),
		obs:       cfg.Obs,
		started:   time.Now(),
		jobs:      map[uint32]*Job{},
		deadRanks: map[int]bool{},
	}
	s.baseCtx, s.stop = context.WithCancel(context.Background())
	if cfg.Ep != nil && cfg.Ep.Size() > 1 {
		if cfg.Ep.Rank() != 0 {
			return nil, fmt.Errorf("service: server must run on rank 0, got rank %d", cfg.Ep.Rank())
		}
		s.mux = transport.NewMux(cfg.Ep)
		ctl, err := s.mux.Open(ctlJob)
		if err != nil {
			s.mux.Close()
			return nil, err
		}
		s.ctl = ctl
		// Fleet degradation: when the transport declares an agent rank
		// dead, evict it so new attempts session only the survivors. The
		// departures of a deliberate shutdown are not evictions.
		s.mux.OnPeerFailure(func(rank int, err error) {
			if s.baseCtx.Err() != nil {
				return
			}
			s.mu.Lock()
			seen := s.deadRanks[rank]
			s.deadRanks[rank] = true
			s.mu.Unlock()
			if !seen {
				s.metrics.Evicted.Add(1)
				s.obs.Emit(obs.Event{Kind: obs.EvAgentEvict, Rank: rank, Detail: err.Error()})
				// An eviction is the postmortem moment: dump the flight
				// recorder so the log shows what led up to the degradation.
				s.obs.DumpTail(fmt.Sprintf("agent rank %d evicted", rank), flightDumpLen)
				s.cfg.Logf("fleet degraded: agent rank %d evicted: %v", rank, err)
			}
		})
		for r := 1; r < cfg.Ep.Size(); r++ {
			s.obs.Emit(obs.Event{Kind: obs.EvAgentJoin, Rank: r})
		}
	}
	s.pool = pulsar.NewPool(cfg.Threads, func(int) any { return kernels.NewWorkspace() })
	s.pool.OnWait(s.metrics.ObserveWait) // park intervals feed the worker-wait histogram
	// Attribute this process's compute path once at startup: bench JSONs and
	// fleet logs need to know which micro-kernel produced the numbers.
	cfg.Logf("compute: micro-kernel %s, cpu features %s",
		blas.MicroKernelName(), blas.CPUFeatures())
	s.mgr = NewManager(cfg.QueueCap, cfg.MaxConcurrent, s.metrics, s.runJob)
	s.mgr.obs = cfg.Obs
	s.batchSched = batch.NewScheduler(batch.SchedConfig{Pool: s.pool, OnChunk: s.metrics.ObserveBatchChunk})
	s.batchStreams = streamClass{"batch", make(chan struct{}, cfg.BatchStreams),
		&s.metrics.BatchActive, &s.metrics.BatchRejected, "batch capacity exhausted; retry later"}
	s.appendStreams = streamClass{"session", make(chan struct{}, cfg.SessionStreams),
		&s.metrics.AppendActive, &s.metrics.AppendRejected, "session append capacity exhausted; retry later"}
	tbl, err := session.NewTable(session.Config{
		Dir:          cfg.CheckpointDir,
		Pool:         s.pool,
		MaxSessions:  cfg.MaxSessions,
		MaxPerTenant: cfg.MaxSessionsPerTenant,
		IdleTimeout:  cfg.SessionIdle,
		Every:        cfg.CheckpointEvery,
		OnAppend:     s.metrics.ObserveAppend,
		OnCheckpoint: func(bytes int64) {
			s.metrics.ObserveCheckpoint(bytes)
			s.obs.Emit(obs.Event{Kind: obs.EvCheckpoint, Bytes: bytes})
		},
		OnRestore: func() { s.metrics.SessionsRestored.Add(1) },
		OnEvict:   func() { s.metrics.SessionsEvicted.Add(1) },
		Logf:      cfg.Logf,
	})
	if err != nil {
		s.pool.Close()
		if s.mux != nil {
			s.mux.Close()
		}
		return nil, err
	}
	s.sessions = tbl
	return s, nil
}

// Sessions exposes the session table (tests and embedders).
func (s *Server) Sessions() *session.Table { return s.sessions }

// Metrics exposes the server's counters (shared with the HTTP surface).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Ranks returns the fleet size this server drives (1 when standalone).
func (s *Server) Ranks() int {
	if s.cfg.Ep == nil {
		return 1
	}
	return s.cfg.Ep.Size()
}

// liveRanks returns the surviving fleet ranks (rank 0 plus every agent not
// evicted), the member set of the next job session.
func (s *Server) liveRanks() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	live := []int{0}
	for r := 1; r < s.cfg.Ep.Size(); r++ {
		if !s.deadRanks[r] {
			live = append(live, r)
		}
	}
	return live
}

// AgentsLive returns the number of fleet ranks still alive (including the
// server's own rank); 1 when standalone.
func (s *Server) AgentsLive() int {
	if s.mux == nil {
		return 1
	}
	return len(s.liveRanks())
}

// Degraded reports whether any fleet agent has been evicted.
func (s *Server) Degraded() bool {
	if s.mux == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.deadRanks) > 0
}

// Submit validates and admits a job. The returned job is queryable via Get
// until it is evicted; rejection with ErrQueueFull is the service's
// backpressure signal and buffers nothing.
func (s *Server) Submit(spec JobSpec) (*Job, error) { return s.submit(spec, false) }

// submit is Submit, told whether the server owns spec.Data: only an upload
// the server decoded itself (decodeSubmit) may go back to slab.Floats, since
// the next decode overwrites a pooled slab — a library caller's Data never.
func (s *Server) submit(spec JobSpec, owned bool) (*Job, error) {
	if err := spec.Validate(); err != nil {
		s.metrics.RejectedBad.Add(1)
		return nil, err
	}
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	var upload []float64
	if len(spec.Data) > 0 { // "data":[] is a seeded spec, as Validate read it
		upload = spec.Data
	}
	spec.Data = nil
	j := &Job{
		ID:       s.nextID.Add(1), // ids start at 1; mux job 0 is the control plane
		Spec:     spec,
		upload:   upload,
		owned:    owned,
		ctx:      ctx,
		cancel:   cancel,
		enqueued: time.Now(),
		state:    StatePending,
		done:     make(chan struct{}),
	}
	j.life.Mark(obs.PhaseSubmitted)
	// Retirement rides the terminal transition itself, so every path that
	// ends a job — runJob, the dispatcher's pre-dispatch deadline/cancel
	// drops, Manager.Close — retires it exactly once, before Done observers
	// wake, and eviction bounds the registry no matter how the job ended.
	// The same transition closes out observability: span histograms observe
	// the final accounting, the terminal event is emitted, and a job that
	// ended in trouble gets the flight-recorder tail pinned to its record
	// (after the emit, so the tail includes the terminal event itself).
	j.onTerminal = func() {
		s.retire(j.ID)
		sp := j.Spans()
		s.metrics.ObserveSpans("job", sp)
		state, errMsg := j.State()
		kind := obs.EvDone
		switch state {
		case StateFailed:
			kind = obs.EvFailed
		case StateCanceled:
			kind = obs.EvCanceled
		case StateExpired:
			kind = obs.EvExpired
		}
		s.obs.Emit(obs.Event{Kind: kind, Class: "job", Job: j.ID, Tenant: j.Spec.Tenant,
			Attempt: j.Attempts(), DurMS: float64(sp.Total) / float64(time.Millisecond), Detail: errMsg})
		if kind != obs.EvDone && s.obs.Enabled() {
			j.setFlight(s.obs.TailJob(j.ID, flightTailLen))
		}
	}
	if spec.DeadlineMS > 0 {
		j.deadline = j.enqueued.Add(time.Duration(spec.DeadlineMS) * time.Millisecond)
	}
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.mu.Unlock()
	if err := s.mgr.Submit(j); err != nil {
		s.mu.Lock()
		delete(s.jobs, j.ID)
		s.mu.Unlock()
		cancel(nil)
		return nil, err
	}
	opts, _ := spec.Options() // Validate passed, so this cannot fail
	s.cfg.Logf("job %d admitted: %dx%d nb=%d ib=%d tree=%v prio=%d", j.ID, spec.M, spec.N, opts.NB, opts.IB, opts.Tree, spec.Priority)
	return j, nil
}

// Get returns an admitted job by id.
func (s *Server) Get(id uint32) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// planJob returns the spec the job actually runs, with NB, IB, H and Tree
// all set: j.Spec's own values with every omitted one resolved against this
// rank's defaults — an omitted H as one domain per worker of the live fleet,
// ranks × Threads (qr.Options.Resolve). The resolved spec is what the open
// broadcast carries, so the fleet tiles one matrix one way even if its
// ranks' builds or pools disagree — an agent never fills one in itself.
// Shape, data and policy fields ride through untouched.
func (s *Server) planJob(j *Job) JobSpec {
	spec := j.Spec
	if opts, err := spec.Options(); err == nil { // an error here fails the job in runJob
		opts = opts.Resolve((spec.M+opts.NB-1)/opts.NB, s.AgentsLive()*s.cfg.Threads)
		spec.NB, spec.IB, spec.H, spec.Tree = opts.NB, opts.IB, opts.H, opts.Tree.String()
	}
	return spec
}

// runJob executes one dispatched job to a terminal state. In fleet mode it
// first broadcasts the spec so every agent opens the same mux channel and
// builds the same array, and deals an uploaded matrix out over that channel.
//
// The spec that actually runs is planJob's effective spec: j.Spec with its
// tile, h and tree resolved. j.Spec itself stays immutable — job views read
// it without the lock.
func (s *Server) runJob(j *Job) {
	spec := s.planJob(j)
	upload := j.input()
	var ep transport.Endpoint
	stopRelay := func() bool { return false }
	if s.mux != nil {
		if members := s.liveRanks(); len(members) > 1 {
			// Every attempt gets a fresh session id from the same monotonic
			// space as job ids, so a retried job can never collide with the
			// mux channel of its own dead attempt; on a degraded fleet the
			// session spans only the survivors.
			sid := s.nextID.Add(1)
			jep, err := s.mux.OpenOn(sid, members)
			if err != nil {
				s.fail(j, fmt.Sprintf("open job channel: %v", err))
				return
			}
			defer jep.Close()
			s.broadcast(ctlMsg{Op: "open", Job: j.ID, Session: sid, Ranks: members, Spec: &spec, Upload: upload != nil})
			// Cancellation must be collective: relay it to the agents AND fail
			// this rank's job session. Closing jep fails its barrier state, so
			// a rank whose local share finished before the cancel — already
			// blocked in the collective post-run barrier its aborting peers
			// will never enter — unwinds instead of wedging this dispatcher
			// worker forever. The success path stops the relay before finish's
			// cancel(nil) so a completed job broadcasts nothing; a failed job
			// leaves it armed, releasing agents still running their share.
			stopRelay = context.AfterFunc(j.ctx, func() {
				s.obs.Emit(obs.Event{Kind: obs.EvBarrierAbort, Class: "job", Job: j.ID,
					Detail: "cancel relayed to fleet; job session closed"})
				s.broadcast(ctlMsg{Op: "cancel", Job: j.ID})
				jep.Close()
			})
			defer stopRelay()
			ep = jep
		}
	}

	opts, err := spec.Options()
	if err != nil {
		s.fail(j, err.Error())
		return
	}
	// The open went out as a spec alone: the control plane carries no matrix.
	// From here this attempt's copy holds the upload again, and the other
	// ranks of the session are sent their rows of it as bits.
	if spec.Data = upload; upload != nil && ep != nil {
		spec.sendUpload(ep, opts.NB)
	}
	rc := qr.RunConfig{FireHook: s.metrics.FireHook, DeadlockTimeout: s.cfg.DeadlockTimeout}
	var rec *trace.Recorder
	if spec.Trace {
		rec = trace.NewRecorderCap(s.cfg.TraceCap)
		hook := rec.Hook()
		rc.FireHook = func(ev pulsar.FireEvent) {
			s.metrics.FireHook(ev)
			hook(ev)
		}
		rc.CommHook = rec.CommHook()
	}
	// The run span opens here: building this rank's tile rows and sketching
	// them is work done for the job, not time spent dispatching it.
	j.life.Mark(obs.PhaseRunning)
	s.obs.Emit(obs.Event{Kind: obs.EvRunning, Class: "job", Job: j.ID,
		Tenant: j.Spec.Tenant, Attempt: j.Attempts()})
	ranks := 1
	if ep != nil {
		ranks = ep.Size()
	}
	a, env, tiles, err := spec.ownedInputs(opts, j.ID, ranks, 0) // the server is rank 0 of every session
	if err != nil {
		s.fail(j, err.Error())
		return
	}
	// Elapsed (and Gflops) time the factorization alone, as they always have:
	// array build, run, gather.
	start := time.Now()
	env.Endpoint, env.Pool = ep, s.pool
	f, err := qr.FactorizeVSAIn(j.ctx, a, nil, opts, rc, env)
	elapsed := time.Since(start)
	if err != nil {
		switch {
		case j.ctx.Err() != nil:
			if j.finish(StateCanceled, "", nil) {
				s.cfg.Logf("job %d canceled after %v", j.ID, elapsed)
			}
		case peerDeath(err, ep) && j.Attempts() < j.Spec.MaxRetries && j.requeue():
			// The attempt died with a fleet rank, not on its own merits:
			// requeue onto whatever fleet survives, with backoff doubling
			// per attempt. A cancel racing the retry wins (requeue false).
			s.metrics.Requeued.Add(1)
			// Reap the dead attempt's shares on the agents: the job is not
			// canceled, but its old session is, and a rank whose share
			// out-lived this one would otherwise idle in it until the
			// retry's open arrived — or forever, if the retry never opens.
			// Control sends are ordered, so this cannot overtake the
			// retry's own open broadcast.
			s.broadcast(ctlMsg{Op: "cancel", Job: j.ID})
			attempt := j.Attempts()
			backoff := time.Duration(j.Spec.RetryBackoffMS) * time.Millisecond
			if backoff <= 0 {
				backoff = 100 * time.Millisecond
			}
			backoff <<= attempt - 1
			s.obs.Emit(obs.Event{Kind: obs.EvRetry, Class: "job", Job: j.ID,
				Tenant: j.Spec.Tenant, Attempt: attempt,
				DurMS: float64(backoff) / float64(time.Millisecond), Detail: err.Error()})
			s.cfg.Logf("job %d attempt %d lost a fleet rank (%v); requeueing in %v", j.ID, attempt, err, backoff)
			time.AfterFunc(backoff, func() {
				if err := s.mgr.Submit(j); err != nil {
					s.fail(j, fmt.Sprintf("requeue after fleet failure: %v", err))
				}
			})
		default:
			s.fail(j, err.Error())
		}
		return
	}

	res := &Result{Elapsed: elapsed, Stats: f.Stats}
	flops := kernels.FlopsQR(j.Spec.M, j.Spec.N)
	if sec := elapsed.Seconds(); sec > 0 {
		res.Gflops = flops / sec / 1e9
	}
	// R is retained in warm storage, until the job is evicted (Job.evict).
	n := j.Spec.N
	res.buf = slab.Floats.Take(n * n)
	clear(res.buf)
	r := f.A.UpperTilesInto(matrix.FromColMajor(n, n, n, res.buf))
	f.Release()            // R is copied out: nothing reads the array's scratch
	slab.Floats.Put(tiles) // or this rank's tiles any more
	res.Residual, res.OK = accept(f.Input, r)
	res.R = r
	if rec != nil {
		// The gather must precede stopRelay: the job session is still live
		// and agents are blocked sending their shards toward rank 0.
		j.life.Mark(obs.PhaseGathering)
		s.obs.Emit(obs.Event{Kind: obs.EvGathering, Class: "job", Job: j.ID})
		s.storeTrace(j, ep, rec)
	}
	stopRelay() // a completed job must not broadcast a cancel from finish's cancel(nil)
	if j.finish(StateDone, "", res) {
		s.metrics.ObserveJob(time.Since(j.enqueued).Seconds(), elapsed.Seconds(), flops)
		s.cfg.Logf("job %d done in %v: %.2f Gflop/s, residual %.2e", j.ID, elapsed, res.Gflops, res.Residual)
	}
	if j.owned {
		// ownedInputs and sendUpload have copied the upload, and finish let go
		// of it: nothing reads it any more.
		slab.Floats.Put(upload)
	}
}

// accept is the check every job gets: R against the sketch of the input,
// which each rank took of its own rows before the run and the gather summed.
// It returns the sketched residual and whether that is within residualTol
// (a NaN is not).
func accept(input *qr.Sketch, r *matrix.Mat) (residual float64, ok bool) {
	residual = input.Residual(r)
	return residual, residual <= residualTol
}

// storeTrace gathers the fleet's per-rank trace shards onto the job. On the
// fleet path the agents are symmetric senders (see Agent.runJob), so the
// collective completes as soon as every rank's share has finished; a rank
// that never delivers its shard times the gather out and the job keeps the
// local shard rather than failing.
func (s *Server) storeTrace(j *Job, ep transport.Endpoint, rec *trace.Recorder) {
	local := rec.Shard(0)
	ctx, cancel := context.WithTimeout(j.ctx, 10*time.Second)
	defer cancel()
	shards, err := trace.GatherShards(ctx, ep, local)
	if err != nil {
		s.cfg.Logf("job %d: trace gather: %v (keeping local shard)", j.ID, err)
		shards = []trace.Shard{local}
	}
	for _, sh := range shards {
		s.metrics.TraceEvents.Add(int64(len(sh.Events)))
		s.metrics.TraceDrops.Add(sh.Drops)
	}
	j.setTrace(shards)
}

// peerDeath reports whether a run error traces back to a dead fleet rank —
// either the error chain carries the transport's verdict, or the job's
// session observed a member die while the run unwound with a broader error.
func peerDeath(err error, ep transport.Endpoint) bool {
	var pde *transport.PeerDeathError
	if errors.As(err, &pde) {
		return true
	}
	if fo, ok := ep.(transport.FailureObserver); ok && fo.PeerFailure() != nil {
		return true
	}
	return false
}

func (s *Server) fail(j *Job, msg string) {
	if j.finish(StateFailed, msg, nil) {
		s.cfg.Logf("job %d failed: %s", j.ID, msg)
	}
}

// retire records a terminal job for eviction and drops the oldest ones
// beyond ResultCap, bounding the service's memory across a long life.
func (s *Server) retire(id uint32) {
	s.mu.Lock()
	s.terminal = append(s.terminal, id)
	var gone []*Job
	for len(s.terminal) > s.cfg.ResultCap {
		evict := s.terminal[0]
		s.terminal = s.terminal[1:]
		if j := s.jobs[evict]; j != nil {
			gone = append(gone, j)
		}
		delete(s.jobs, evict)
	}
	s.mu.Unlock()
	for _, j := range gone {
		j.evict()
	}
}

// resident returns the number of jobs currently held in the registry.
func (s *Server) resident() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// broadcast sends a control message to every agent rank.
func (s *Server) broadcast(msg ctlMsg) {
	b, err := json.Marshal(msg)
	if err != nil {
		s.cfg.Logf("broadcast %s: %v", msg.Op, err)
		return
	}
	for r := 1; r < s.cfg.Ep.Size(); r++ {
		s.ctl.Isend(b, r, ctlTag)
	}
}

// writeTransportProm renders the transport-layer telemetry — per-link wire
// counters, barrier timing, mux channel occupancy — after the job metrics on
// the /metrics page. Standalone servers (no fleet endpoint) emit nothing.
func (s *Server) writeTransportProm(w io.Writer) {
	p := promWriter{w}
	if lr, ok := s.cfg.Ep.(transport.LinkReporter); ok {
		links := lr.Links()
		link := func(name, help, typ string, of func(transport.LinkStats) int64) {
			p.family(name, help, typ)
			for _, l := range links {
				p.sample(name, fmt.Sprintf("peer=\"%d\"", l.Peer), of(l))
			}
		}
		link("qrserve_link_sent_bytes_total", "Bytes sent to each peer rank.", "counter", func(l transport.LinkStats) int64 { return l.SentBytes })
		link("qrserve_link_sent_frames_total", "Frames sent to each peer rank.", "counter", func(l transport.LinkStats) int64 { return l.SentFrames })
		link("qrserve_link_recv_bytes_total", "Bytes received from each peer rank.", "counter", func(l transport.LinkStats) int64 { return l.RecvBytes })
		link("qrserve_link_recv_frames_total", "Frames received from each peer rank.", "counter", func(l transport.LinkStats) int64 { return l.RecvFrames })
		link("qrserve_link_queue_depth", "Outbound frames queued toward each peer rank.", "gauge", func(l transport.LinkStats) int64 { return int64(l.QueueDepth) })
	}
	if br, ok := s.cfg.Ep.(transport.BarrierReporter); ok {
		// These count barriers run on the ROOT endpoint itself, outside any
		// mux session — in fleet mode jobs barrier through their mux job
		// sessions instead, so these staying near zero is expected, not a
		// bug. Per-session barriers are qrserve_mux_barriers_total below.
		bs := br.BarrierStats()
		p.counter("qrserve_transport_barriers_total", "Barriers run directly on the root fleet endpoint (not mux job sessions; see qrserve_mux_barriers_total).", bs.Count)
		p.counter("qrserve_transport_barrier_wait_seconds_total", "Seconds spent waiting in root-endpoint barriers.", bs.Wait.Seconds())
	}
	if s.mux != nil {
		degraded := 0
		if s.Degraded() {
			degraded = 1
		}
		p.gauge("qrserve_fleet_ranks_live", "Fleet ranks still alive (server included).", s.AgentsLive())
		p.gauge("qrserve_fleet_degraded", "Whether any fleet agent has been evicted (0/1).", degraded)
		mbs := s.mux.BarrierTotals()
		p.counter("qrserve_mux_barriers_total", "Collective barriers completed across all mux job sessions, surviving their close.", mbs.Count)
		p.counter("qrserve_mux_barrier_wait_seconds_total", "Seconds spent waiting in mux job-session barriers.", mbs.Wait.Seconds())
		open, pending, backlog := s.mux.Depths()
		p.gauge("qrserve_mux_jobs_open", "Mux job channels currently open.", open)
		p.gauge("qrserve_mux_pending_messages", "Messages parked for not-yet-open mux channels.", pending)
		p.gauge("qrserve_mux_backlog_messages", "Messages buffered in open job mailboxes awaiting receivers.", backlog)
	}
}

// Close shuts the service down: stop admitting, cancel everything, tell the
// agents to exit, release the fleet sessions and the pool. The underlying
// endpoint stays open for the caller to close.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.stop() // cancels every job context derived from baseCtx
		s.mgr.Close()
		// Flush dirty session spines to their checkpoints while the pool is
		// still alive: append streams unwind on the canceled baseCtx first.
		if err := s.sessions.Close(); err != nil {
			s.cfg.Logf("session table close: %v", err)
		}
		if s.mux != nil {
			s.broadcast(ctlMsg{Op: "shutdown"})
			s.ctl.Close()
			s.mux.Close()
		}
		s.pool.Close()
	})
}

// rRows converts an R factor to the row-major rows a JSON view carries: on
// the server when a client asked for JSON, in Client.Job to fill JobView.R
// from a frame.
func rRows(r *matrix.Mat) [][]float64 {
	if r == nil {
		return nil
	}
	rows := make([][]float64, r.Rows)
	all := make([]float64, r.Rows*r.Cols)
	for i := range rows {
		row := all[i*r.Cols : (i+1)*r.Cols : (i+1)*r.Cols]
		for c := range row {
			row[c] = r.At(i, c)
		}
		rows[i] = row
	}
	return rows
}
