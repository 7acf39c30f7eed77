package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"pulsarqr/internal/blas"
	"pulsarqr/internal/kernels"
	"pulsarqr/internal/pulsar"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/slab"
	"pulsarqr/internal/trace"
	"pulsarqr/internal/transport"
)

// Agent is a fleet member: a non-root rank that keeps a warm pool and
// persistent sessions and executes its share of every job the server
// dispatches. It listens on the control-plane mux channel for open, cancel
// and shutdown messages.
type Agent struct {
	ep   transport.Endpoint
	mux  *transport.Mux
	ctl  *transport.JobEndpoint
	pool *pulsar.Pool
	logf func(format string, args ...any)

	mu   sync.Mutex
	jobs map[uint32]agentAttempt

	wg sync.WaitGroup
}

// NewAgent wraps a dialed endpoint (any rank except 0) in an agent with a
// pool of threads workers (≤ 0 means 2). logf receives agent logs; nil
// discards them.
func NewAgent(ep transport.Endpoint, threads int, logf func(string, ...any)) (*Agent, error) {
	if ep.Rank() == 0 {
		return nil, fmt.Errorf("service: rank 0 runs the server, not an agent")
	}
	if threads <= 0 {
		threads = 2
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	mux := transport.NewMux(ep)
	ctl, err := mux.Open(ctlJob)
	if err != nil {
		mux.Close()
		return nil, err
	}
	pool := pulsar.NewPool(threads, func(int) any { return kernels.NewWorkspace() })
	logf("agent rank %d: micro-kernel %s", ep.Rank(), blas.MicroKernelName())
	return &Agent{
		ep:   ep,
		mux:  mux,
		ctl:  ctl,
		pool: pool,
		jobs: map[uint32]agentAttempt{},
		logf: logf,
	}, nil
}

// Run serves control messages until the server sends shutdown, ctx is
// canceled, or the session dies. It returns after all in-flight jobs have
// unwound.
func (ag *Agent) Run(ctx context.Context) error {
	defer ag.wg.Wait()
	for {
		req := ag.ctl.Irecv(0, ctlTag)
		if err := transport.Await(ctx, ag.ctl, req); err != nil {
			ag.cancelAll()
			if ctx.Err() != nil {
				return err
			}
			return fmt.Errorf("service: control session closed: %w", err)
		}
		var msg ctlMsg
		if err := json.Unmarshal(req.Data(), &msg); err != nil {
			ag.logf("agent: bad control message: %v", err)
			continue
		}
		switch msg.Op {
		case "open":
			if msg.Spec == nil || msg.Session == 0 || msg.Ranks == nil {
				ag.logf("agent: open without spec, session or ranks for job %d", msg.Job)
				continue
			}
			if !contains(msg.Ranks, ag.ep.Rank()) {
				// An attempt sessioned onto other ranks (a degraded-fleet
				// rerun this rank is not part of).
				continue
			}
			jctx, cancel := context.WithCancel(ctx)
			ag.mu.Lock()
			prev := ag.jobs[msg.Job]
			ag.jobs[msg.Job] = agentAttempt{session: msg.Session, cancel: cancel}
			ag.mu.Unlock()
			if prev.cancel != nil {
				// A fresh open for a job this rank is still running means
				// the server gave up on that attempt (a degraded-fleet
				// retry): reap the zombie so it cannot linger in a dead
				// session, and so its exit cannot be mistaken for ours.
				prev.cancel()
			}
			ag.wg.Add(1)
			go ag.runJob(jctx, msg.Job, msg.Session, msg.Ranks, *msg.Spec, msg.Upload)
		case "cancel":
			ag.mu.Lock()
			att := ag.jobs[msg.Job]
			ag.mu.Unlock()
			if att.cancel != nil {
				att.cancel()
			}
		case "shutdown":
			ag.cancelAll()
			return nil
		default:
			ag.logf("agent: unknown control op %q", msg.Op)
		}
	}
}

func (ag *Agent) cancelAll() {
	ag.mu.Lock()
	cancels := make([]context.CancelFunc, 0, len(ag.jobs))
	for _, att := range ag.jobs {
		cancels = append(cancels, att.cancel)
	}
	ag.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// agentAttempt is one in-flight attempt of a job on this rank. The session
// id distinguishes a live attempt from the zombie of a requeued one, so
// cleanup and cancellation always hit the attempt they mean.
type agentAttempt struct {
	session uint32
	cancel  context.CancelFunc
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// runJob executes this rank's share of one job attempt: the session id
// (distinct per attempt) names the mux channel, ranks names the attempt's
// member set (the survivors, on a degraded fleet), and upload says this rank's
// rows of the input arrive on that channel instead of coming from the seed.
func (ag *Agent) runJob(ctx context.Context, id, session uint32, ranks []int, spec JobSpec, upload bool) {
	defer ag.wg.Done()
	defer func() {
		ag.mu.Lock()
		// Deregister only our own attempt: a degraded-fleet retry may have
		// replaced this entry with a newer session, which must keep running.
		if att := ag.jobs[id]; att.session == session && att.cancel != nil {
			delete(ag.jobs, id)
			att.cancel()
		}
		ag.mu.Unlock()
	}()
	jep, err := ag.mux.OpenOn(session, ranks)
	if err != nil {
		ag.logf("agent: job %d: open channel %d: %v", id, session, err)
		return
	}
	defer jep.Close()
	// A cancel must fail this rank's job session, not just abort its VSA:
	// if this rank's share finished before the cancel arrived, it is
	// blocked in the collective post-run barrier that its aborting peers
	// will never enter, and only failing the endpoint's barrier state lets
	// it return (otherwise ag.wg never drains and Run/Close hang).
	stop := context.AfterFunc(ctx, func() { jep.Close() })
	defer stop()
	opts, err := spec.Options()
	if err != nil {
		ag.logf("agent: job %d: %v", id, err)
		return
	}
	if upload {
		if err := spec.recvUpload(ctx, jep, opts.NB); err != nil {
			ag.logf("agent: job %d: %v", id, err)
			return
		}
	}
	a, env, tiles, err := spec.ownedInputs(opts, id, jep.Size(), jep.Rank())
	if err != nil {
		ag.logf("agent: job %d: %v", id, err)
		return
	}
	var rc qr.RunConfig
	var rec *trace.Recorder
	if spec.Trace {
		rec = trace.NewRecorder()
		rc.FireHook = rec.Hook()
		rc.CommHook = rec.CommHook()
	}
	env.Endpoint, env.Pool = jep, ag.pool
	if _, err := qr.FactorizeVSAIn(ctx, a, nil, opts, rc, env); err != nil {
		ag.logf("agent: job %d: %v", id, err)
		return
	}
	slab.Floats.Put(tiles) // this rank's R tiles went to rank 0 as bytes in the gather
	if rec != nil {
		// Ship this rank's shard to the server, which is blocked gathering
		// on the still-open job session.
		gctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		if _, err := trace.GatherShards(gctx, jep, rec.Shard(jep.Rank())); err != nil {
			ag.logf("agent: job %d: trace gather: %v", id, err)
		}
	}
}

// Close releases the agent's sessions and pool (the endpoint itself stays
// the caller's).
func (ag *Agent) Close() {
	ag.ctl.Close()
	ag.mux.Close()
	ag.pool.Close()
	ag.wg.Wait()
}
