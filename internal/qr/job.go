package qr

import (
	"context"
	"errors"
	"fmt"

	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/pulsar"
	"pulsarqr/internal/transport"
)

// FactorizeVSAServe is the entry point for a long-running service: it runs
// one factorization as a job inside an existing runtime environment instead
// of building one per call. pool, when non-nil, supplies the persistent
// worker threads (with their warm kernel workspaces); ep, when non-nil, is
// the job's communicator — typically a transport.JobEndpoint multiplexed
// over the fleet's persistent connections. With ep nil the job runs on the
// local pool alone. ctx cancels the job: the run aborts promptly on every
// rank that observes the cancellation, and the error wraps context.Cause.
//
// The distributed form is collective: every rank calls it with the same
// (opts, shapes), a and b holding at least the tile rows the rank owns
// (OwnedTileRows; the other rows' tiles may be nil), and part the Gram of
// those owned rows of a — taken by the caller beforehand, because the run
// consumes the tiles. Rank 0 returns what a service serves: an R-only
// factorization (R, plus QᵀB when b != nil; the reflectors stay where they
// were produced and never cross the network) whose Input is the sum of the
// parts, so Input.Residual(f.R()) checks the result against an input no
// rank holds whole. The other ranks return (nil, nil).
//
// Cancellation must also be collective (the service broadcasts it); a rank
// that finishes normally while another aborts can otherwise wait in the
// final barrier until its job endpoint is closed.
func FactorizeVSAServe(ctx context.Context, a *matrix.Tiled, b *matrix.Tiled, part *Gram, opts Options, rc RunConfig, ep transport.Endpoint, pool *pulsar.Pool) (*Factorization, error) {
	if part == nil {
		return nil, errors.New("qr: FactorizeVSAServe needs the Gram of the owned rows")
	}
	if ep == nil || ep.Size() == 1 {
		return factorizeLocal(ctx, a, b, part, opts, rc, pool)
	}
	return factorizeDist(ctx, a, b, part, opts, rc, ep, pool)
}

// FactorizeVSADistCtx is FactorizeVSADist with job-scoped cancellation:
// when ctx is canceled the runtime aborts, in-flight kernels drain, and the
// call returns an error wrapping context.Cause(ctx). Cancellation is
// per-process — to cancel a mesh-wide run, cancel on every rank (the
// launcher's signal handling does this by signalling the process group).
func FactorizeVSADistCtx(ctx context.Context, a *matrix.Tiled, b *matrix.Tiled, opts Options, rc RunConfig, ep transport.Endpoint) (*Factorization, error) {
	return factorizeDist(ctx, a, b, nil, opts, rc, ep, nil)
}

// factorizeLocal runs a single-process serve job, on a persistent pool when
// one is provided, with fresh per-run workers otherwise. The result has the
// distributed form's shape — R-only, Input set — so a caller sees one
// contract whatever the fleet size.
func factorizeLocal(ctx context.Context, a *matrix.Tiled, b *matrix.Tiled, part *Gram, opts Options, rc RunConfig, pool *pulsar.Pool) (*Factorization, error) {
	opts = opts.normalize()
	rc = rc.normalize()
	rc.Nodes = 1
	if pool != nil {
		rc.Threads = pool.Threads()
	}
	if err := checkShapes(a, b, opts); err != nil {
		return nil, err
	}

	bd := &builder{a: a, b: b, opts: opts, rc: rc, rOnly: true}
	if b != nil {
		bd.bnt = b.NT
	}
	for j := 0; j < a.NT && j < a.MT; j++ {
		bd.plans = append(bd.plans, planPanel(j, a.MT, opts))
	}
	cfg := pulsar.Config{
		Nodes:           1,
		ThreadsPerNode:  rc.Threads,
		Scheduling:      rc.Scheduling,
		Map:             bd.mapping(),
		FireHook:        rc.FireHook,
		WaitHook:        rc.WaitHook,
		CommHook:        rc.CommHook,
		DeadlockTimeout: rc.DeadlockTimeout,
		Pool:            pool,
	}
	if pool == nil {
		cfg.WorkerState = func(node, thread int) any { return kernels.NewWorkspace() }
	}
	bd.s = pulsar.New(cfg)
	bd.build()
	bd.inject()
	if err := runCtx(ctx, bd.s); err != nil {
		return nil, err
	}
	f, err := bd.assemble()
	if err != nil {
		return nil, err
	}
	f.Input = part
	msgs, bytes := bd.s.NetworkStats()
	f.Stats = RunStats{
		Firings: bd.s.Fired(), Messages: msgs, Bytes: bytes,
		VDPs: bd.s.VDPCount(), Channels: bd.s.ChannelCount(),
	}
	return f, nil
}

// checkShapes validates the (a, b, opts) triple shared by every entry point.
func checkShapes(a *matrix.Tiled, b *matrix.Tiled, opts Options) error {
	if a.M < a.N {
		return fmt.Errorf("qr: matrix is %dx%d; tall-skinny factorization requires m >= n", a.M, a.N)
	}
	if a.NB != opts.NB {
		return fmt.Errorf("qr: matrix tiled with nb=%d but options say nb=%d", a.NB, opts.NB)
	}
	if b != nil && (b.M != a.M || b.NB != a.NB) {
		return fmt.Errorf("qr: rhs is %d rows tile %d; matrix is %d rows tile %d", b.M, b.NB, a.M, a.NB)
	}
	return nil
}

// runCtx runs the VSA with ctx wired to Abort, translating an abort that
// was caused by the context into a cancellation error.
func runCtx(ctx context.Context, s *pulsar.VSA) error {
	if ctx == nil {
		ctx = context.Background()
	}
	stop := context.AfterFunc(ctx, s.Abort)
	defer stop()
	err := s.Run()
	return ctxRunErr(ctx, err)
}

// ctxRunErr maps a runtime abort triggered by ctx to an error carrying the
// context's cause; other errors (deadlock, explicit Abort) pass through.
func ctxRunErr(ctx context.Context, err error) error {
	if err != nil && errors.Is(err, pulsar.ErrAborted) && ctx.Err() != nil {
		return fmt.Errorf("qr: factorization canceled: %w", context.Cause(ctx))
	}
	return err
}

// waitCtx waits for a transport request, canceling it when ctx fires so a
// gather blocked on a vanished peer unwinds instead of hanging.
func waitCtx(ctx context.Context, req transport.Request) {
	if ctx == nil {
		req.Wait()
		return
	}
	stop := context.AfterFunc(ctx, func() { req.Cancel() })
	defer stop()
	req.Wait()
}
