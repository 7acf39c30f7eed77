package qr

import (
	"context"
	"errors"
	"fmt"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/pulsar"
	"pulsarqr/internal/transport"
)

// checkShapes validates the (a, b, opts) triple of a systolic run.
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
