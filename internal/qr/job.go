package qr

import (
	"context"
	"errors"
	"fmt"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/pulsar"
)

// checkShapes validates the (a, b, opts) triple every engine is given.
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

// runCtx runs the VSA with ctx wired to Abort. An abort the context caused
// becomes an error carrying the context's cause; other errors (deadlock,
// explicit Abort) pass through. clean reports that the context's abort never
// started, so nothing can still be aborting the array: only then may it run
// again (VSA.Clear).
func runCtx(ctx context.Context, s *pulsar.VSA) (clean bool, err error) {
	stop := context.AfterFunc(ctx, s.Abort)
	err = s.Run()
	clean = stop()
	if errors.Is(err, pulsar.ErrAborted) && ctx.Err() != nil {
		return clean, fmt.Errorf("qr: factorization canceled: %w", context.Cause(ctx))
	}
	return clean, err
}
