package qr

// Fault propagation: when a peer dies mid-factorization, FactorizeVSAIn
// must surface the transport's dead-peer verdict as the cause — long before
// the deadlock watchdog would fire, and identifiable with errors.As so the
// service layer can decide to requeue.

import (
	"context"
	"errors"
	"testing"
	"time"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/transport"
)

func TestFactorizeVSADistSurfacesPeerDeath(t *testing.T) {
	// Fail-fast (zero reconnect) config, so a crash yields an immediate verdict.
	eps, err := transport.DialLoopback(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, b, o := distInputs()

	// Rank 0 factorizes with a watchdog far beyond the test budget: if the
	// peer-death cause were swallowed into a generic deadlock timeout, this
	// test would hang for two minutes instead of returning promptly.
	errCh := make(chan error, 1)
	go func() {
		_, err := FactorizeVSAIn(context.Background(),
			matrix.FromDense(d, o.NB), matrix.FromDense(b, o.NB),
			o, RunConfig{Threads: 2, DeadlockTimeout: 2 * time.Minute}, Env{Endpoint: eps[0]})
		errCh <- err
	}()

	// Rank 1 never joins the computation and crashes shortly after the
	// mesh is up — a worker lost mid-job.
	time.Sleep(50 * time.Millisecond)
	eps[1].(transport.Crasher).Crash()

	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("factorization succeeded with a dead peer")
		}
		var pde *transport.PeerDeathError
		if !errors.As(err, &pde) {
			t.Fatalf("error %v does not carry the transport's PeerDeathError", err)
		}
		if pde.Rank != 1 {
			t.Fatalf("dead peer reported as rank %d, want 1", pde.Rank)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("peer death not propagated; factorization still blocked (deadlock watchdog would mask the cause)")
	}
	eps[0].Close()
}
