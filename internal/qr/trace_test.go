package qr

// End-to-end tracing over the distributed path: every rank records its own
// shard during FactorizeVSAIn, the shards are gathered at rank 0 over the
// same endpoint, and the merged timeline must carry aligned barriers, all
// four event classes, and a non-trivial critical path.

import (
	"context"
	"sync"
	"testing"
	"time"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/trace"
	"pulsarqr/internal/transport"
)

func TestDistTraceGather(t *testing.T) {
	d, b, o := distInputs()
	const ranks = 2
	lw := transport.NewLocal(ranks)
	var (
		wg     sync.WaitGroup
		errs   [ranks]error
		shards []trace.Shard
	)
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep := lw.Endpoint(r)
			rec := trace.NewRecorder()
			rc := RunConfig{
				Threads:  2,
				FireHook: rec.Hook(),
				WaitHook: rec.WaitHook(),
				CommHook: rec.CommHook(),
			}
			if _, errs[r] = FactorizeVSAIn(context.Background(),
				matrix.FromDense(d, o.NB), matrix.FromDense(b, o.NB),
				o, rc, Env{Endpoint: ep}); errs[r] != nil {
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			var err error
			got, err := trace.GatherShards(ctx, ep, rec.Shard(r))
			if err != nil {
				errs[r] = err
				return
			}
			if r == 0 {
				shards = got
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}

	if len(shards) != ranks {
		t.Fatalf("gathered %d shards, want %d", len(shards), ranks)
	}
	for r, s := range shards {
		if s.Rank != r {
			t.Fatalf("shard %d has rank %d", r, s.Rank)
		}
		if len(s.Events) == 0 {
			t.Fatalf("rank %d shard is empty", r)
		}
		if s.Drops != 0 {
			t.Fatalf("rank %d dropped %d events at default capacity", r, s.Drops)
		}
	}

	events, drops := trace.Merge(shards)
	if drops != 0 {
		t.Fatalf("merge reports %d drops", drops)
	}
	// Each rank closes with a barrier and Merge anchors the clocks on it:
	// the ends must coincide exactly.
	var barEnds []time.Duration
	classes := map[string]bool{}
	for _, e := range events {
		classes[e.Class] = true
		if e.Kind == trace.KindBarrier {
			barEnds = append(barEnds, e.End)
		}
	}
	if len(barEnds) != ranks {
		t.Fatalf("%d barrier events, want %d", len(barEnds), ranks)
	}
	if barEnds[0] != barEnds[1] {
		t.Fatalf("barriers not aligned: %v vs %v", barEnds[0], barEnds[1])
	}
	for _, c := range []string{trace.ClassWait, trace.ClassSend, trace.ClassRecv, trace.ClassBarrier} {
		if !classes[c] {
			t.Fatalf("merged trace has no %q events (classes: %v)", c, classes)
		}
	}

	tl := trace.Build(events)
	cp := tl.CriticalPath()
	if len(cp.Events) == 0 || cp.Work <= 0 {
		t.Fatalf("degenerate critical path: %d events, work %v", len(cp.Events), cp.Work)
	}
	if cp.Work > tl.Makespan {
		t.Fatalf("critical path work %v exceeds makespan %v", cp.Work, tl.Makespan)
	}
}
