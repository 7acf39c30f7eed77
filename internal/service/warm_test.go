package service

// A rank's input tiles live in warm storage (tileSlabs) that one job hands to
// the next on the same process: what a job computes must not depend on what
// the last one left there, and a job in steady state must not allocate its
// input.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/transport"
)

// warmServer starts a server alone (ranks 1, two worker threads) or as rank
// 0 of a two-rank loopback TCP fleet (one thread a rank), and shuts it down,
// agent and mesh included, when the test ends.
func warmServer(t *testing.T, ranks int) *Server {
	t.Helper()
	if ranks == 1 {
		s, err := NewServer(Config{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	eps, err := transport.DialLoopback(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	agent, err := NewAgent(eps[1], 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	agentDone := make(chan error, 1)
	go func() { agentDone <- agent.Run(context.Background()) }()
	s, err := NewServer(Config{Threads: 1, Ep: eps[0]})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close() // broadcasts shutdown, which ends the agent's Run
		if err := <-agentDone; err != nil {
			t.Errorf("agent exited with %v", err)
		}
		agent.Close()
		for _, ep := range eps {
			ep.Close()
		}
	})
	return s
}

// runJob submits spec to s and returns the finished job, which must be done.
func runJob(t *testing.T, s *Server, spec JobSpec) *Job {
	t.Helper()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	return j
}

// firings is the number of VDP firings s has run, over all its jobs.
func firings(s *Server) int64 {
	s.metrics.mu.Lock()
	defer s.metrics.mu.Unlock()
	var n int64
	for _, c := range s.metrics.firings {
		n += c.Load()
	}
	return n
}

// A poisoned job and a canceled one leave nothing in the storage the next
// job reuses. On one warm server, alone and on a fleet: a job over an upload
// holding NaN and ±Inf in every rank's rows finishes (not OK) and gives its
// storage back; the clean job after it must produce, bit for bit, the R a
// fresh server computes in zeroed storage. Then a job of the same shape is
// canceled once its kernels are firing, and the clean job after that must
// match again.
func TestWarmTileStorageCarriesNothingIntoNextJob(t *testing.T) {
	const m, n = 256, 64
	clean := JobSpec{M: m, N: n, NB: 32, IB: 8, Seed: 41}
	data := matrix.NewSeeded(m, n, 42).Data
	for k, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		data[(40+100*k)+(5+20*k)*m] = v // rows 40, 140 and 240: in both ranks' halves
	}
	poisoned := JobSpec{M: m, N: n, NB: 32, IB: 8, Data: data}
	// The same rows per rank as clean, in ~7,000 kernel calls of 4×4 tiles:
	// a cancel finds it running.
	slow := JobSpec{M: m, N: n, NB: 4, IB: 4, Seed: 43}
	for _, ranks := range []int{1, 2} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			for tileSlabs.Get() != nil { // the reference's tiles start zeroed
			}
			want := runJob(t, warmServer(t, ranks), clean).Result().R

			s := warmServer(t, ranks)
			if res := runJob(t, s, poisoned).Result(); res.OK {
				t.Fatalf("a job over NaN and ±Inf read ok, residual %g", res.Residual)
			}
			sameBits(t, "R after a poisoned job against a fresh server's", runJob(t, s, clean).Result().R, want)

			base := firings(s)
			j, err := s.Submit(slow)
			if err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(30 * time.Second); firings(s) < base+100; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the slow job never started firing")
				}
			}
			j.Cancel()
			select {
			case <-j.Done():
			case <-time.After(60 * time.Second):
				t.Fatal("the canceled job did not end")
			}
			if state, msg := j.State(); state != StateCanceled {
				t.Fatalf("slow job: state %s (%s), want canceled", state, msg)
			}
			sameBits(t, "R after a canceled job against a fresh server's", runJob(t, s, clean).Result().R, want)
		})
	}
}

// A job on a warm server allocates little beside its input: its tiles reuse
// the storage of the job before. 8192×128 is one tile column at the default
// tile, so what the run still allocates — T factors, R, packets, the
// loopback transport's frames — is small beside the 8 MiB input. Alone, the
// job's TotalAlloc delta must be below a quarter of its input bytes (a job
// that allocated its tiles reads above one). MemStats cannot tell an agent's
// allocations from the server's in one process, so the fleet's delta holds
// both ranks and the transport, and must be below half: a rank that
// allocated its share of the input again would add about half.
//
// sync.Pool promises no hit (a slab put back on one P can sit in that P's
// private slot while the next job asks on another), so the bound is on the
// least delta of eight jobs. Not parallel: MemStats is process-wide.
func TestSteadyStateJobAllocatesNoInput(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector; alloc counts are meaningless")
	}
	spec := JobSpec{M: 8192, N: 128, Seed: 5}
	input := uint64(8 * spec.M * spec.N)
	for _, tc := range []struct {
		ranks int
		limit uint64
	}{{1, input / 4}, {2, input / 2}} {
		t.Run(fmt.Sprintf("ranks=%d", tc.ranks), func(t *testing.T) {
			s := warmServer(t, tc.ranks)
			alloc := func() uint64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				j := runJob(t, s, spec)
				runtime.ReadMemStats(&after)
				if !j.Result().OK {
					t.Fatalf("job %d: residual %g", j.ID, j.Result().Residual)
				}
				return after.TotalAlloc - before.TotalAlloc
			}
			alloc() // warm the workers' workspaces and the slabs
			alloc()
			least := uint64(math.MaxUint64)
			for range 8 {
				least = min(least, alloc())
			}
			if least >= tc.limit {
				t.Errorf("a warm job allocates %d bytes, want under %d (its input is %d)", least, tc.limit, input)
			}
		})
	}
}
