package pulsar

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"pulsarqr/internal/tuple"
)

// runChainOnPool builds a chain VSA attached to the pool, injects packets,
// runs it, and verifies the collected output.
func runChainOnPool(t *testing.T, p *Pool, stages, packets, base int) {
	t.Helper()
	s := buildChain(Config{Nodes: 1, Pool: p}, stages, packets)
	for k := 0; k < packets; k++ {
		s.Inject(tuple.New(0), 0, NewPacket([]int{base + k}))
	}
	if err := s.Run(); err != nil {
		t.Errorf("pooled run: %v", err)
		return
	}
	out := s.Collected(tuple.New(stages-1), 0)
	if len(out) != packets {
		t.Errorf("collected %d packets, want %d", len(out), packets)
		return
	}
	for k, pkt := range out {
		got := pkt.Data.([]int)
		want := []int{base + k}
		for i := 0; i < stages; i++ {
			want = append(want, i)
		}
		if len(got) != len(want) {
			t.Errorf("packet %d: got %v want %v", k, got, want)
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("packet %d: got %v want %v", k, got, want)
				return
			}
		}
	}
}

func TestPoolSingleRun(t *testing.T) {
	p := NewPool(2, nil)
	defer p.Close()
	runChainOnPool(t, p, 5, 3, 100)
}

func TestPoolConcurrentRuns(t *testing.T) {
	p := NewPool(3, nil)
	defer p.Close()
	var wg sync.WaitGroup
	for j := 0; j < 8; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			runChainOnPool(t, p, 3+j%4, 2+j%3, 1000*j)
		}(j)
	}
	wg.Wait()
}

func TestPoolSequentialRunsReuseWorkers(t *testing.T) {
	// The worker-state factory runs once per pool thread, not once per job:
	// that is the warm-workspace property a factorization service relies on.
	var mu sync.Mutex
	created := 0
	p := NewPool(2, func(thread int) any {
		mu.Lock()
		created++
		mu.Unlock()
		return &struct{ n int }{}
	})
	defer p.Close()
	for i := 0; i < 4; i++ {
		runChainOnPool(t, p, 4, 2, i*10)
	}
	mu.Lock()
	defer mu.Unlock()
	if created != 2 {
		t.Fatalf("state factory ran %d times, want 2 (once per pool thread)", created)
	}
}

// A run without a Pool builds its workers' state from Config.WorkerState,
// once per (node, thread), and every firing sees the state of the worker it
// was mapped to.
func TestRunOwnedWorkerState(t *testing.T) {
	type lane struct{ node, thread int }
	var mu sync.Mutex
	created := map[lane]int{}
	var wrong []string
	s := New(Config{
		Nodes: 2, ThreadsPerNode: 2,
		WorkerState: func(node, thread int) any {
			mu.Lock()
			created[lane{node, thread}]++
			mu.Unlock()
			return &lane{node, thread}
		},
	})
	const n = 8 // cyclic placement puts two VDPs on each of the four workers
	for i := 0; i < n; i++ {
		s.NewVDP(tuple.New(i), 1, func(v *VDP) {
			v.Pop(0)
			if ws, _ := v.WorkerState().(*lane); ws == nil || *ws != (lane{v.Node(), v.Thread()}) {
				mu.Lock()
				wrong = append(wrong, fmt.Sprintf("VDP %v on (%d,%d) saw state %v", v.Tuple(), v.Node(), v.Thread(), ws))
				mu.Unlock()
			}
		}, "", 1, 0)
		s.Input(tuple.New(i), 0, 64)
		s.Inject(tuple.New(i), 0, NewPacket([]int{i}))
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(wrong) > 0 {
		t.Fatal(wrong)
	}
	if len(created) != 4 {
		t.Fatalf("state created for lanes %v, want all four", created)
	}
	for l, c := range created {
		if c != 1 {
			t.Fatalf("state factory ran %d times for lane %v, want once", c, l)
		}
	}
}

func TestPoolWorkerStateVisible(t *testing.T) {
	type ws struct{ hits int }
	p := NewPool(1, func(thread int) any { return &ws{} })
	defer p.Close()
	s := New(Config{Nodes: 1, Pool: p})
	s.NewVDP(tuple.New(0), 1, func(v *VDP) {
		v.Pop(0)
		v.WorkerState().(*ws).hits++
		v.Push(0, NewPacket([]int{1}))
	}, "stage", 1, 1)
	s.Input(tuple.New(0), 0, 64)
	s.Output(tuple.New(0), 0, 64)
	s.Inject(tuple.New(0), 0, NewPacket([]int{0}))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := p.workers[0].state.(*ws).hits; got != 1 {
		t.Fatalf("worker state hits = %d, want 1", got)
	}
}

// A VDP whose input never arrives: without Abort the run would sit until the
// deadlock watchdog; Abort must return promptly, whoever owns the workers —
// and a caller's pool must still serve new work afterwards.
func TestAbort(t *testing.T) {
	for _, tc := range []struct {
		name        string
		callerOwned bool
	}{{"run-owned pool", false}, {"caller-owned pool", true}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Nodes: 1, ThreadsPerNode: 2, DeadlockTimeout: -1}
			if tc.callerOwned {
				cfg.Pool = NewPool(2, nil)
				defer cfg.Pool.Close()
			}
			s := buildChain(cfg, 3, 1)
			errc := make(chan error, 1)
			go func() { errc <- s.Run() }()
			time.Sleep(20 * time.Millisecond)
			s.Abort()
			select {
			case err := <-errc:
				if !errors.Is(err, ErrAborted) {
					t.Fatalf("Run returned %v, want ErrAborted", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("aborted run did not return")
			}
			if tc.callerOwned {
				runChainOnPool(t, cfg.Pool, 4, 2, 500)
			}
		})
	}
}

func TestAbortBeforeRun(t *testing.T) {
	s := buildChain(Config{Nodes: 1}, 2, 1)
	s.Abort()
	if err := s.Run(); !errors.Is(err, ErrAborted) {
		t.Fatalf("Run after Abort returned %v, want ErrAborted", err)
	}
}

func TestPoolDeadlockWatchdog(t *testing.T) {
	p := NewPool(1, nil)
	defer p.Close()
	s := buildChain(Config{Nodes: 1, Pool: p, DeadlockTimeout: 100 * time.Millisecond}, 2, 1)
	// No injection: the chain head never becomes ready.
	err := s.Run()
	if err == nil || errors.Is(err, ErrAborted) {
		t.Fatalf("starved pooled run returned %v, want deadlock error", err)
	}
	// The pool survives a deadlocked job.
	runChainOnPool(t, p, 3, 1, 7)
}
