package pulsar

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pulsarqr/internal/tuple"
)

// Exec runs every task, passes the worker's private state, and tasks run
// concurrently across workers.
func TestPoolExec(t *testing.T) {
	p := NewPool(4, func(thread int) any { return thread })
	defer p.Close()

	const n = 200
	var ran atomic.Int64
	var wg sync.WaitGroup
	states := make(chan int, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		ok := p.Exec(func(state any) {
			defer wg.Done()
			id, isInt := state.(int)
			if !isInt {
				t.Errorf("task state %T, want int", state)
			}
			states <- id
			ran.Add(1)
		})
		if !ok {
			t.Fatalf("Exec %d refused on an open pool", i)
		}
	}
	wg.Wait()
	if got := ran.Load(); got != n {
		t.Fatalf("ran %d tasks, want %d", got, n)
	}
	close(states)
	for id := range states {
		if id < 0 || id >= 4 {
			t.Fatalf("task saw worker state %d outside [0,4)", id)
		}
	}
}

// A task parked behind a slow sibling is stolen by an idle worker: the
// stream keeps flowing even though one worker's queue head blocks.
func TestPoolExecStealing(t *testing.T) {
	p := NewPool(2, nil)
	defer p.Close()

	release := make(chan struct{})
	blocked := make(chan struct{})
	var fast atomic.Int64

	// The first Exec lands on one worker and wedges it until released.
	p.Exec(func(any) {
		close(blocked)
		<-release
	})
	<-blocked

	// Subsequent tasks round-robin onto both workers; the ones queued behind
	// the wedged worker must be stolen by the idle one.
	const n = 8
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		p.Exec(func(any) {
			fast.Add(1)
			wg.Done()
		})
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("only %d/%d tasks completed while one worker was wedged (stealing broken)", fast.Load(), n)
	}
	close(release)
}

// Exec refuses tasks once the pool has closed.
func TestPoolExecAfterClose(t *testing.T) {
	p := NewPool(2, nil)
	p.Close()
	if p.Exec(func(any) {}) {
		t.Fatal("Exec accepted a task on a closed pool")
	}
}

// Exec tasks and a pooled VSA run share the workers without starving each
// other: a factorization attached to the pool completes while a steady
// stream of tasks executes.
func TestPoolExecAlongsideVSA(t *testing.T) {
	p := NewPool(2, nil)
	defer p.Close()

	stop := make(chan struct{})
	var twg sync.WaitGroup
	feeder := make(chan struct{}, 1)
	flowing, fed := make(chan struct{}), make(chan struct{})
	var first sync.Once
	go func() {
		defer close(fed)
		for {
			select {
			case <-stop:
				return
			default:
			}
			twg.Add(1)
			if !p.Exec(func(any) { first.Do(func() { close(flowing) }); twg.Done() }) {
				twg.Done()
				return
			}
			select {
			case <-feeder: // cap the flood so the queue stays bounded
			case <-time.After(time.Millisecond):
			}
		}
	}()

	// The array attaches to a pool that is already executing tasks: a run
	// this small is otherwise over before the feeder is first scheduled.
	<-flowing
	s := New(Config{Nodes: 1, Pool: p})
	var fired atomic.Int64
	for i := 0; i < 16; i++ {
		s.NewVDP(tuple.New(i), 4, func(v *VDP) { fired.Add(1) }, "t", 0, 0)
	}
	if err := s.Run(); err != nil {
		t.Fatalf("pooled run alongside tasks: %v", err)
	}
	if fired.Load() != 64 {
		t.Fatalf("VSA fired %d times, want 64", fired.Load())
	}
	close(stop)
	<-fed // no Add may race the Wait
	twg.Wait()
}
