package quark

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWriteAfterWriteOrder(t *testing.T) {
	r := New(4)
	defer r.Close()
	h := "x"
	var order []int
	var mu sync.Mutex
	for i := 0; i < 20; i++ {
		i := i
		r.Submit("w", func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}, W(h))
	}
	r.Wait()
	for i := range order {
		if order[i] != i {
			t.Fatalf("WAW order violated: %v", order)
		}
	}
}

func TestReadersRunConcurrentlyBetweenWriters(t *testing.T) {
	r := New(4)
	defer r.Close()
	h := "x"
	var phase atomic.Int32 // 0 before writer1, 1 after, 2 after writer2
	var readersSeen atomic.Int32
	r.Submit("w1", func() { phase.Store(1) }, W(h))
	var wg sync.WaitGroup
	wg.Add(3)
	for i := 0; i < 3; i++ {
		r.Submit("r", func() {
			defer wg.Done()
			if phase.Load() != 1 {
				t.Error("reader ran before writer 1 or after writer 2")
			}
			readersSeen.Add(1)
			time.Sleep(5 * time.Millisecond)
		}, R(h))
	}
	r.Submit("w2", func() {
		if readersSeen.Load() != 3 {
			t.Error("writer 2 ran before all readers")
		}
		phase.Store(2)
	}, W(h))
	r.Wait()
	wg.Wait()
}

func TestIndependentTasksRunInParallel(t *testing.T) {
	r := New(4)
	defer r.Close()
	var running, peak atomic.Int32
	var wg sync.WaitGroup
	wg.Add(4)
	for i := 0; i < 4; i++ {
		i := i
		r.Submit("p", func() {
			defer wg.Done()
			n := running.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(20 * time.Millisecond)
			running.Add(-1)
		}, W(i))
	}
	r.Wait()
	wg.Wait()
	if peak.Load() < 2 {
		t.Fatalf("independent tasks never overlapped (peak %d)", peak.Load())
	}
}

func TestDependencyOnFinishedTask(t *testing.T) {
	// A task submitted long after its predecessor completed must still run.
	r := New(2)
	defer r.Close()
	var a, b atomic.Bool
	r.Submit("first", func() { a.Store(true) }, W("h"))
	r.Wait()
	r.Submit("second", func() {
		if !a.Load() {
			t.Error("ordering broken")
		}
		b.Store(true)
	}, W("h"))
	r.Wait()
	if !b.Load() {
		t.Fatal("second task never ran")
	}
}

func TestRandomGraphMatchesSequential(t *testing.T) {
	// Random read/write programs over a small heap must produce the same
	// final memory as sequential execution.
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		const cells = 6
		const tasks = 120
		type op struct {
			dst, src1, src2 int
			coef            float64
		}
		prog := make([]op, tasks)
		for i := range prog {
			prog[i] = op{rng.Intn(cells), rng.Intn(cells), rng.Intn(cells),
				1 + rng.Float64()}
		}
		// Sequential.
		want := make([]float64, cells)
		for i := range want {
			want[i] = float64(i + 1)
		}
		for _, o := range prog {
			want[o.dst] = o.coef*want[o.src1] + want[o.src2]
		}
		// Parallel.
		got := make([]float64, cells)
		for i := range got {
			got[i] = float64(i + 1)
		}
		r := New(4)
		for _, o := range prog {
			o := o
			r.Submit("op", func() {
				got[o.dst] = o.coef*got[o.src1] + got[o.src2]
			}, W(o.dst), R(o.src1), R(o.src2))
		}
		r.Close()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: cell %d = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestDuplicateHandleInOneTask(t *testing.T) {
	r := New(2)
	defer r.Close()
	x := 0.0
	r.Submit("init", func() { x = 2 }, W("h"))
	// Same handle read and written by one task must not self-deadlock.
	r.Submit("square", func() { x = x * x }, R("h"), W("h"))
	r.Wait()
	if x != 4 {
		t.Fatalf("x = %v", x)
	}
}

func TestWaitReusable(t *testing.T) {
	r := New(3)
	defer r.Close()
	var n atomic.Int32
	for round := 0; round < 3; round++ {
		for i := 0; i < 10; i++ {
			r.Submit("t", func() { n.Add(1) }, W("h"))
		}
		r.Wait()
		if int(n.Load()) != (round+1)*10 {
			t.Fatalf("round %d: %d tasks done", round, n.Load())
		}
	}
}

func TestSubmitAfterClosePanics(t *testing.T) {
	r := New(1)
	r.Submit("t", func() {}, W("h"))
	r.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Submit after Close must panic")
		}
	}()
	r.Submit("late", func() {}, W("h"))
}

func TestNoDepsTasksAllRun(t *testing.T) {
	r := New(4)
	defer r.Close()
	var n atomic.Int32
	for i := 0; i < 50; i++ {
		r.Submit("free", func() { n.Add(1) })
	}
	r.Wait()
	if n.Load() != 50 {
		t.Fatalf("ran %d of 50", n.Load())
	}
}
