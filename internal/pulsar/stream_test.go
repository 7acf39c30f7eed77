package pulsar

import (
	"context"
	"errors"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// count is a next that yields 0, 1, … up to n−1, then end.
func count(n int, end error) func() (int, error) {
	i := 0
	return func() (int, error) {
		if i == n {
			return 0, end
		}
		i++
		return i - 1, nil
	}
}

// Results reach emit in the order next yielded their items, even when the
// work finishes out of order: item 0 waits until item 7, the last the
// window lets in beside it, is done. A failing next ends the stream with
// its error once every item it yielded before has been emitted.
func TestStreamEmitsInNextOrder(t *testing.T) {
	p := NewPool(4, nil)
	defer p.Close()
	const n = 64
	seventh := make(chan struct{})
	var mu sync.Mutex
	var finished []int
	boom := errors.New("source failed")
	var got []int
	err := Stream(context.Background(), p, count(n, boom), func(_ any, i int) int {
		if i == 0 {
			<-seventh
		}
		mu.Lock()
		finished = append(finished, i)
		mu.Unlock()
		if i == 7 {
			close(seventh)
		}
		return i
	}, func(i int) error {
		got = append(got, i)
		return nil
	}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the source's error", err)
	}
	if len(got) != n {
		t.Fatalf("emitted %d of %d results before the source's error", len(got), n)
	}
	for k, i := range got {
		if i != k {
			t.Fatalf("emit %d got item %d", k, i)
		}
	}
	if slices.Index(finished, 0) < slices.Index(finished, 7) {
		t.Fatalf("work finished in the order %v, want item 7 before item 0", finished[:8])
	}
}

// No more than 2× the pool's threads items are ever dispatched and not yet
// emitted, and a slow emit lets the stream dispatch exactly that far ahead.
func TestStreamWindow(t *testing.T) {
	for _, threads := range []int{1, 3} {
		p := NewPool(threads, nil)
		var started, emitted atomic.Int64
		var mu sync.Mutex
		var most int64
		err := Stream(context.Background(), p, count(200, io.EOF), func(_ any, i int) int {
			ahead := started.Add(1) - emitted.Load()
			mu.Lock()
			most = max(most, ahead)
			mu.Unlock()
			return i
		}, func(int) error {
			time.Sleep(50 * time.Microsecond)
			emitted.Add(1)
			return nil
		}, nil)
		p.Close()
		if err != nil {
			t.Fatal(err)
		}
		if emitted.Load() != 200 {
			t.Fatalf("%d threads: emitted %d of 200", threads, emitted.Load())
		}
		if most != int64(2*threads) {
			t.Fatalf("%d threads: at most %d items dispatched and unemitted, want %d", threads, most, 2*threads)
		}
	}
}

// A canceled stream returns at once, though next is blocked on a client
// that never sends again.
func TestStreamCancelDoesNotWaitForNext(t *testing.T) {
	p := NewPool(2, nil)
	defer p.Close()
	stalled := make(chan struct{})
	defer close(stalled)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	next := count(3, nil)
	ret := make(chan error, 1)
	go func() {
		ret <- Stream(ctx, p, func() (int, error) {
			if i, err := next(); err == nil {
				return i, nil
			}
			<-stalled
			return 0, io.ErrClosedPipe
		}, func(_ any, i int) int { return i }, func(i int) error {
			if i == 2 {
				cancel()
			}
			return nil
		}, nil)
	}()
	select {
	case err := <-ret:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("a canceled stream waited for a stalled next")
	}
}

// A closed pool refuses the first item: the stream returns ErrPoolClosed
// and emits nothing.
func TestStreamClosedPool(t *testing.T) {
	p := NewPool(2, nil)
	p.Close()
	err := Stream(context.Background(), p, count(10, io.EOF), func(_ any, i int) int { return i }, func(int) error {
		t.Error("a closed pool's stream emitted")
		return nil
	}, nil)
	if !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("err = %v, want ErrPoolClosed", err)
	}
}

// An emit error stops the stream with it, and every result of a dispatched
// item emit never saw goes to drop exactly once, whether it was ready when
// the stream stopped or its worker finished later.
func TestStreamEmitErrorDropsTheRest(t *testing.T) {
	p := NewPool(3, nil)
	defer p.Close()
	gone := errors.New("client went away")
	var yielded atomic.Int64
	next := count(1000, io.EOF)
	var mu sync.Mutex
	emitted, dropped := map[int]bool{}, map[int]bool{}
	err := Stream(context.Background(), p, func() (int, error) {
		i, err := next()
		if err == nil {
			yielded.Add(1)
		}
		return i, err
	}, func(_ any, i int) int {
		time.Sleep(time.Duration(i%3) * 100 * time.Microsecond)
		return i
	}, func(i int) error {
		emitted[i] = true
		if i == 9 {
			return gone
		}
		return nil
	}, func(i int) {
		mu.Lock()
		defer mu.Unlock()
		if dropped[i] || emitted[i] {
			t.Errorf("result %d handed over twice", i)
		}
		dropped[i] = true
	})
	if !errors.Is(err, gone) {
		t.Fatalf("err = %v, want the emit error", err)
	}
	if len(emitted) != 10 {
		t.Fatalf("emitted %d results, want the 10 up to the failing one", len(emitted))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(dropped)
		mu.Unlock()
		if int64(len(emitted)+n) == yielded.Load() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d items dispatched, %d emitted, %d dropped after 5s", yielded.Load(), len(emitted), n)
		}
		time.Sleep(time.Millisecond)
	}
}
