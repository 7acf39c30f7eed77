package batch

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/pulsar"
)

func testPool(t *testing.T, threads int) *pulsar.Pool {
	t.Helper()
	p := pulsar.NewPool(threads, func(int) any { return kernels.NewWorkspace() })
	t.Cleanup(p.Close)
	return p
}

// matSource yields the given matrices (cloned, since workers factorize in
// place) then io.EOF.
func matSource(mats []*matrix.Mat) func() (*matrix.Mat, error) {
	i := 0
	return func() (*matrix.Mat, error) {
		if i >= len(mats) {
			return nil, io.EOF
		}
		m := mats[i].Clone()
		i++
		return m, nil
	}
}

// Stream factorizes every matrix exactly once, and each emitted R matches
// the sequential reference for its index — across chunk boundaries, partial
// tail chunks, and out-of-order completion.
func TestSchedulerStream(t *testing.T) {
	pool := testPool(t, 4)
	var chunks atomic.Int64
	s := NewScheduler(SchedConfig{
		Pool:      pool,
		ChunkSize: 16,
		OnChunk:   func(int, time.Duration) { chunks.Add(1) },
	})

	rng := rand.New(rand.NewSource(11))
	const n = 203 // deliberately not a multiple of the chunk size
	mats := make([]*matrix.Mat, n)
	for i := range mats {
		sz := 1 + rng.Intn(32)
		mats[i] = matrix.NewRand(sz+rng.Intn(8), sz, rng)
	}

	got := make(map[int]*matrix.Mat, n)
	done, err := s.Stream(context.Background(), matSource(mats), func(index int, r *matrix.Mat) error {
		if got[index] != nil {
			t.Errorf("index %d emitted twice", index)
		}
		got[index] = r.Clone()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if done != n {
		t.Fatalf("done = %d, want %d", done, n)
	}
	if c := chunks.Load(); c != (n+15)/16 {
		t.Fatalf("OnChunk fired %d times, want %d", c, (n+15)/16)
	}
	ws := kernels.NewWorkspace()
	for i, a := range mats {
		want := a.Clone()
		if err := FactorWS(ws, want, 0); err != nil {
			t.Fatal(err)
		}
		if d := matrix.MaxAbsDiff(got[i], want); d != 0 {
			t.Fatalf("matrix %d: scheduler result differs from direct FactorWS by %g", i, d)
		}
	}
}

// A failing source ends the stream with the error after emitting what was
// already read.
func TestSchedulerSourceError(t *testing.T) {
	pool := testPool(t, 2)
	s := NewScheduler(SchedConfig{Pool: pool, ChunkSize: 4})
	boom := errors.New("decode failed")
	rng := rand.New(rand.NewSource(12))
	i := 0
	done, err := s.Stream(context.Background(), func() (*matrix.Mat, error) {
		if i == 10 {
			return nil, boom
		}
		i++
		return matrix.NewRand(4, 4, rng), nil
	}, func(int, *matrix.Mat) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the source error", err)
	}
	if done != 10 {
		t.Fatalf("done = %d, want the 10 matrices read before the failure", done)
	}
}

// A failing emit (client gone) stops the stream promptly.
func TestSchedulerEmitError(t *testing.T) {
	pool := testPool(t, 2)
	s := NewScheduler(SchedConfig{Pool: pool, ChunkSize: 4})
	rng := rand.New(rand.NewSource(13))
	mats := make([]*matrix.Mat, 64)
	for i := range mats {
		mats[i] = matrix.NewRand(4, 4, rng)
	}
	gone := errors.New("client went away")
	emitted := 0
	done, err := s.Stream(context.Background(), matSource(mats), func(int, *matrix.Mat) error {
		if emitted >= 8 {
			return gone
		}
		emitted++
		return nil
	})
	if !errors.Is(err, gone) {
		t.Fatalf("err = %v, want the emit error", err)
	}
	if done != 8 {
		t.Fatalf("done = %d, want 8", done)
	}
}

// Cancellation mid-stream returns ctx.Err with partial progress; the stream
// never wedges on in-flight chunks.
func TestSchedulerCancel(t *testing.T) {
	pool := testPool(t, 2)
	s := NewScheduler(SchedConfig{Pool: pool, ChunkSize: 2})
	ctx, cancel := context.WithCancel(context.Background())
	rng := rand.New(rand.NewSource(14))
	i := 0
	done, err := s.Stream(ctx, func() (*matrix.Mat, error) {
		i++
		if i == 20 {
			cancel()
		}
		if ctx.Err() != nil {
			return nil, ctx.Err() // an HTTP body would fail the same way
		}
		return matrix.NewRand(8, 8, rng), nil
	}, func(int, *matrix.Mat) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if done >= 20 {
		t.Fatalf("done = %d after cancel at 20", done)
	}
}

// A closed pool surfaces as pulsar.ErrPoolClosed, not a hang.
func TestSchedulerPoolClosed(t *testing.T) {
	pool := pulsar.NewPool(2, nil)
	pool.Close()
	s := NewScheduler(SchedConfig{Pool: pool, ChunkSize: 2})
	rng := rand.New(rand.NewSource(15))
	mats := []*matrix.Mat{matrix.NewRand(4, 4, rng), matrix.NewRand(4, 4, rng), matrix.NewRand(4, 4, rng)}
	done, err := s.Stream(context.Background(), matSource(mats), func(int, *matrix.Mat) error { return nil })
	if !errors.Is(err, pulsar.ErrPoolClosed) {
		t.Fatalf("err = %v, want ErrPoolClosed", err)
	}
	if done != 0 {
		t.Fatalf("done = %d on a closed pool", done)
	}
}

// The wire decoder, scheduler, and wire encoder compose end to end: a full
// request body streams through to a response body whose checksum verifies.
func TestSchedulerWireComposition(t *testing.T) {
	pool := testPool(t, 4)
	s := NewScheduler(SchedConfig{Pool: pool, ChunkSize: 8})
	rng := rand.New(rand.NewSource(16))
	mats := make([]*matrix.Mat, 100)
	for i := range mats {
		mats[i] = matrix.NewRand(12, 12, rng)
	}
	body := encodeRequest(t, mats)

	rr, err := NewRequestReader(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var respBuf bytes.Buffer
	rw, err := NewResultWriter(&respBuf)
	if err != nil {
		t.Fatal(err)
	}
	done, err := s.Stream(context.Background(), rr.Next, rw.WriteResult)
	if err != nil {
		t.Fatal(err)
	}
	if done != len(mats) {
		t.Fatalf("done = %d, want %d", done, len(mats))
	}
	if err := rw.WriteTrailer(rr.Count() - done); err != nil {
		t.Fatal(err)
	}

	rd, err := NewResultReader(bytes.NewReader(respBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ws := kernels.NewWorkspace()
	seen := 0
	for {
		res, tr, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tr != nil {
			if tr.Done != 100 || tr.Shed != 0 {
				t.Fatalf("trailer done=%d shed=%d", tr.Done, tr.Shed)
			}
			break
		}
		want := mats[res.Index].Clone()
		FactorWS(ws, want, 0)
		if d := matrix.MaxAbsDiff(res.R, want); d != 0 {
			t.Fatalf("result %d differs by %g", res.Index, d)
		}
		seen++
	}
	if seen != 100 {
		t.Fatalf("saw %d results, want 100", seen)
	}
}

// Composed as the HTTP handler composes them — each result written, then
// its matrix recycled — a long uniform stream decodes into no more distinct
// matrices than the scheduler holds at once: its window of chunks in
// flight (2× the pool's threads) plus the one the reader is filling.
func TestSchedulerRecycledResidency(t *testing.T) {
	pool := testPool(t, 1)
	const chunk, window = 4, 2 // a one-thread pool's window
	s := NewScheduler(SchedConfig{Pool: pool, ChunkSize: chunk})
	rng := rand.New(rand.NewSource(17))
	mats := make([]*matrix.Mat, 200)
	for i := range mats {
		mats[i] = matrix.NewRand(12, 12, rng)
	}
	rr, err := NewRequestReader(bytes.NewReader(encodeRequest(t, mats)))
	if err != nil {
		t.Fatal(err)
	}
	var resp bytes.Buffer
	rw, err := NewResultWriter(&resp)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[*matrix.Mat]bool{}
	done, err := s.Stream(context.Background(), rr.Next, func(index int, r *matrix.Mat) error {
		seen[r] = true
		if err := rw.WriteResult(index, r); err != nil {
			return err
		}
		rr.Recycle(r)
		return nil
	})
	if err != nil || done != len(mats) {
		t.Fatalf("done %d, err %v", done, err)
	}
	if limit := (window + 1) * chunk; len(seen) > limit {
		t.Fatalf("%d matrices decoded into %d distinct ones, want at most %d", len(mats), len(seen), limit)
	}
	if err := rw.WriteTrailer(0); err != nil {
		t.Fatal(err)
	}
	rd, err := NewResultReader(&resp)
	if err != nil {
		t.Fatal(err)
	}
	ws := kernels.NewWorkspace()
	for {
		res, tr, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tr != nil {
			break
		}
		want := mats[res.Index].Clone()
		FactorWS(ws, want, 0)
		if d := matrix.MaxAbsDiff(res.R, want); d != 0 {
			t.Fatalf("result %d differs by %g", res.Index, d)
		}
	}
}
