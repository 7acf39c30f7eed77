package service

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pulsarqr/internal/batch"
	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/qr"
)

func newBatchTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *Client) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, &Client{Base: ts.URL, HTTP: ts.Client()}
}

// seqOracleR canonicalizes the sequential tree-QR reference's R for
// comparison with the batch path.
func seqOracleR(t *testing.T, a *matrix.Mat) *matrix.Mat {
	t.Helper()
	f, err := qr.Factorize(matrix.FromDense(a, 64), nil, qr.Options{NB: 64, IB: 16})
	if err != nil {
		t.Fatal(err)
	}
	r := f.R()
	batch.Canonicalize(r)
	return r
}

// The headline batch requirement: a 10k-matrix batch of 32×32 QRs
// round-trips through POST /v1/batch with every R elementwise equal to a
// direct FactorWS and the sequential tree oracle, the checksum verified, and
// no goroutines leaked by the stream machinery.
func TestBatchEndToEnd(t *testing.T) {
	s, _, c := newBatchTestServer(t, Config{Threads: 4, BatchStreams: 2})

	count := 10_000
	if testing.Short() {
		count = 1_000
	}
	rng := rand.New(rand.NewSource(21))
	mats := make([]*matrix.Mat, count)
	for i := range mats {
		mats[i] = matrix.NewRand(32, 32, rng)
	}

	before := runtime.NumGoroutine()
	got := make([]*matrix.Mat, count)
	tr, err := c.Batch(mats, func(res batch.Result) error {
		if res.Index < 0 || res.Index >= count || got[res.Index] != nil {
			t.Errorf("bad or duplicate result index %d", res.Index)
		}
		got[res.Index] = res.R
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Done != count || tr.Shed != 0 {
		t.Fatalf("trailer done=%d shed=%d, want %d/0", tr.Done, tr.Shed, count)
	}

	// Every result is bitwise what the batch engine computes locally…
	ws := kernels.NewWorkspace()
	for i, a := range mats {
		want := a.Clone()
		if err := batch.FactorWS(ws, want, 0); err != nil {
			t.Fatal(err)
		}
		if d := matrix.MaxAbsDiff(got[i], want); d != 0 {
			t.Fatalf("matrix %d: served R differs from FactorWS by %g", i, d)
		}
	}
	// …and a sample matches the sequential tree-QR oracle elementwise.
	for i := 0; i < count; i += count / 50 {
		want := seqOracleR(t, mats[i])
		if d := matrix.MaxAbsDiff(got[i].View(0, 0, 32, 32), want); d > 1e-11 {
			t.Fatalf("matrix %d: served R differs from sequential oracle by %g", i, d)
		}
	}

	// The stream machinery (scheduler goroutine, pipe writer) must be gone.
	// Idle keepalive connections hold goroutines on both sides; drop them so
	// the count isolates what the batch path itself left behind.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		c.http().CloseIdleConnections()
		time.Sleep(20 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines grew from %d to %d across the batch stream", before, g)
	}
	if got := s.metrics.BatchRequests.Load(); got != 1 {
		t.Errorf("BatchRequests = %d, want 1", got)
	}
}

// Batch admission is its own class: with the single batch slot held open,
// new batch streams are shed with 429 + Retry-After while the job queue
// stays fully available — and vice versa, a full job queue does not impede
// batch admission.
func TestBatchBackpressureSeparateClass(t *testing.T) {
	_, ts, c := newBatchTestServer(t, Config{
		Threads: 2, QueueCap: 2, MaxConcurrent: 1, BatchStreams: 1,
	})

	// Hold the only batch slot: a request whose body stalls after the header.
	pr, pw := io.Pipe()
	go func() {
		batch.WriteRequestHeader(pw, 100) // declared but never delivered
	}()
	type respErr struct {
		resp *http.Response
		err  error
	}
	heldc := make(chan respErr, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/octet-stream", pr)
		heldc <- respErr{resp, err}
	}()

	// Wait until the slot is actually taken (the 429 below depends on it).
	waitUntil(t, func() bool {
		m, err := c.Metrics()
		return err == nil && strings.Contains(m, "qrserve_batch_active 1")
	})

	// A second batch arrival is shed with 429 + Retry-After.
	var body bytes.Buffer
	batch.WriteRequestHeader(&body, 0)
	resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second batch stream: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carried no Retry-After header")
	}

	// The job tenant is unaffected by batch saturation.
	if _, code, err := c.Submit(JobSpec{M: 64, N: 32, NB: 32, IB: 8, Tree: "flat", Seed: 1}, true); err != nil || code != http.StatusOK {
		t.Fatalf("job submit during batch saturation: code %d, err %v", code, err)
	}

	// Ending the stalled body (clean EOF, 100 matrices short) ends the held
	// stream with partial-progress accounting: 0 done, 100 shed, and a
	// verifiable trailer.
	pw.Close()
	he := <-heldc
	if he.err != nil {
		t.Fatalf("held stream: %v", he.err)
	}
	defer he.resp.Body.Close()
	rd, err := batch.NewResultReader(he.resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for {
		res, tr, err := rd.Next()
		if err != nil {
			t.Fatalf("held stream response: %v", err)
		}
		if res != nil {
			t.Fatalf("held stream emitted result %d with no delivered matrices", res.Index)
		}
		if tr != nil {
			if tr.Done != 0 || tr.Shed != 100 {
				t.Fatalf("partial trailer done=%d shed=%d, want 0/100", tr.Done, tr.Shed)
			}
			break
		}
	}
}

// A full job queue sheds jobs with Retry-After but leaves batch admission
// open.
func TestJobQueueFullRetryAfterBatchUnaffected(t *testing.T) {
	s, ts, c := newBatchTestServer(t, Config{
		Threads: 1, QueueCap: 1, MaxConcurrent: 1, BatchStreams: 1, DeadlockTimeout: -1,
	})

	// Wedge the single execution slot and fill the queue.
	slow := JobSpec{M: 256, N: 256, NB: 8, IB: 4, Tree: "flat", Seed: 3}
	if _, err := s.Submit(slow); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return s.metrics.Running.Load() == 1 })
	if _, err := s.Submit(slow); err != nil {
		t.Fatal(err)
	}

	// Now the queue is full: a JSON submit gets 429 + Retry-After.
	resp, err := ts.Client().Post(ts.URL+"/v1/factorize", "application/json",
		strings.NewReader(`{"m":64,"n":32,"nb":32,"ib":8,"tree":"flat","seed":9}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit on full queue: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("factorize 429 carried no Retry-After header")
	}

	// Batch still admits: the classes are independent.
	rng := rand.New(rand.NewSource(22))
	mats := []*matrix.Mat{matrix.NewRand(8, 8, rng)}
	tr, err := c.Batch(mats, nil)
	if err != nil {
		t.Fatalf("batch during job-queue saturation: %v", err)
	}
	if tr.Done != 1 {
		t.Fatalf("batch done = %d, want 1", tr.Done)
	}
}

// The client's 429 retry honors Retry-After (seconds) from the server and
// falls back to Backoff when the header is absent or unparseable.
func TestClientRetryAfter(t *testing.T) {
	var hits, noHeaderHits int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/jobs/1":
			hits++
			if hits <= 2 {
				w.Header().Set("Retry-After", "0")
				writeJSON(w, http.StatusTooManyRequests, errorResponse{"busy"})
				return
			}
			writeJSON(w, http.StatusOK, JobView{ID: 1, Status: "done"})
		case "/v1/jobs/2":
			noHeaderHits++
			if noHeaderHits <= 1 {
				writeJSON(w, http.StatusTooManyRequests, errorResponse{"busy"})
				return
			}
			writeJSON(w, http.StatusOK, JobView{ID: 2, Status: "done"})
		}
	}))
	defer ts.Close()

	c := &Client{Base: ts.URL, HTTP: ts.Client(), Retry429: 3, Backoff: 10 * time.Millisecond}
	v, err := c.Job(1, false)
	if err != nil || v.Status != "done" {
		t.Fatalf("retried request: %v (status %q)", err, v.Status)
	}
	if hits != 3 {
		t.Fatalf("server saw %d attempts, want 3", hits)
	}

	start := time.Now()
	if _, err := c.Job(2, false); err != nil {
		t.Fatalf("fallback retry: %v", err)
	}
	if el := time.Since(start); el < 10*time.Millisecond {
		t.Fatalf("fallback retry waited only %v, want >= Backoff", el)
	}

	// Default client (Retry429 = 0) surfaces the 429 immediately.
	hits = 0
	c0 := &Client{Base: ts.URL, HTTP: ts.Client()}
	if _, err := c0.Job(1, false); err == nil {
		t.Fatal("default client swallowed a 429")
	}
	if hits != 1 {
		t.Fatalf("default client made %d attempts, want 1", hits)
	}
}

// Server shutdown mid-stream unblocks the batch handler promptly with
// partial accounting rather than wedging on in-flight work.
func TestBatchShutdownMidStream(t *testing.T) {
	s, ts, _ := newBatchTestServer(t, Config{Threads: 2, BatchStreams: 1})

	pr, pw := io.Pipe()
	go func() {
		batch.WriteRequestHeader(pw, 50)
		rng := rand.New(rand.NewSource(23))
		var buf []byte
		for i := 0; i < 10; i++ { // deliver a fifth, then stall
			buf = batch.AppendMatrix(buf[:0], matrix.NewRand(16, 16, rng))
			if _, err := pw.Write(buf); err != nil {
				return
			}
		}
	}()
	respc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/octet-stream", pr)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		respc <- err
	}()

	waitUntil(t, func() bool { return s.metrics.BatchRequests.Load() == 1 })
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("server Close wedged behind an open batch stream")
	}
	pw.CloseWithError(io.ErrClosedPipe) // release the client-side writer
	select {
	case <-respc:
	case <-time.After(10 * time.Second):
		t.Fatal("batch request never returned after shutdown")
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A shape the batch path refuses is an error from Client.Batch, raised
// before any request opens: the encoder runs on the request pipe's
// goroutine, where a panic would take the caller's process down.
func TestBatchClientRefusesBadShapes(t *testing.T) {
	s, _, c := newBatchTestServer(t, Config{Threads: 1})
	for _, bad := range []*matrix.Mat{matrix.New(3, 5), matrix.New(257, 257), matrix.New(4, 0)} {
		mats := []*matrix.Mat{matrix.New(4, 4), bad}
		if _, err := c.Batch(mats, nil); err == nil || !strings.Contains(err.Error(), "matrix 1") {
			t.Fatalf("%dx%d: err %v, want one naming matrix 1", bad.Rows, bad.Cols, err)
		}
	}
	if got := s.metrics.BatchRequests.Load(); got != 0 {
		t.Fatalf("BatchRequests = %d after refused batches, want 0", got)
	}
}

// The result reader reads ahead through a buffer, so the client drains the
// body past the trailer: back-to-back batches share one keep-alive
// connection.
func TestBatchKeepsConnectionAlive(t *testing.T) {
	s, err := NewServer(Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewUnstartedServer(s.Handler())
	var conns atomic.Int32
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	c := &Client{Base: ts.URL, HTTP: ts.Client()}

	rng := rand.New(rand.NewSource(24))
	mats := make([]*matrix.Mat, 500)
	for i := range mats {
		mats[i] = matrix.NewRand(32, 32, rng)
	}
	for i := 0; i < 5; i++ {
		if tr, err := c.Batch(mats, nil); err != nil || tr.Done != len(mats) {
			t.Fatalf("batch %d: done %d, err %v", i, tr.Done, err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("5 batches opened %d connections, want 1", n)
	}
}

// The handler recycles each matrix once its R is in the result slab, so one
// stream that interleaves shapes — longer than the scheduler's window ×
// ChunkSize residency — decodes matrices into storage another shape used
// before. Every R must still be bitwise the local batch.Factor.
func TestBatchRecycledDecodesMixedShapes(t *testing.T) {
	_, _, c := newBatchTestServer(t, Config{Threads: 1})
	shapes := [][2]int{{32, 32}, {40, 20}, {8, 8}, {256, 256}, {13, 13}}
	count := 300 // > window×ChunkSize = 2×64 on one thread
	rng := rand.New(rand.NewSource(25))
	mats := make([]*matrix.Mat, count)
	for i := range mats {
		sh := shapes[i%len(shapes)]
		mats[i] = matrix.NewRand(sh[0], sh[1], rng)
	}
	got := make([]*matrix.Mat, count)
	tr, err := c.Batch(mats, func(res batch.Result) error {
		got[res.Index] = res.R
		return nil
	})
	if err != nil || tr.Done != count || tr.Shed != 0 {
		t.Fatalf("trailer %+v, err %v", tr, err)
	}
	for i, a := range mats {
		want := a.Clone()
		if err := batch.Factor(want); err != nil {
			t.Fatal(err)
		}
		if got[i] == nil || matrix.MaxAbsDiff(got[i], want) != 0 {
			t.Fatalf("matrix %d (%dx%d): served R is not the local batch.Factor", i, a.Rows, a.Cols)
		}
	}
}

// One NaN and one +Inf matrix mixed into a batch stream poison only their
// own R: the stream completes, the two R's are non-finite, and every clean
// R is bitwise what the same stream without them returns. One worker
// thread, so every matrix of the stream runs on the same workspace; 24×8 is
// the Givens sweep, 48×32 the Householder path, and each poisoned matrix
// is followed by clean ones of both shapes.
func TestBatchNonFiniteMatricesPoisonOnlyThemselves(t *testing.T) {
	_, _, c := newBatchTestServer(t, Config{Threads: 1})
	rng := rand.New(rand.NewSource(63))
	var clean []*matrix.Mat
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			clean = append(clean, matrix.NewRand(24, 8, rng))
		} else {
			clean = append(clean, matrix.NewRand(48, 32, rng))
		}
	}
	nanMat, infMat := matrix.NewRand(24, 8, rng), matrix.NewRand(48, 32, rng)
	nanMat.Set(11, 3, math.NaN())
	infMat.Set(30, 17, math.Inf(1))
	poison := map[int]*matrix.Mat{7: nanMat, 22: infMat} // by position in the mixed stream
	var mixed []*matrix.Mat
	for next := 0; next < len(clean); {
		if p := poison[len(mixed)]; p != nil {
			mixed = append(mixed, p)
			continue
		}
		mixed = append(mixed, clean[next])
		next++
	}

	stream := func(mats []*matrix.Mat) []*matrix.Mat {
		t.Helper()
		got := make([]*matrix.Mat, len(mats))
		tr, err := c.Batch(mats, func(res batch.Result) error {
			got[res.Index] = res.R
			return nil
		})
		if err != nil || tr.Done != len(mats) || tr.Shed != 0 {
			t.Fatalf("trailer %+v, err %v; want all %d done", tr, err, len(mats))
		}
		return got
	}
	want := stream(clean)
	var rest []*matrix.Mat
	for i, r := range stream(mixed) {
		if poison[i] == nil {
			rest = append(rest, r)
			continue
		}
		finite := true
		for _, v := range r.Data {
			finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
		}
		if finite {
			t.Errorf("poisoned matrix %d (%dx%d): R is finite", i, r.Rows, r.Cols)
		}
	}
	for i := range want {
		sameBits(t, fmt.Sprintf("clean matrix %d (%dx%d)", i, clean[i].Rows, clean[i].Cols), rest[i], want[i])
	}
}
