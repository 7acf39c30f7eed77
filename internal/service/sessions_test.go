package service

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pulsarqr/internal/batch"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/session"
)

// genRowBlocks makes a streaming workload: the first block has full column
// rank so the sign-canonicalized R is unique from the first fold on.
func genRowBlocks(rng *rand.Rand, count, n int) []*matrix.Mat {
	out := make([]*matrix.Mat, count)
	for i := range out {
		m := 1 + rng.Intn(2*n)
		if i == 0 {
			m = n + 4
		}
		out[i] = matrix.NewRand(m, n, rng)
	}
	return out
}

// stackedOracleR factorizes the stacked blocks from scratch and returns R.
func stackedOracleR(t *testing.T, blocks []*matrix.Mat, n int) *matrix.Mat {
	t.Helper()
	rows := 0
	for _, b := range blocks {
		rows += b.Rows
	}
	a := matrix.New(rows, n)
	at := 0
	for _, b := range blocks {
		a.View(at, 0, b.Rows, n).CopyFrom(b)
		at += b.Rows
	}
	f, err := qr.Factorize(matrix.FromDense(a, 16), nil, qr.Options{NB: 16, IB: 4})
	if err != nil {
		t.Fatal(err)
	}
	return f.R()
}

// compareCanonR canonicalizes row signs (diag ≥ 0, the batch path's rule) and
// compares elementwise.
func compareCanonR(t *testing.T, got, want *matrix.Mat) {
	t.Helper()
	g, w := got.Clone(), want.Clone()
	batch.Canonicalize(g)
	batch.Canonicalize(w)
	scale := w.MaxAbs() + 1
	if d := matrix.MaxAbsDiff(g, w); d > 1e-10*scale {
		t.Fatalf("R mismatch: %g (scale %g)", d, scale)
	}
}

// The headline session requirement end to end over HTTP: open a streaming
// session, append row blocks over one full-duplex request observing an
// updated R after every block, and end with an R elementwise equal (after
// sign canonicalization) to a from-scratch factorization of all the rows.
func TestSessionEndToEnd(t *testing.T) {
	_, _, c := newBatchTestServer(t, Config{Threads: 3})

	rng := rand.New(rand.NewSource(41))
	n := 13
	blocks := genRowBlocks(rng, 9, n)

	info, err := c.OpenSession(SessionSpec{Tenant: "acme", N: n, NB: 16, IB: 4})
	if err != nil {
		t.Fatal(err)
	}
	if info.ID == "" || info.N != n || info.Blocks != 0 {
		t.Fatalf("open returned %+v", info)
	}

	var updates []session.Update
	tr, err := c.SessionAppend(info.ID, n, blocks, nil, func(u session.Update) error {
		updates = append(updates, u)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Done != len(blocks) || tr.Shed != 0 {
		t.Fatalf("trailer done=%d shed=%d, want %d/0", tr.Done, tr.Shed, len(blocks))
	}
	if len(updates) != len(blocks) {
		t.Fatalf("got %d updates, want %d", len(updates), len(blocks))
	}
	// Every update carries monotone progress and a full R.
	wantRows := int64(0)
	for i, u := range updates {
		wantRows += int64(blocks[i].Rows)
		if u.Blocks != int64(i+1) || u.Rows != wantRows {
			t.Fatalf("update %d: blocks=%d rows=%d, want %d/%d", i, u.Blocks, u.Rows, i+1, wantRows)
		}
		if u.R == nil || u.R.Rows != n || u.R.Cols != n {
			t.Fatalf("update %d: bad R", i)
		}
	}

	// The streamed R and the GET endpoint agree bitwise, and both match the
	// from-scratch oracle elementwise after canonicalization.
	got, err := c.SessionR(info.ID, n)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(got.R, updates[len(updates)-1].R); d != 0 {
		t.Fatalf("GET /r differs from last streamed update by %g", d)
	}
	compareCanonR(t, got.R, stackedOracleR(t, blocks, n))

	// Info, list, delete, gone.
	info2, err := c.SessionInfo(info.ID)
	if err != nil || info2.Blocks != int64(len(blocks)) {
		t.Fatalf("info after stream: %+v, %v", info2, err)
	}
	list, err := c.Sessions()
	if err != nil || len(list) != 1 || list[0].ID != info.ID {
		t.Fatalf("list: %+v, %v", list, err)
	}
	if err := c.CloseSession(info.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SessionInfo(info.ID); err == nil {
		t.Fatal("deleted session still queryable")
	}

	// The metrics surface reports the session series.
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"qrserve_sessions_opened_total 1",
		"qrserve_session_appends_total 9",
		"qrserve_sessions_active 0",
		"qrserve_session_append_seconds_count 9",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// Ack-only sessions get receipts without R payloads on the append stream,
// while GET /r still serves the full state.
func TestSessionAckOnly(t *testing.T) {
	_, _, c := newBatchTestServer(t, Config{Threads: 2})
	rng := rand.New(rand.NewSource(43))
	n := 8
	blocks := genRowBlocks(rng, 4, n)
	info, err := c.OpenSession(SessionSpec{N: n, NB: 16, IB: 4, AckOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.SessionAppend(info.ID, n, blocks, nil, func(u session.Update) error {
		if u.R != nil {
			t.Error("ack-only update carried an R payload")
		}
		return nil
	})
	if err != nil || tr.Done != len(blocks) {
		t.Fatalf("append: trailer %+v, err %v", tr, err)
	}
	got, err := c.SessionR(info.ID, n)
	if err != nil {
		t.Fatal(err)
	}
	compareCanonR(t, got.R, stackedOracleR(t, blocks, n))
}

// A session with right-hand sides folds QᵀB along with R, so a least-squares
// solve from the streamed state matches the from-scratch solve.
func TestSessionWithRHS(t *testing.T) {
	srv, _, c := newBatchTestServer(t, Config{Threads: 2})
	rng := rand.New(rand.NewSource(47))
	n, nrhs := 9, 2
	blocks := genRowBlocks(rng, 5, n)
	rhs := make([]*matrix.Mat, len(blocks))
	for i, b := range blocks {
		rhs[i] = matrix.NewRand(b.Rows, nrhs, rng)
	}
	info, err := c.OpenSession(SessionSpec{N: n, NRHS: nrhs, NB: 16, IB: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SessionAppend(info.ID, n, blocks, rhs, nil); err != nil {
		t.Fatal(err)
	}
	sess, err := srv.Sessions().Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := sess.Current()
	if err != nil {
		t.Fatal(err)
	}
	x := cur.SolveLS()

	// Oracle: stack rows and rhs, factorize with the rhs riding along.
	rows := 0
	for _, b := range blocks {
		rows += b.Rows
	}
	a, b := matrix.New(rows, n), matrix.New(rows, nrhs)
	at := 0
	for i, blk := range blocks {
		a.View(at, 0, blk.Rows, n).CopyFrom(blk)
		b.View(at, 0, blk.Rows, nrhs).CopyFrom(rhs[i])
		at += blk.Rows
	}
	f, err := qr.Factorize(matrix.FromDense(a, 16), matrix.FromDense(b, 16), qr.Options{NB: 16, IB: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := f.SolveFromQTB()
	scale := want.MaxAbs() + 1
	if d := matrix.MaxAbsDiff(x, want); d > 1e-9*scale {
		t.Fatalf("least-squares drift: %g (scale %g)", d, scale)
	}
}

// A server restart over the same checkpoint directory restores the session
// and replaying the remaining blocks yields an R bitwise equal to an
// uninterrupted run — the durability contract at the HTTP surface.
func TestSessionCrashRestoreBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	n := 12
	blocks := genRowBlocks(rng, 8, n)
	cut := 3

	// Oracle: one uninterrupted streaming run, memory-only server.
	_, _, oc := newBatchTestServer(t, Config{Threads: 2})
	oinfo, err := oc.OpenSession(SessionSpec{N: n, NB: 16, IB: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oc.SessionAppend(oinfo.ID, n, blocks, nil, nil); err != nil {
		t.Fatal(err)
	}
	want, err := oc.SessionR(oinfo.ID, n)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: durable server, checkpoint every append, stopped
	// after cut blocks without a clean session close.
	dir := t.TempDir()
	sA, err := NewServer(Config{Threads: 2, CheckpointDir: dir, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(sA.Handler())
	cA := &Client{Base: tsA.URL, HTTP: tsA.Client()}
	info, err := cA.OpenSession(SessionSpec{N: n, NB: 16, IB: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cA.SessionAppend(info.ID, n, blocks[:cut], nil, nil); err != nil {
		t.Fatal(err)
	}
	tsA.Close()
	sA.Close()

	// Restart: a fresh server over the same directory re-registers the
	// session from its checkpoint, parked until first use.
	sB, err := NewServer(Config{Threads: 2, CheckpointDir: dir, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(sB.Handler())
	t.Cleanup(tsB.Close)
	t.Cleanup(sB.Close)
	cB := &Client{Base: tsB.URL, HTTP: tsB.Client()}
	rinfo, err := cB.SessionInfo(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rinfo.Blocks != int64(cut) || rinfo.Loaded {
		t.Fatalf("restored info %+v, want blocks=%d loaded=false", rinfo, cut)
	}
	if _, err := cB.SessionAppend(info.ID, n, blocks[cut:], nil, nil); err != nil {
		t.Fatal(err)
	}
	got, err := cB.SessionR(info.ID, n)
	if err != nil {
		t.Fatal(err)
	}
	if got.Blocks != int64(len(blocks)) {
		t.Fatalf("restored run committed %d blocks, want %d", got.Blocks, len(blocks))
	}
	// Identical block sequence, identical kernels: the restored-and-replayed
	// R must equal the uninterrupted one to the bit.
	if d := matrix.MaxAbsDiff(got.R, want.R); d != 0 {
		t.Fatalf("restored R differs from uninterrupted run by %g", d)
	}
	if sB.metrics.SessionsRestored.Load() == 0 {
		t.Error("restore path never fired the restored counter")
	}
	m, err := cB.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, wantSeries := range []string{
		"qrserve_checkpoint_writes_total",
		"qrserve_checkpoint_resident_bytes",
		"qrserve_checkpoint_age_seconds",
	} {
		if !strings.Contains(m, wantSeries) {
			t.Errorf("metrics missing %q", wantSeries)
		}
	}
}

// A request body cut off mid-stream still yields an orderly response: every
// block delivered before the cut commits, the trailer reconciles the shed
// remainder, and the session stays usable.
func TestSessionAppendTruncatedBody(t *testing.T) {
	_, ts, c := newBatchTestServer(t, Config{Threads: 2})
	rng := rand.New(rand.NewSource(59))
	n := 8
	blocks := genRowBlocks(rng, 4, n)
	info, err := c.OpenSession(SessionSpec{N: n, NB: 16, IB: 4})
	if err != nil {
		t.Fatal(err)
	}

	// Declare 4 blocks, deliver 2, then end the body at a frame boundary.
	var body bytes.Buffer
	session.WriteAppendHeader(&body, 4)
	var buf []byte
	for _, b := range blocks[:2] {
		buf = session.AppendBlock(buf[:0], b, nil)
		body.Write(buf)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/sessions/"+info.ID+"/append", "application/octet-stream", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	rd, err := session.NewReplyReader(resp.Body, n)
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for {
		_, tr, err := rd.Next()
		if err != nil {
			t.Fatalf("reply stream: %v", err)
		}
		if tr != nil {
			if tr.Done != 2 || tr.Shed != 2 {
				t.Fatalf("trailer done=%d shed=%d, want 2/2", tr.Done, tr.Shed)
			}
			break
		}
		frames++
	}
	if frames != 2 {
		t.Fatalf("got %d update frames, want 2", frames)
	}

	// The session took the two delivered blocks and keeps serving.
	if info2, err := c.SessionInfo(info.ID); err != nil || info2.Blocks != 2 {
		t.Fatalf("after truncation: %+v, %v", info2, err)
	}
	if _, err := c.SessionAppend(info.ID, n, blocks[2:], nil, nil); err != nil {
		t.Fatal(err)
	}
	got, err := c.SessionR(info.ID, n)
	if err != nil {
		t.Fatal(err)
	}
	compareCanonR(t, got.R, stackedOracleR(t, blocks, n))
}

// An interactive client sends block k+1 only after it reads update k. When
// the stream aborts before update k (here the checkpoint directory vanished
// under a durable server), the handler must still answer and release what
// it holds, not wait for a block that will never come: the client gets its
// error, the append slot and the session's append flag are free again, and
// a second append to the same session goes through.
func TestSessionAppendAbortAnswersInteractiveClient(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	s, ts, c := newBatchTestServer(t, Config{Threads: 2, CheckpointDir: ckpt, CheckpointEvery: 1, SessionStreams: 1})
	rng := rand.New(rand.NewSource(61))
	n := 8
	blocks := genRowBlocks(rng, 3, n)
	info, err := c.OpenSession(SessionSpec{N: n, NB: 16, IB: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(ckpt); err != nil {
		t.Fatal(err)
	}

	pr, pw := io.Pipe()
	t.Cleanup(func() { pw.Close() }) // runs before the server's cleanups
	type result struct {
		resp *http.Response
		err  error
	}
	answered := make(chan result, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/sessions/"+info.ID+"/append", "application/octet-stream", pr)
		answered <- result{resp, err}
	}()
	var first bytes.Buffer
	session.WriteAppendHeader(&first, len(blocks))
	first.Write(session.AppendBlock(nil, blocks[0], nil))
	go pw.Write(first.Bytes()) // then wait for update 1 before sending block 2

	var res result
	select {
	case res = <-answered:
	case <-time.After(3 * time.Second):
		t.Fatal("an append stream aborted by a checkpoint failure never answered its interactive client")
	}
	if res.err != nil {
		t.Fatal(res.err)
	}
	body, _ := io.ReadAll(res.resp.Body)
	res.resp.Body.Close()
	if res.resp.StatusCode == http.StatusOK || !strings.Contains(string(body), "checkpoint") {
		t.Fatalf("aborted append: %d %s, want an error naming the checkpoint", res.resp.StatusCode, body)
	}
	waitUntil(t, func() bool { return s.metrics.AppendActive.Load() == 0 })

	if err := os.MkdirAll(ckpt, 0o755); err != nil {
		t.Fatal(err)
	}
	tr, err := c.SessionAppend(info.ID, n, blocks, nil, nil)
	if err != nil {
		t.Fatalf("second append to the session after the abort: %v", err)
	}
	if tr.Done != len(blocks) {
		t.Fatalf("second append committed %d blocks, want %d", tr.Done, len(blocks))
	}
}

// Pre-stream failures return clean JSON statuses, never a committed 200
// octet stream: missing session 404, deleted session append 404, malformed
// magic 400.
func TestSessionAppendErrorStatuses(t *testing.T) {
	_, ts, c := newBatchTestServer(t, Config{Threads: 2})
	post := func(path string, body io.Reader) *http.Response {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/octet-stream", body)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	if resp := post("/v1/sessions/nope/append", strings.NewReader("QSA1\x00\x00\x00\x00")); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing session: %d, want 404", resp.StatusCode)
	}
	if _, err := c.SessionR("nope", 8); err == nil || err.Error() != session.ErrNotFound.Error() {
		t.Fatalf("SessionR of a missing session: %v, want the server's %q", err, session.ErrNotFound)
	}
	info, err := c.OpenSession(SessionSpec{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if resp := post("/v1/sessions/"+info.ID+"/append", strings.NewReader("JUNK")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad magic: %d, want 400", resp.StatusCode)
	}
	if err := c.CloseSession(info.ID); err != nil {
		t.Fatal(err)
	}
	if resp := post("/v1/sessions/"+info.ID+"/append", strings.NewReader("QSA1\x00\x00\x00\x00")); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted session: %d, want 404", resp.StatusCode)
	}
}

// A NaN or Inf anywhere in an appended block or its rhs rows is a decode
// error: a stream holding one is refused before it commits, and the
// session's R stays bitwise what the last clean append left — one bad block
// must not poison the session (and its checkpoints) for good.
func TestSessionRefusesNonFiniteBlock(t *testing.T) {
	_, ts, c := newBatchTestServer(t, Config{Threads: 2})
	rng := rand.New(rand.NewSource(59))
	n := 8
	info, err := c.OpenSession(SessionSpec{N: n, NRHS: 1, NB: 8, IB: 4})
	if err != nil {
		t.Fatal(err)
	}
	block := func() *matrix.Mat { return matrix.NewRand(16, n, rng) }
	rhs := func() *matrix.Mat { return matrix.NewRand(16, 1, rng) }
	if _, err := c.SessionAppend(info.ID, n, []*matrix.Mat{block()}, []*matrix.Mat{rhs()}, nil); err != nil {
		t.Fatal(err)
	}
	want, err := c.SessionR(info.ID, n)
	if err != nil {
		t.Fatal(err)
	}

	nanBlock, infRHS := block(), rhs()
	nanBlock.Set(5, 3, math.NaN())
	infRHS.Set(9, 0, math.Inf(1))
	for _, bad := range []struct {
		name       string
		block, rhs *matrix.Mat
	}{
		{"NaN block", nanBlock, rhs()},
		{"+Inf rhs", block(), infRHS},
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/sessions/"+info.ID+"/append", "application/octet-stream",
			appendBody([]*matrix.Mat{bad.block}, []*matrix.Mat{bad.rhs}))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: append answered %d, want 400", bad.name, resp.StatusCode)
		}
		got, err := c.SessionR(info.ID, n)
		if err != nil {
			t.Fatal(err)
		}
		if got.Blocks != want.Blocks || got.Rows != want.Rows {
			t.Fatalf("%s: session at %d blocks / %d rows, want %d / %d", bad.name, got.Blocks, got.Rows, want.Blocks, want.Rows)
		}
		sameBits(t, bad.name, got.R, want.R)
	}
}

// A client told to retry a 429 reopens the append stream after the server's
// Retry-After, not its own Backoff, and resends every block: the retried
// stream commits them all.
func TestSessionAppendRetries429(t *testing.T) {
	s, err := NewServer(Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var bodies [][]byte
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/append") {
			b, _ := io.ReadAll(r.Body)
			if bodies = append(bodies, b); len(bodies) == 1 {
				w.Header().Set("Retry-After", "1")
				writeJSON(w, http.StatusTooManyRequests, errorResponse{"busy"})
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(b))
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	n := 6
	blocks := genRowBlocks(rand.New(rand.NewSource(3)), 4, n)
	c := &Client{Base: ts.URL, Retry429: 1, Backoff: time.Millisecond}
	info, err := c.OpenSession(SessionSpec{N: n})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	tr, err := c.SessionAppend(info.ID, n, blocks, nil, nil)
	if err != nil || tr.Done != len(blocks) {
		t.Fatalf("append with one retry: done %d, err %v", tr.Done, err)
	}
	if waited := time.Since(start); waited < time.Second {
		t.Errorf("retried after %v, before the Retry-After of 1 s", waited)
	}
	if len(bodies) != 2 || !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("the retry did not resend the append stream intact (%d attempts)", len(bodies))
	}
}

// The regression contract for load shedding: all three admission classes —
// the job queue, batch streams, and session streams (append slots and table
// capacity) — refuse work through the same helper, so every 429 carries a
// Retry-After hint.
func TestShedAllClassesEmitRetryAfter(t *testing.T) {
	s, ts, c := newBatchTestServer(t, Config{
		Threads: 1, QueueCap: 1, MaxConcurrent: 1, BatchStreams: 1, SessionStreams: 1,
		MaxSessions: 1, DeadlockTimeout: -1,
	})

	expect429 := func(what string, resp *http.Response, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s: status %d, want 429", what, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s: 429 carried no Retry-After header", what)
		}
	}

	// Jobs: wedge the execution slot, fill the queue, then overflow it.
	slow := JobSpec{M: 256, N: 256, NB: 8, IB: 4, Tree: "flat", Seed: 3}
	if _, err := s.Submit(slow); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return s.metrics.Running.Load() == 1 })
	if _, err := s.Submit(slow); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/factorize", "application/json",
		strings.NewReader(`{"m":64,"n":32,"nb":32,"ib":8,"tree":"flat","seed":9}`))
	expect429("job overflow", resp, err)

	// Batch: occupy the only stream slot, then arrive.
	s.batchSem <- struct{}{}
	resp, err = ts.Client().Post(ts.URL+"/v1/batch", "application/octet-stream", strings.NewReader("QBR1\x00\x00\x00\x00"))
	expect429("batch overflow", resp, err)
	<-s.batchSem

	// Session appends: occupy the only append slot, then arrive.
	info, err := c.OpenSession(SessionSpec{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	s.sessionSem <- struct{}{}
	resp, err = ts.Client().Post(ts.URL+"/v1/sessions/"+info.ID+"/append", "application/octet-stream", strings.NewReader("QSA1\x00\x00\x00\x00"))
	expect429("session append overflow", resp, err)
	<-s.sessionSem

	// Session table: the single slot is held, a second open is shed.
	resp, err = ts.Client().Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(`{"n":8}`))
	expect429("session table overflow", resp, err)
	if s.metrics.SessionsRejected.Load() != 1 {
		t.Errorf("sessions rejected counter = %d, want 1", s.metrics.SessionsRejected.Load())
	}
}

// A blocking no checkpoint can carry is a 400 at open — before a session id
// exists, before anything is acknowledged, before a file is written — not a
// durable session the next boot skips.
func TestSessionOpenRefusesUncheckpointableBlocking(t *testing.T) {
	dir := t.TempDir()
	_, ts, c := newBatchTestServer(t, Config{Threads: 2, CheckpointDir: dir})
	resp, err := ts.Client().Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(`{"n":8,"nb":2000}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "nb=2000") {
		t.Fatalf("open with nb=2000: %d %s, want 400 naming the blocking", resp.StatusCode, body)
	}
	if list, err := c.Sessions(); err != nil || len(list) != 0 {
		t.Fatalf("sessions after the refusal: %v (err %v)", list, err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("the refused open left %d files in the checkpoint directory", len(ents))
	}
	if _, err := c.OpenSession(SessionSpec{N: 8, NB: session.MaxN}); err != nil {
		t.Fatalf("nb on the bound refused: %v", err)
	}
}
