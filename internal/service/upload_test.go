package service

// An uploaded job end to end: over HTTP in both encodings, dealt out across a
// fleet, retried by a client, canceled mid-scatter, and let go of when done.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/transport"
)

// The binary path and the JSON path are one path after the decode: the R a
// client reads from a frame is, bit for bit, the R of the same spec submitted
// in process, the R the same job's JSON view spells, and the R of the same
// matrix posted as JSON text. And the client moves it in one request a call,
// the upload at 8 bytes a number.
func TestUploadOverHTTPBitwise(t *testing.T) {
	s, err := NewServer(Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	type seen struct {
		ctype string
		bytes int
	}
	var reqs []seen
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		reqs = append(reqs, seen{r.Header.Get("Content-Type"), len(b)})
		r.Body = io.NopCloser(bytes.NewReader(b))
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := &Client{Base: ts.URL}

	const m, n = 200, 70 // ragged at nb=32
	spec := JobSpec{M: m, N: n, NB: 32, IB: 8, Data: matrix.NewSeeded(m, n, 7).Data}
	v, code, err := c.Submit(spec, true)
	if err != nil || code != http.StatusOK || v.Status != string(StateDone) || !v.OK {
		t.Fatalf("submit: code %d, err %v, view %+v", code, err, v)
	}
	got, err := c.Job(v.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 {
		t.Fatalf("Submit and Job made %d requests, want one each", len(reqs))
	}
	if reqs[0].ctype != jobFrameType || reqs[0].bytes > 8*m*n+1024 {
		t.Errorf("upload went as %d bytes of %q, want at most %d of %s", reqs[0].bytes, reqs[0].ctype, 8*m*n+1024, jobFrameType)
	}
	frameR := rowsMat(t, got.R)

	local, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, local)
	sameBits(t, "frame R against Server.Submit's", frameR, local.Result().R)

	var jsonView JobView
	if err := json.Unmarshal([]byte(httpGet(t, fmt.Sprintf("%s/v1/jobs/%d?include=r", ts.URL, v.ID))), &jsonView); err != nil {
		t.Fatal(err)
	}
	sameBits(t, "frame R against the JSON view's", frameR, rowsMat(t, jsonView.R))

	body, err := json.Marshal(submitRequest{JobSpec: spec, Wait: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/factorize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var posted JobView
	err = json.NewDecoder(resp.Body).Decode(&posted)
	resp.Body.Close()
	if err != nil || !posted.OK {
		t.Fatalf("JSON upload: %v, view %+v", err, posted)
	}
	pj, err := s.Get(posted.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "frame R against a JSON upload's", frameR, pj.Result().R)
	checkResultR(t, "upload", frameR, oracleR(t, s, spec))
}

// sendMeter is rank 0's endpoint with what it sends counted: the largest
// control-plane message, and per destination the bytes of upload scatter.
type sendMeter struct {
	transport.Endpoint
	mu     sync.Mutex
	maxCtl int
	upload map[int]int
}

// IsendPrefixed is how the mux sends: its job header is the prefix.
func (m *sendMeter) IsendPrefixed(prefix, data []byte, dest, tag int) transport.Request {
	m.mu.Lock()
	switch job, n := binary.BigEndian.Uint32(prefix), len(prefix)+len(data); {
	case job == ctlJob:
		m.maxCtl = max(m.maxCtl, n)
	case tag == transport.UploadTag:
		m.upload[dest] += n
	}
	m.mu.Unlock()
	return m.Endpoint.IsendPrefixed(prefix, data, dest, tag)
}

// An uploaded job runs on a fleet to the R a lone server computes, and no
// rank is sent more of the matrix than it owns: the open broadcast stays a
// spec, and rank r's rows reach rank r alone, at 8 bytes a number.
func TestUploadScatteredAcrossFleet(t *testing.T) {
	const m, n = 2048, 128 // 11 tile rows of 192, the last ragged: 6+5 over two ranks, 4+4+3 over three
	spec := JobSpec{M: m, N: n, Data: matrix.NewSeeded(m, n, 3).Data}
	alone, err := NewServer(Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer alone.Close()
	ref, err := alone.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ref)
	opts, _ := spec.Options()

	for _, ranks := range []int{2, 3} {
		l := transport.NewLocal(ranks)
		agents := make([]*Agent, ranks-1)
		agentDone := make(chan error, ranks-1)
		for i := range agents {
			if agents[i], err = NewAgent(l.Endpoint(i+1), 1, t.Logf); err != nil {
				t.Fatal(err)
			}
			go func(ag *Agent) { agentDone <- ag.Run(context.Background()) }(agents[i])
		}
		meter := &sendMeter{Endpoint: l.Endpoint(0), upload: map[int]int{}}
		s, err := NewServer(Config{Threads: 1, Ep: meter, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		if res := j.Result(); !res.OK {
			t.Errorf("%d ranks: residual %g", ranks, res.Residual)
		}
		if err := sameUpToRowSigns(j.Result().R, ref.Result().R); err != nil {
			t.Errorf("%d ranks against the lone server: %v", ranks, err)
		}
		s.Close()
		for range agents {
			if err := <-agentDone; err != nil {
				t.Errorf("%d ranks: agent exited with %v", ranks, err)
			}
		}
		for _, ag := range agents {
			ag.Close()
		}

		if meter.maxCtl >= 1024 {
			t.Errorf("%d ranks: a control message of %d bytes; an open must stay under 1 KB", ranks, meter.maxCtl)
		}
		for r := 1; r < ranks; r++ {
			r0, r1 := spec.ownedRows(opts.NB, ranks, r)
			if got, limit := meter.upload[r], 8*(r1-r0)*n+64; got == 0 || got > limit {
				t.Errorf("%d ranks: rank %d, owner of rows [%d,%d), was sent %d bytes of upload, want (0, %d]", ranks, r, r0, r1, got, limit)
			}
		}
	}
}

// sameUpToRowSigns reports whether r equals ref once each row is flipped to
// ref's sign: a QR factorization is unique only up to the signs of R's rows,
// and a different reduction tree need not pick the same ones.
func sameUpToRowSigns(r, ref *matrix.Mat) error {
	tol := 1e-10 * ref.MaxAbs()
	for i := 0; i < ref.Rows; i++ {
		sign := 1.0
		if r.At(i, i)*ref.At(i, i) < 0 {
			sign = -1
		}
		for j := i; j < ref.Cols; j++ {
			if d := math.Abs(sign*r.At(i, j) - ref.At(i, j)); !(d <= tol) {
				return fmt.Errorf("R(%d,%d) differs by %g (tolerance %g)", i, j, d, tol)
			}
		}
	}
	return nil
}

// A finished job holds its R, not its input: the upload is unreachable from
// a terminal job, so what ResultCap retained jobs keep of the heap is
// ResultCap R factors. An admitted job holds its upload beside its Spec, not
// in it, which is read as the job is dispatched — before it can have run and
// let go of the upload. Views polled while the jobs finish read Spec without
// the lock, which the race detector holds to "never written after admission".
func TestFinishedJobReleasesUpload(t *testing.T) {
	const m, n, keep = 2048, 64, 8 // a 1 MiB upload, a 32 KiB R
	s, err := NewServer(Config{Threads: 2, ResultCap: keep})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Every dispatch reports what the job holds as it starts to run. The
	// dispatchers read run only once a job is queued, after this write.
	admitted := make(chan [2]int, 1)
	run := s.mgr.run
	s.mgr.run = func(j *Job) {
		admitted <- [2]int{len(j.Spec.Data), len(j.input())}
		run(j)
	}
	submit := func(seed int64) *Job {
		j, err := s.Submit(JobSpec{M: m, N: n, Tenant: "t", Data: matrix.NewSeeded(m, n, seed).Data})
		if err != nil {
			t.Fatal(err)
		}
		if held := <-admitted; held != [2]int{0, m * n} {
			t.Fatalf("an admitted job holds %d entries in Spec.Data and %d beside it, want 0 and %d", held[0], held[1], m*n)
		}
		var polls sync.WaitGroup
		polls.Add(1)
		go func() {
			defer polls.Done()
			for v := viewOf(j); !State(v.Status).Terminal(); v = viewOf(j) {
				if v.M != m || v.Tenant != "t" {
					t.Errorf("view of a live job reads %+v", v)
					return
				}
			}
		}()
		waitDone(t, j)
		polls.Wait()
		if j.input() != nil {
			t.Fatalf("job %d is done and still holds its upload", j.ID)
		}
		return j
	}
	heap := func() uint64 {
		// Two collections: a sync.Pool item (a BLAS packing buffer) lives
		// through the first in the pool's victim cache and is freed by the
		// second, so both readings see the pools empty.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	submit(1) // warm the pool's workspaces before the baseline is read
	base := heap()
	for i := 0; i < keep+8; i++ {
		submit(int64(2 + i))
	}
	if got := s.resident(); got != keep {
		t.Fatalf("%d jobs resident, want %d", got, keep)
	}
	const slack = 2 << 20
	if grew, limit := int64(heap())-int64(base), int64(keep*8*n*n+slack); grew > limit {
		t.Errorf("%d retained jobs hold %d bytes of heap, want at most %d (their uploads are %d)", keep, grew, limit, keep*8*m*n)
	}
}

// A client told to retry a 429 sends the upload again, whole: both attempts
// carry the same bytes, and the job the second one admits is correct.
func TestUploadResentIntactAfter429(t *testing.T) {
	s, err := NewServer(Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var bodies [][]byte
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		bodies = append(bodies, b)
		if len(bodies) == 1 {
			s.shed429(w, "job", "", 0, 1, ErrQueueFull.Error())
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(b))
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	spec := JobSpec{M: 96, N: 64, NB: 32, IB: 8, Data: matrix.NewSeeded(96, 64, 5).Data}
	if _, code, err := (&Client{Base: ts.URL}).Submit(spec, true); err == nil || code != http.StatusTooManyRequests {
		t.Fatalf("with no retries configured the 429 must surface: code %d, err %v", code, err)
	}
	bodies = nil
	c := &Client{Base: ts.URL, Retry429: 1, Backoff: time.Millisecond}
	start := time.Now()
	v, code, err := c.Submit(spec, true)
	if err != nil || code != http.StatusOK || !v.OK {
		t.Fatalf("submit with one retry: code %d, err %v, view %+v", code, err, v)
	}
	if waited := time.Since(start); waited < time.Second {
		t.Errorf("retried after %v, before the Retry-After of 1 s", waited)
	}
	if len(bodies) != 2 || !bytes.Equal(bodies[0], bodies[1]) || len(bodies[0]) < 8*96*64 {
		t.Fatalf("the retry did not resend the %d-byte upload intact", len(bodies[0]))
	}
	got, err := c.Job(v.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	checkResultR(t, "after a 429", rowsMat(t, got.R), oracleR(t, s, spec))
}

// handFleet is a two-rank in-process fleet whose rank 0 is played by hand:
// the agent on rank 1 runs for real, logging through logf, and send puts one
// control message on the wire — so a test can withhold what a server would
// send, or send what a server never would. finish sends the shutdown and
// waits for the agent to exit cleanly.
func handFleet(t *testing.T, logf func(string, ...any)) (agent *Agent, send func(ctlMsg), finish func()) {
	t.Helper()
	l := transport.NewLocal(2)
	agent, err := NewAgent(l.Endpoint(1), 1, logf)
	if err != nil {
		t.Fatal(err)
	}
	agentDone := make(chan error, 1)
	go func() { agentDone <- agent.Run(context.Background()) }()

	mux := transport.NewMux(l.Endpoint(0))
	t.Cleanup(func() { mux.Close() })
	ctl, err := mux.Open(ctlJob)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctl.Close() })
	send = func(msg ctlMsg) {
		b, err := json.Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		ctl.Isend(b, 1, ctlTag)
	}
	finish = func() {
		send(ctlMsg{Op: "shutdown"})
		select {
		case err := <-agentDone:
			if err != nil {
				t.Errorf("agent exited with %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("agent did not exit: a job of its is wedged")
		}
		agent.Close()
	}
	return agent, send, finish
}

// An agent told to expect rows that never come — rank 0 canceled the job, or
// died, between the open and the scatter — is not stuck in that receive: the
// cancel unwinds it, and the agent shuts down.
func TestCancelUnwindsAgentWaitingForUpload(t *testing.T) {
	var waited atomic.Bool
	agent, send, finish := handFleet(t, func(format string, args ...any) {
		if msg := fmt.Sprintf(format, args...); strings.Contains(msg, "rows of the upload canceled") {
			waited.Store(true)
		}
	})
	send(ctlMsg{Op: "open", Job: 1, Session: 1, Ranks: []int{0, 1}, Upload: true,
		Spec: &JobSpec{M: 512, N: 64, NB: 32, IB: 8}})
	// The agent posts its receive right after it opens its side of the
	// session; whichever of the two the cancel finds, the wait must end.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if open, _, _ := agent.mux.Depths(); open == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the agent never opened the attempt's session")
		}
	}
	send(ctlMsg{Op: "cancel", Job: 1})
	finish()
	if !waited.Load() {
		t.Error("the agent's attempt ended without reporting a canceled wait: it never waited for its rows")
	}
}

// An open names its attempt's session and member set — the server always
// sends both — so one without either (or without a spec) is refused and
// logged, not run on a guess: no session is opened for it.
func TestAgentRefusesIncompleteOpen(t *testing.T) {
	var refused, ran atomic.Int32
	_, send, finish := handFleet(t, func(format string, args ...any) {
		switch msg := fmt.Sprintf(format, args...); {
		case strings.Contains(msg, "open without"):
			refused.Add(1)
		case strings.Contains(msg, "agent: job"): // an attempt's own report
			ran.Add(1)
		}
	})
	spec := &JobSpec{M: 64, N: 32, NB: 32, IB: 8, Seed: 1}
	send(ctlMsg{Op: "open", Job: 1, Ranks: []int{0, 1}, Spec: spec})
	send(ctlMsg{Op: "open", Job: 2, Session: 2, Spec: spec})
	send(ctlMsg{Op: "open", Job: 3, Session: 3, Ranks: []int{0, 1}})
	// Control messages are served in order, and rank 0 never joins: an open
	// that was run ends at the shutdown, reporting its canceled attempt.
	finish()
	if refused.Load() != 3 || ran.Load() != 0 {
		t.Errorf("of 3 incomplete opens %d were refused and logged, %d were run", refused.Load(), ran.Load())
	}
}

// An agent whose rank 0 dies before its rows come learns which rank it lost:
// the wait ends with the transport's verdict on the peer, not a bare
// "canceled".
func TestRecvUploadNamesDeadRank(t *testing.T) {
	eps, err := transport.DialLoopback(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	// Three ranks, so that the link to rank 2 keeps rank 1's endpoint alive.
	mux := transport.NewMux(eps[1])
	defer mux.Close()
	jep, err := mux.OpenOn(5, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	defer jep.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sp := JobSpec{M: 192, N: 64, NB: 32, IB: 8}
	waitErr := make(chan error, 1)
	go func() { waitErr <- sp.recvUpload(ctx, jep, sp.NB) }()
	eps[0].(transport.Crasher).Crash()
	var pde *transport.PeerDeathError
	if err := <-waitErr; !errors.As(err, &pde) || pde.Rank != 0 {
		t.Fatalf("wait for rows from a dead rank 0: err %v, want one naming rank 0", err)
	}
}
