package service

// A rank's input tiles live in warm storage (slab.Floats) that one job hands
// to the next on the same process: what a job computes must not depend on
// what the last one left there, and a job in steady state must not allocate
// its input.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/pulsar"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/session"
	"pulsarqr/internal/slab"
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

// uploadFrame is the POST /v1/factorize frame body of spec with m as its
// matrix, waiting for the job.
func uploadFrame(t *testing.T, spec JobSpec, m *matrix.Mat) []byte {
	t.Helper()
	head, err := json.Marshal(submitRequest{JobSpec: spec, Wait: true})
	if err != nil {
		t.Fatal(err)
	}
	return appendJobFrame(nil, head, m)
}

// postFrame POSTs a frame body through h, s's handler, and returns the job
// it admitted, which must be done.
func postFrame(t *testing.T, s *Server, h http.Handler, body []byte) *Job {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/factorize", bytes.NewReader(body))
	req.Header.Set("Content-Type", jobFrameType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var v JobView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil || rec.Code != http.StatusOK || v.Status != string(StateDone) {
		t.Fatalf("upload: status %d, body %q", rec.Code, rec.Body)
	}
	j, err := s.Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// drainSlabs empties every size class of both pools: a take at each
// class's size finds nothing there or in the doubling above.
func drainSlabs() {
	for n := 1; n < 1<<35; {
		_, size := slab.Class(n)
		for slab.Floats.Warm(size) != nil {
		}
		for slab.Bytes.Warm(size) != nil {
		}
		n = size + 1
	}
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
			drainSlabs() // the reference's tiles start zeroed
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

// Jobs of different shapes share warm storage when a take of one's tiles
// finds the slab the other's gave back: in its size class or one of the
// doubling above (slab.Pool.Warm). A clean job with fewer tiles than the
// poisoned job before it then lays its tiles in storage the poisoned job
// wrote, on one rank and on each rank of two; its scratch is its own
// array's (an R-only run keeps it, qr.Env.Part), which no job of another
// shape runs on. The clean job's R must match, bit for bit, the R a fresh
// server computes in zeroed storage.
func TestWarmTileStorageCarriesNothingAcrossShapes(t *testing.T) {
	clean := JobSpec{M: 240, N: 52, NB: 32, IB: 8, Seed: 41}
	const m, n = 352, 40
	data := matrix.NewSeeded(m, n, 42).Data
	for k, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		data[(40+130*k)+(5+15*k)*m] = v // rows 40, 170 and 300: in both ranks' halves
	}
	poisoned := JobSpec{M: m, N: n, NB: 32, IB: 8, Data: data}
	for _, ranks := range []int{1, 2} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			drainSlabs() // the reference's tiles start zeroed
			ref := warmServer(t, ranks)
			want := runJob(t, ref, clean).Result().R
			for rank := range ranks {
				pc, ptiles := slabOf(t, ref, poisoned, ranks, rank)
				cc, ctiles := slabOf(t, ref, clean, ranks, rank)
				if pc < cc || pc > cc+8 || ctiles >= ptiles {
					t.Fatalf("rank %d: slab classes %d and %d, tiles %d and %d: the clean job's tiles do not lie on the poisoned job's",
						rank, pc, cc, ctiles, ptiles)
				}
			}

			s := warmServer(t, ranks)
			if res := runJob(t, s, poisoned).Result(); res.OK {
				t.Fatalf("a job over NaN and ±Inf read ok, residual %g", res.Residual)
			}
			sameBits(t, "R after a poisoned job of another shape against a fresh server's", runJob(t, s, clean).Result().R, want)
		})
	}
}

// slabOf returns the size class of the slab rank of ranks takes for spec on
// s, as s plans it, and how many float64s of tiles it holds.
func slabOf(t *testing.T, s *Server, spec JobSpec, ranks, rank int) (class, tiles int) {
	t.Helper()
	tiles = slabNeed(t, s, spec, ranks, rank)
	class, _ = slab.Class(tiles)
	return class, tiles
}

// slabNeed returns how many float64s the slab rank of ranks takes for spec
// on s holds: its tiles.
func slabNeed(t *testing.T, s *Server, spec JobSpec, ranks, rank int) int {
	t.Helper()
	spec = s.planJob(&Job{Spec: spec})
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := spec.ownedRows(opts.NB, ranks, rank)
	return (r1 - r0) * spec.N
}

// One warm store serves every subsystem: a slab one gives back is what the
// next takes, and it carries nothing into it. On drained pools, a stream
// leaf a carry chain merged away, and then a session append block, each
// leave a slab that the next job's tiles must be laid in; a job frame's
// buffer is left for the frames of a job on a two-rank fleet. Each slab is
// filled with NaN (bytes with 0xA5) once it is back in the pool, and every
// job's R must match, bit for bit, the R a cold server computes on drained
// pools. The collector is held off, so no slab ages out of the pool.
func TestWarmStorageCrossesSubsystems(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	spec := JobSpec{M: 256, N: 64, NB: 32, IB: 8, Seed: 41}
	drainSlabs()
	want := runJob(t, warmServer(t, 1), spec).Result().R
	drainSlabs()
	wantFleet := runJob(t, warmServer(t, 2), spec).Result().R

	s := warmServer(t, 1)
	need := slabNeed(t, s, spec, 1, 0)
	// poisoned runs a job on s over the one slab a take of need finds, which
	// left must have left: it is poisoned first, and the job must lay its
	// tiles in it (the first is seeded, so no longer NaN) and give it back.
	poisoned := func(left string, at *float64) {
		t.Helper()
		p := slab.Floats.Warm(need)
		if p == nil || at != nil && &p[0] != at {
			t.Fatalf("a take of %d float64s does not find the slab %s left", need, left)
		}
		p = p[:cap(p)]
		for i := range p {
			p[i] = math.NaN()
		}
		slab.Floats.Put(p)
		sameBits(t, "R of a job laid in the slab "+left+" left", runJob(t, s, spec).Result().R, want)
		if back := slab.Floats.Warm(need); back == nil || &back[0] != &p[0] || math.IsNaN(back[0]) {
			t.Fatalf("the job did not lay its tiles in the slab %s left", left)
		}
	}

	// A leaf of width w is laid in a slab of w² float64s, which a take of
	// need finds: w² is need or up to a doubling above it.
	drainSlabs()
	w := int(math.Ceil(math.Sqrt(float64(need))))
	str, err := qr.NewStreamer(w, 0, qr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ws := kernels.NewWorkspace()
	var merged *float64
	for i := range 2 {
		nd, err := str.LeafReduce(ws, matrix.NewSeeded(w, w, int64(i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		merged = &nd.R.Data[0]
		str.Commit(ws, nd) // the second leaf merges into the first
	}
	poisoned("a merged-away stream leaf", merged)

	// One block of need/64 rows of a 64-column session is a slab of at least
	// need float64s, which goes back once its leaf is reduced; the leaf, of
	// 64² float64s, stays on the spine.
	drainSlabs()
	pool := pulsar.NewPool(1, func(int) any { return kernels.NewWorkspace() })
	defer pool.Close()
	tbl, err := session.NewTable(session.Config{Pool: pool, IdleTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	sess, err := tbl.Open("t", 64, 0, qr.Options{}, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := session.WriteAppendHeader(&body, 1); err != nil {
		t.Fatal(err)
	}
	body.Write(session.AppendBlock(nil, matrix.NewSeeded((need+63)/64, 64, 3), nil))
	ar, err := session.NewAppendReader(&body, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.AppendFrom(context.Background(), ar, func(int64, int64, *qr.StreamNode) error { return nil }); err != nil {
		t.Fatal(err)
	}
	poisoned("a session append block", nil)

	// A job frame of a 32×32 matrix is written from one buffer of about
	// 8 KiB, the size of the tile packets the fleet's ranks exchange.
	fleet := warmServer(t, 2)
	drainSlabs()
	if err := writeJobFrame(io.Discard, []byte("{}"), matrix.NewSeeded(32, 32, 4)); err != nil {
		t.Fatal(err)
	}
	const frameBuf = 8 + 2 + 8 + 8*32*32 + 16
	b := slab.Bytes.Warm(frameBuf)
	if b == nil {
		t.Fatal("the job frame's buffer is not in the byte pool")
	}
	b = b[:cap(b)]
	for i := range b {
		b[i] = 0xA5
	}
	slab.Bytes.Put(b)
	sameBits(t, "R of a fleet job after a job frame's buffer", runJob(t, fleet, spec).Result().R, wantFleet)
	var held [][]byte
	for p := slab.Bytes.Warm(frameBuf / 2); p != nil; p = slab.Bytes.Warm(frameBuf / 2) {
		held = append(held, p)
	}
	reused := false
	for _, p := range held {
		if &p[0] == &b[0] {
			reused = bytes.Count(p[:cap(p)], []byte{0xA5}) < cap(p)
		}
		slab.Bytes.Put(p)
	}
	if !reused {
		t.Fatal("no frame of the fleet job took the job frame's buffer")
	}
}

// Uploads decoded over HTTP are warm storage too (decodeSubmit): a slab one
// upload was decoded into is the next one's, or a rank's tiles. On one warm
// server, alone and on a fleet, a clean upload after an upload holding NaN
// and ±Inf, and again after a frame cut off mid-payload, must produce, bit
// for bit, the R a fresh server computes from the caller's own slice. That
// reference goes through Server.Submit, whose caller keeps its Data: the
// server must never pool it, so the slice must read as it was after its job
// and after three uploads of its shape that would overwrite a pooled slab.
func TestWarmUploadStorageCarriesNothingIntoNextJob(t *testing.T) {
	const m, n = 256, 64
	spec := JobSpec{M: m, N: n, NB: 32, IB: 8}
	src := matrix.NewSeeded(m, n, 42)
	clean := uploadFrame(t, spec, src)
	bad := matrix.NewSeeded(m, n, 43)
	for k, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad.Data[(40+100*k)+(5+20*k)*m] = v // rows 40, 140 and 240: in both ranks' halves
	}
	poisoned := uploadFrame(t, spec, bad)
	cut := clean[:len(clean)/2]
	for _, ranks := range []int{1, 2} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			drainSlabs() // the reference's tiles start zeroed
			caller := spec
			caller.Data = slices.Clone(src.Data)
			want := runJob(t, warmServer(t, ranks), caller).Result().R

			s := warmServer(t, ranks)
			h := s.Handler()
			if res := postFrame(t, s, h, poisoned).Result(); res.OK {
				t.Fatalf("an upload of NaN and ±Inf read ok, residual %g", res.Residual)
			}
			sameBits(t, "R after a poisoned upload against a fresh server's", postFrame(t, s, h, clean).Result().R, want)

			req := httptest.NewRequest("POST", "/v1/factorize", bytes.NewReader(cut))
			req.Header.Set("Content-Type", jobFrameType)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("a frame cut off mid-payload: status %d, body %q", rec.Code, rec.Body)
			}
			sameBits(t, "R after a cut-off upload against a fresh server's", postFrame(t, s, h, clean).Result().R, want)

			mine := matrix.NewSeeded(m, n, 44)
			kept := slices.Clone(mine.Data)
			caller.Data = mine.Data
			if res := runJob(t, s, caller).Result(); !res.OK {
				t.Fatalf("library job: residual %g", res.Residual)
			}
			sameBits(t, "a library caller's Data after its job", mine, matrix.FromColMajor(m, n, m, kept))
			for range 3 {
				postFrame(t, s, h, clean)
			}
			sameBits(t, "a library caller's Data after three uploads", mine, matrix.FromColMajor(m, n, m, kept))
		})
	}
}

// A job on a warm server allocates little beside its input: its tiles reuse
// the storage of the job before, and its array — VDPs, channels and scratch:
// T factors, R packets, landings, the diagonal tiles R is assembled in — is
// the job before's, re-armed (an R-only run keeps it, qr.Env.Part). 8192×128
// is one tile column at the default tile, so what the run still allocates —
// packets, and R until an evicted job gives its slab back — is small beside
// the 8 MiB input.
// Alone, the job's TotalAlloc delta must be below a sixteenth of its input
// bytes (a job that allocated its tiles reads above one, one that allocated
// its scratch about a tenth). An upload of the same matrix POSTed as a job
// frame through the handler decodes into warm storage (a decode that grew
// its own slice reads about two) and must be below a thirtieth: it read
// 0.022 with its array re-armed, 0.033 with its array built per job.
// MemStats cannot tell an agent's allocations from the server's in one
// process, so the fleet's delta holds both ranks and the transport, and must
// be below a twenty-sixth: the frames both ranks send and receive are warm,
// the packets a rank receives land in its array's scratch, and both ranks
// re-arm their arrays (it read 0.025, and 0.048 with arrays built per job; a
// packet decoded fresh instead of landing adds about 0.016). 2048×256, two
// tile columns, has more packets for its input, and must be below a quarter.
// Jobs of two shapes alternating on one rank keep a slab and an array each:
// each shape is held to a quarter of its own input. A client that fetches R
// as a job frame decodes it into warm storage too: a warm Client.Job(id,
// true) allocates at most 1.25 times the bytes of the JobView.R it fills,
// server side and HTTP included.
//
// The bound is on the least delta of eight calls, which a collection or the
// runtime's own bookkeeping landing inside one call cannot inflate. Not
// parallel: MemStats is process-wide.
func TestSteadyStateJobAllocatesNoInput(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates beside every access; alloc counts are meaningless")
	}
	tall := JobSpec{M: 8192, N: 128, Seed: 5}
	frame := uploadFrame(t, JobSpec{M: tall.M, N: tall.N}, matrix.NewSeeded(tall.M, tall.N, tall.Seed))
	for _, tc := range []struct {
		name   string
		ranks  int
		upload bool
		specs  []JobSpec // run in turn
		div    uint64    // each spec's bound is its input bytes / div
	}{
		{"ranks=1", 1, false, []JobSpec{tall}, 16},
		{"ranks=2", 2, false, []JobSpec{tall}, 26},
		{"upload", 1, true, []JobSpec{tall}, 30},
		{"2048x256", 1, false, []JobSpec{{M: 2048, N: 256, Seed: 6}}, 4},
		{"mixed", 1, false, []JobSpec{tall, {M: 4096, N: 64, Seed: 7}}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := warmServer(t, tc.ranks)
			h := s.Handler()
			alloc := func(spec JobSpec) uint64 {
				var before, after runtime.MemStats
				var j *Job
				runtime.ReadMemStats(&before)
				if tc.upload {
					j = postFrame(t, s, h, frame)
				} else {
					j = runJob(t, s, spec)
				}
				runtime.ReadMemStats(&after)
				if !j.Result().OK {
					t.Fatalf("job %d: residual %g", j.ID, j.Result().Residual)
				}
				return after.TotalAlloc - before.TotalAlloc
			}
			least := make([]uint64, len(tc.specs))
			for round := range 10 {
				for k, spec := range tc.specs {
					a := alloc(spec)
					switch {
					case round < 2: // warm the workers' workspaces and the slabs
					case round == 2:
						least[k] = a
					default:
						least[k] = min(least[k], a)
					}
				}
			}
			for k, spec := range tc.specs {
				input := uint64(8 * spec.M * spec.N)
				t.Logf("%dx%d: a warm job allocates %d bytes, %.3f of its input", spec.M, spec.N, least[k], float64(least[k])/float64(input))
				if least[k] >= input/tc.div {
					t.Errorf("%dx%d: a warm job allocates %d bytes, want under %d (its input is %d)", spec.M, spec.N, least[k], input/tc.div, input)
				}
			}
		})
	}
	t.Run("client R", func(t *testing.T) {
		s := warmServer(t, 1)
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		const n = 256
		j := runJob(t, s, JobSpec{M: 2048, N: n, Seed: 6})
		c := &Client{Base: ts.URL}
		var least uint64
		for round := range 10 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			v, err := c.Job(j.ID, true)
			runtime.ReadMemStats(&after)
			if err != nil || len(v.R) != n {
				t.Fatalf("fetch R: %d rows, %v", len(v.R), err)
			}
			switch a := after.TotalAlloc - before.TotalAlloc; {
			case round < 2: // warm the connection and the slab
			case round == 2:
				least = a
			default:
				least = min(least, a)
			}
		}
		r := uint64(8 * n * n)
		t.Logf("a warm fetch of a %dx%d R allocates %d bytes, %.3f of its JobView.R", n, n, least, float64(least)/float64(r))
		if least > r+r/4 {
			t.Errorf("a warm fetch of a %dx%d R allocates %d bytes, want at most %d (its JobView.R holds %d)", n, n, least, r+r/4, r)
		}
	})
}

// A retained R lies in warm storage, which the job's eviction gives back,
// and no response ever reads it after a later job has taken it. On a server
// that keeps one finished job (ResultCap 1), JSON and job-frame fetches of a
// finished job race the jobs after it: the first evicts it, the later ones
// lay their R in the slabs evicted jobs gave back. Every R served must be
// that job's, bit for bit, or the fetch must read 404. A frame fetch whose
// client stalls after the first 64 KiB reads the rest of R after all those
// jobs, and must serve it whole. Then a job evicted with no fetch reading
// it must have put its R's slab back in slab.Floats, and its Result must
// read no R. The collector is held off, so no slab ages out of the pool.
func TestEvictionNeverServesReusedSlab(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s, err := NewServer(Config{Threads: 2, ResultCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	const n = 128 // R is 128 KiB: a frame of it is written in two pieces
	spec := func(seed int64) JobSpec { return JobSpec{M: 256, N: n, NB: 32, IB: 8, Seed: seed} }
	old := runJob(t, s, spec(1))
	want := old.Result().R.Clone()
	get := func(frame bool) *http.Request {
		req := httptest.NewRequest("GET", fmt.Sprintf("/v1/jobs/%d?include=r", old.ID), nil)
		if frame {
			req.Header.Set("Accept", jobFrameType)
		}
		return req
	}
	// served decodes what a fetch served: R, or nil with the status of a
	// fetch that served none.
	served := func(frame bool, rec *httptest.ResponseRecorder) (*matrix.Mat, error) {
		if rec.Code != http.StatusOK {
			return nil, nil
		}
		if frame {
			return readJobFrame(rec.Body, false, func([]byte, int, int) error { return nil })
		}
		var v JobView
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			return nil, err
		}
		r := matrix.New(len(v.R), len(v.R))
		for i, row := range v.R {
			for j, x := range row {
				r.Set(i, j, x)
			}
		}
		return r, nil
	}
	check := func(what string, r *matrix.Mat) bool {
		for j := 0; j < want.Cols; j++ {
			for i := 0; i < want.Rows; i++ {
				if math.Float64bits(r.At(i, j)) != math.Float64bits(want.At(i, j)) {
					t.Errorf("%s: R(%d,%d) is %g, the job's is %g", what, i, j, r.At(i, j), want.At(i, j))
					return false
				}
			}
		}
		return true
	}

	stalled := &stallingRecorder{ResponseRecorder: httptest.NewRecorder(), stalled: make(chan struct{}), resume: make(chan struct{})}
	stalledDone := make(chan struct{})
	go func() {
		defer close(stalledDone)
		h.ServeHTTP(stalled, get(true))
	}()
	<-stalled.stalled

	var fetched, gone atomic.Int64
	var wg sync.WaitGroup
	for k := range 4 {
		wg.Add(1)
		go func(frame bool) {
			defer wg.Done()
			for {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, get(frame))
				r, err := served(frame, rec)
				switch {
				case err != nil:
					t.Errorf("fetch (frame %v): %v", frame, err)
					return
				case rec.Code == http.StatusNotFound:
					gone.Add(1)
					return
				case rec.Code != http.StatusOK:
					t.Errorf("fetch (frame %v): status %d", frame, rec.Code)
					return
				}
				if !check(fmt.Sprintf("fetch (frame %v)", frame), r) {
					return
				}
				fetched.Add(1)
			}
		}(k%2 == 1)
	}
	for seed := range int64(4) {
		runJob(t, s, spec(10+seed))
	}
	wg.Wait()
	if gone.Load() != 4 {
		t.Fatalf("%d of 4 fetchers saw the evicted job go", gone.Load())
	}
	t.Logf("%d fetches served the job's R before it went", fetched.Load())
	close(stalled.resume)
	<-stalledDone
	if r, err := served(true, stalled.ResponseRecorder); err != nil || r == nil {
		t.Fatalf("the stalled fetch: status %d, %v", stalled.Code, err)
	} else {
		check("the stalled fetch, finished after four later jobs", r)
	}

	last := runJob(t, s, spec(20))
	at := &last.Result().R.Data[0]
	runJob(t, s, spec(21)) // evicts last
	if last.Result().R != nil || old.Result().R != nil {
		t.Fatal("an evicted job's Result still reads an R")
	}
	back := false
	var held [][]float64
	for p := slab.Floats.Warm(n * n); p != nil; p = slab.Floats.Warm(n * n) {
		back = back || &p[0] == at
		held = append(held, p)
	}
	for _, p := range held {
		slab.Floats.Put(p)
	}
	if !back {
		t.Fatal("an evicted job's R is not back in slab.Floats")
	}
}

// stallingRecorder is a client that reads the first piece of a response and
// then stalls until resume closes.
type stallingRecorder struct {
	*httptest.ResponseRecorder
	stalled, resume chan struct{}
	writes          int
}

func (s *stallingRecorder) Write(b []byte) (int, error) {
	if s.writes++; s.writes == 2 {
		close(s.stalled)
		<-s.resume
	}
	return s.ResponseRecorder.Write(b)
}
