package service

import (
	"context"
	"math"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/transport"
)

// oracleR factors the spec's matrix with the sequential reference, at the
// configuration s runs it with (planJob: an omitted h is one domain per
// worker of s's live fleet), and returns R for comparison.
func oracleR(t *testing.T, s *Server, spec JobSpec) *matrix.Mat {
	t.Helper()
	run := s.planJob(&Job{Spec: spec})
	opts, err := run.Options()
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := spec.BuildInputs()
	if err != nil {
		t.Fatal(err)
	}
	f, err := qr.Factorize(a, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	return f.R()
}

func checkResultR(t *testing.T, label string, got, want *matrix.Mat) {
	t.Helper()
	if got == nil || got.Rows != want.Rows || got.Cols != want.Cols {
		t.Errorf("%s: R is %v, want %dx%d", label, got, want.Rows, want.Cols)
		return
	}
	for i := 0; i < want.Rows; i++ {
		for c := 0; c < want.Cols; c++ {
			if d := math.Abs(got.At(i, c) - want.At(i, c)); d > 1e-12 {
				t.Errorf("%s: R[%d,%d] differs from oracle by %g", label, i, c, d)
				return
			}
		}
	}
}

// rowsMat is the matrix a view's JSON rows spell, the inverse of rRows.
func rowsMat(t *testing.T, rows [][]float64) *matrix.Mat {
	t.Helper()
	m := matrix.New(len(rows), len(rows))
	for i, row := range rows {
		if len(row) != m.Cols {
			t.Fatalf("R row %d has %d entries, want %d", i, len(row), m.Cols)
		}
		for c, x := range row {
			m.Set(i, c, x)
		}
	}
	return m
}

// The headline requirement: one server sustains at least 8 concurrent jobs
// with distinct shapes and trees, every result matching the sequential
// oracle, with correct terminal accounting.
func TestServerConcurrentJobsOracle(t *testing.T) {
	s, err := NewServer(Config{Threads: 4, QueueCap: 16, MaxConcurrent: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	specs := []JobSpec{
		{M: 128, N: 64, NB: 32, IB: 8, Tree: "hierarchical", H: 2, Seed: 1},
		{M: 192, N: 96, NB: 32, IB: 8, Tree: "flat", Seed: 2},
		{M: 160, N: 64, NB: 32, IB: 8, Tree: "binary", Seed: 3},
		{M: 96, N: 96, NB: 32, IB: 8, Tree: "hierarchical", H: 2, Seed: 4},
		{M: 256, N: 64, NB: 64, IB: 16, Tree: "flat", Seed: 5},
		{M: 128, N: 32, NB: 32, IB: 8, Tree: "binary", Seed: 6},
		{M: 224, N: 96, NB: 32, IB: 8, Tree: "hierarchical", H: 2, Seed: 7},
		{M: 160, N: 160, NB: 32, IB: 8, Tree: "flat", Seed: 8},
	}
	jobs := make([]*Job, len(specs))
	for i, sp := range specs {
		j, err := s.Submit(sp)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs[i] = j
	}
	for i, j := range jobs {
		select {
		case <-j.Done():
		case <-time.After(120 * time.Second):
			t.Fatalf("job %d did not finish", i)
		}
		state, errMsg := j.State()
		if state != StateDone {
			t.Fatalf("job %d state = %s (%s)", i, state, errMsg)
		}
		res := j.Result()
		if !res.OK {
			t.Errorf("job %d residual %g above tolerance", i, res.Residual)
		}
		checkResultR(t, j.Spec.Tree, res.R, oracleR(t, s, specs[i]))
	}
	if got := s.metrics.Completed.Load(); got != int64(len(specs)) {
		t.Errorf("completed = %d, want %d", got, len(specs))
	}
	if got := s.metrics.Running.Load(); got != 0 {
		t.Errorf("running gauge = %d after drain", got)
	}
}

// An uploaded matrix (Data) round-trips through admission and matches its
// oracle.
func TestServerUploadedMatrix(t *testing.T) {
	s, err := NewServer(Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(11))
	d := matrix.NewRand(96, 64, rng)
	spec := JobSpec{M: 96, N: 64, NB: 32, IB: 8, Data: append([]float64(nil), d.Data...)}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if state, msg := j.State(); state != StateDone {
		t.Fatalf("state = %s (%s)", state, msg)
	}
	checkResultR(t, "upload", j.Result().R, oracleR(t, s, spec))
}

// Full HTTP round-trip: submit-and-wait, fetch with R, reject invalid
// specs, 404 unknown ids, metrics exposition.
func TestServerHTTP(t *testing.T) {
	s, err := NewServer(Config{Threads: 2, QueueCap: 8, MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}

	if err := c.Health(); err != nil {
		t.Fatalf("health: %v", err)
	}
	spec := JobSpec{M: 128, N: 64, NB: 32, IB: 8, Seed: 21}
	v, code, err := c.Submit(spec, true)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if code != 200 || v.Status != string(StateDone) || !v.OK {
		t.Fatalf("submit-and-wait: code %d status %s ok %v", code, v.Status, v.OK)
	}
	got, err := c.Job(v.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	checkResultR(t, "http", rowsMat(t, got.R), oracleR(t, s, spec))

	if _, code, err := c.Submit(JobSpec{M: 10, N: 20}, false); err == nil || code != 400 {
		t.Errorf("wide matrix accepted (code %d, err %v)", code, err)
	}
	if _, err := c.Job(99999, false); err == nil {
		t.Error("unknown job id did not 404")
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"qrserve_jobs_accepted_total",
		"qrserve_jobs_completed_total 1",
		"qrserve_queue_depth",
		"qrserve_job_latency_seconds_count 1",
		"qrserve_vdp_firings_total{class=\"panel\"}",
		"qrserve_gflops",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// HTTP backpressure: with the queue full the service answers 429 and the
// rejection is counted; accepted work still completes afterwards.
func TestServerHTTPBackpressure(t *testing.T) {
	s, err := NewServer(Config{Threads: 1, QueueCap: 1, MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}

	// One large job occupies the single runner; one sits in the queue.
	big := JobSpec{M: 768, N: 384, NB: 32, IB: 8, Seed: 31}
	first, _, err := c.Submit(big, false)
	if err != nil {
		t.Fatal(err)
	}
	var queued JobView
	deadline := time.Now().Add(10 * time.Second)
	for {
		// Fill the queue: keep submitting until one lands in it (the first
		// job may not have been dispatched yet).
		v, code, err := c.Submit(JobSpec{M: 96, N: 64, NB: 32, IB: 8, Seed: 32}, false)
		if err == nil && code == 202 {
			if s.mgr.Depth() >= 1 {
				queued = v
				break
			}
			continue
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
	}
	v, code, err := c.Submit(JobSpec{M: 96, N: 64, NB: 32, IB: 8, Seed: 33}, false)
	if err == nil || code != 429 {
		t.Fatalf("submit beyond capacity: code %d err %v view %+v", code, err, v)
	}
	if got := s.metrics.RejectedFull.Load(); got < 1 {
		t.Errorf("rejected_full = %d, want >= 1", got)
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, `qrserve_jobs_rejected_total{reason="queue_full"}`) {
		t.Error("metrics missing queue_full rejection counter")
	}
	// Drain: everything admitted still completes.
	for _, id := range []uint32{first.ID, queued.ID} {
		j, err := s.Get(id)
		if err != nil {
			t.Fatalf("job %d: %v", id, err)
		}
		select {
		case <-j.Done():
		case <-time.After(120 * time.Second):
			t.Fatalf("job %d did not finish", id)
		}
	}
}

// Cancel a running job over HTTP: terminal state canceled, counters agree,
// and the service takes new work afterwards.
func TestServerCancelRunning(t *testing.T) {
	s, err := NewServer(Config{Threads: 1, QueueCap: 4, MaxConcurrent: 1, DeadlockTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j, err := s.Submit(JobSpec{M: 1024, N: 512, NB: 32, IB: 8, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	j.Cancel()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("canceled job did not reach a terminal state")
	}
	if state, _ := j.State(); state != StateCanceled {
		t.Fatalf("state = %s, want canceled", state)
	}
	if got := s.metrics.Canceled.Load(); got != 1 {
		t.Errorf("canceled = %d, want 1", got)
	}
	j2, err := s.Submit(JobSpec{M: 96, N: 64, NB: 32, IB: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	<-j2.Done()
	if state, msg := j2.State(); state != StateDone {
		t.Fatalf("post-cancel job state = %s (%s)", state, msg)
	}
}

// Fleet mode: a server on rank 0 and an agent on rank 1 share a 2-rank
// in-process mesh; concurrent jobs multiplex over it and match the oracle.
func TestServerFleet(t *testing.T) {
	l := transport.NewLocal(2)
	agent, err := NewAgent(l.Endpoint(1), 2, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	agentDone := make(chan error, 1)
	go func() { agentDone <- agent.Run(context.Background()) }()

	s, err := NewServer(Config{Threads: 2, QueueCap: 8, MaxConcurrent: 4, Ep: l.Endpoint(0), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	specs := []JobSpec{
		{M: 160, N: 64, NB: 32, IB: 8, Tree: "hierarchical", H: 2, Seed: 51},
		{M: 128, N: 96, NB: 32, IB: 8, Tree: "flat", Seed: 52},
		{M: 192, N: 64, NB: 32, IB: 8, Tree: "binary", Seed: 53},
		{M: 96, N: 64, NB: 32, IB: 8, Seed: 54, Data: []float64{}}, // `"data":[]` is seeded: no agent waits for rows
	}
	var jobs []*Job
	for i, sp := range specs {
		j, err := s.Submit(sp)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	for i, j := range jobs {
		select {
		case <-j.Done():
		case <-time.After(120 * time.Second):
			t.Fatalf("fleet job %d did not finish", i)
		}
		state, msg := j.State()
		if state != StateDone {
			t.Fatalf("fleet job %d state = %s (%s)", i, state, msg)
		}
		if !j.Result().OK {
			t.Errorf("fleet job %d residual %g", i, j.Result().Residual)
		}
		checkResultR(t, "fleet", j.Result().R, oracleR(t, s, specs[i]))
	}
	s.Close()
	select {
	case err := <-agentDone:
		if err != nil {
			t.Errorf("agent exited with %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("agent did not exit after shutdown broadcast")
	}
	agent.Close()
}

// Canceling fleet jobs must not wedge dispatcher workers or the agent:
// when ranks observe the cancel at different times, a rank whose share
// already finished sits in the collective post-run barrier that its
// aborting peers never enter, and only failing the job's session releases
// it. Cancel as many running jobs as there are dispatcher workers, then
// prove every worker is free again (a fresh job completes) and that the
// agent still drains and shuts down. The deadlock watchdog is disabled so
// a wedged barrier hangs the test instead of being silently rescued.
func TestServerFleetCancelReleasesWorkers(t *testing.T) {
	l := transport.NewLocal(2)
	agent, err := NewAgent(l.Endpoint(1), 2, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	agentDone := make(chan error, 1)
	go func() { agentDone <- agent.Run(context.Background()) }()

	const workers = 2
	s, err := NewServer(Config{Threads: 2, QueueCap: 8, MaxConcurrent: workers,
		Ep: l.Endpoint(0), DeadlockTimeout: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < workers; i++ {
		// Big enough (~0.8 s across this fleet) that the cancels below always
		// find the job running: a 1024-row job can finish inside 150 ms.
		j, err := s.Submit(JobSpec{M: 4096, N: 512, NB: 32, IB: 8, Seed: int64(70 + i)})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		// Stagger the cancels so they land at different points of the run
		// (including mid-flight, after dispatch).
		time.Sleep(time.Duration(50+100*i) * time.Millisecond)
		j.Cancel()
		select {
		case <-j.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("canceled fleet job %d did not reach a terminal state", i)
		}
		if state, msg := j.State(); state != StateCanceled {
			t.Fatalf("fleet job %d state = %s (%s), want canceled", i, state, msg)
		}
	}
	// Every dispatcher worker must be back: saturate them all with fresh
	// work and require completion.
	spec := JobSpec{M: 128, N: 64, NB: 32, IB: 8, Seed: 79}
	var after []*Job
	for i := 0; i < workers; i++ {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("post-cancel submit %d: %v", i, err)
		}
		after = append(after, j)
	}
	for i, j := range after {
		select {
		case <-j.Done():
		case <-time.After(120 * time.Second):
			t.Fatalf("post-cancel job %d did not finish: a dispatcher worker is wedged", i)
		}
		if state, msg := j.State(); state != StateDone {
			t.Fatalf("post-cancel job %d state = %s (%s)", i, state, msg)
		}
		checkResultR(t, "post-cancel", j.Result().R, oracleR(t, s, spec))
	}
	s.Close()
	select {
	case err := <-agentDone:
		if err != nil {
			t.Errorf("agent exited with %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("agent did not exit after shutdown: its job WaitGroup is wedged")
	}
	agent.Close()
}

// Result eviction bounds the registry: old terminal jobs disappear.
func TestServerEviction(t *testing.T) {
	s, err := NewServer(Config{Threads: 2, QueueCap: 8, MaxConcurrent: 2, ResultCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var ids []uint32
	for i := 0; i < 4; i++ {
		j, err := s.Submit(JobSpec{M: 64, N: 32, NB: 32, IB: 8, Seed: int64(60 + i)})
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		ids = append(ids, j.ID)
	}
	if _, err := s.Get(ids[0]); err == nil {
		t.Error("oldest job survived eviction")
	}
	if _, err := s.Get(ids[3]); err != nil {
		t.Errorf("newest job evicted: %v", err)
	}
	if got := s.resident(); got > 2 {
		t.Errorf("resident = %d, want <= 2", got)
	}
}
