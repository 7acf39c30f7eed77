package main

import (
	"fmt"
	"math"
	"net/http"
	"time"

	"pulsarqr"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/obs"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/service"
	"pulsarqr/internal/trace"
)

// maxReplays bounds how many traced ops get BuildInputs and Residual
// replayed on their input: the replay of an 8192×256 job costs about as much
// as the job.
const maxReplays = 3

// jobEnv is job_upload and job_fleet: Client.Submit(wait) then
// Client.Job(id, includeR) over HTTP against an in-process server.
type jobEnv struct {
	tr    *tracer
	s     *server
	fleet bool
	seed  int64
	m, n  int
	data  []float64   // job_upload: the uploaded matrix, column-major
	ref   *matrix.Mat // job_upload: local reference R, set by oracle

	view service.JobView // the last op's job view, R included

	// What the last traced op left for collect.
	encode, submit, fetch int
	submitView            service.JobView
	replays               int
}

func newJobEnv(r rig, fleet bool) (env, error) {
	e := &jobEnv{tr: r.tr, fleet: fleet, seed: r.seed}
	poolThreads := threads
	if fleet {
		e.m, e.n = r.sz.fleetM, r.sz.fleetN
		poolThreads = threads / 2 // 2 ranks × 1 thread
	} else {
		e.m, e.n = r.sz.uploadM, r.sz.uploadN
		e.data = pulsarqr.RandomMatrix(e.m, e.n, r.seed).Data
	}
	s, err := bootServer(poolThreads, fleet, r.tr)
	if err != nil {
		return nil, err
	}
	e.s = s
	return e, nil
}

// spec is the request of op i: job_upload uploads the same matrix every
// time, job_fleet names a fresh seeded one so the op is about the fleet, not
// the upload.
func (e *jobEnv) spec(i int) service.JobSpec {
	sp := service.JobSpec{M: e.m, N: e.n, Trace: e.tr.active()}
	if e.fleet {
		sp.Seed = e.seed + int64(i)
	} else {
		sp.Data = e.data
	}
	return sp
}

func (e *jobEnv) op(i int) error {
	sp := e.tr.spans()
	if e.s.meter != nil {
		e.s.meter.calls = e.s.meter.calls[:0]
	}
	op := sp.begin("op", -1, i)
	defer sp.end(op)
	t0 := 0.0
	if sp != nil {
		t0 = sp.now()
	}

	v, code, err := e.s.cli.Submit(e.spec(i), true)
	if err != nil {
		return fmt.Errorf("submit: http %d: %w", code, err)
	}
	if code != http.StatusOK {
		return fmt.Errorf("submit: http %d, job %d is %s", code, v.ID, v.Status)
	}
	mid := 0.0
	if sp != nil {
		// The client encoded the request before the first byte left: the
		// meter saw the request start, which closes the encode span.
		mid = sp.now()
		sent := e.s.meter.calls[0].start
		e.encode = sp.add("client.encode", op, i, t0, sent, false)
		e.submit = sp.add("http.submit", op, i, sent, mid, false)
		e.submitView = v
	}

	e.view, err = e.s.cli.Job(v.ID, true)
	if err != nil {
		return fmt.Errorf("fetch R of job %d: %w", v.ID, err)
	}
	if sp != nil {
		e.fetch = sp.add("http.fetch_r", op, i, mid, sp.now(), false)
	}
	return nil
}

// verify is the light per-op check: the job is done and ok, its residual is
// inside the service's bound, R is n×n upper-triangular, and (job_upload,
// whose input never changes) R matches the local reference.
func (e *jobEnv) verify(i int) error {
	v := e.view
	if v.Status != string(service.StateDone) || !v.OK {
		return fmt.Errorf("job %d: status %s ok=%v error %q", v.ID, v.Status, v.OK, v.Error)
	}
	if !(v.Residual <= 1e-10) {
		return fmt.Errorf("job %d: residual %g exceeds 1e-10", v.ID, v.Residual)
	}
	r, err := rOf(v, e.n)
	if err != nil {
		return fmt.Errorf("job %d: %w", v.ID, err)
	}
	if e.ref != nil {
		return sameUpToRowSigns(r, e.ref)
	}
	return nil
}

// oracle runs one op and compares its R against a local sequential
// factorization of the same input.
func (e *jobEnv) oracle() error {
	if err := e.op(0); err != nil {
		return err
	}
	if err := e.verify(0); err != nil {
		return err
	}
	sp := e.spec(0)
	_, dense, err := sp.BuildInputs()
	if err != nil {
		return err
	}
	opts := pulsarqr.DefaultOptions()
	opts.Engine = pulsarqr.Sequential
	f, err := pulsarqr.Factor(dense, opts)
	if err != nil {
		return fmt.Errorf("local reference: %w", err)
	}
	ref := f.R()
	r, err := rOf(e.view, e.n)
	if err != nil {
		return err
	}
	if err := sameUpToRowSigns(r, ref); err != nil {
		return err
	}
	if !e.fleet {
		e.ref = ref
	}
	return nil
}

// rOf rebuilds R from the view's row-major rows and checks its shape.
func rOf(v service.JobView, n int) (*matrix.Mat, error) {
	if len(v.R) != n {
		return nil, fmt.Errorf("R has %d rows, want %d", len(v.R), n)
	}
	r := matrix.New(n, n)
	for i, row := range v.R {
		if len(row) != n {
			return nil, fmt.Errorf("R row %d has %d entries, want %d", i, len(row), n)
		}
		for j, x := range row {
			if j < i && x != 0 {
				return nil, fmt.Errorf("R(%d,%d) = %g below the diagonal", i, j, x)
			}
			r.Set(i, j, x)
		}
	}
	return r, nil
}

// sameUpToRowSigns reports whether r equals ref once each row of r is
// flipped to ref's sign: a QR factorization is unique only up to the signs
// of R's rows, and a distributed run need not pick the reference's.
func sameUpToRowSigns(r, ref *matrix.Mat) error {
	tol := 1e-10 * ref.MaxAbs()
	for i := 0; i < ref.Rows; i++ {
		sign := 1.0
		if r.At(i, i)*ref.At(i, i) < 0 {
			sign = -1
		}
		for j := i; j < ref.Cols; j++ {
			if d := math.Abs(sign*r.At(i, j) - ref.At(i, j)); !(d <= tol) {
				return fmt.Errorf("R(%d,%d) differs from the local reference by %g (tolerance %g)", i, j, d, tol)
			}
		}
	}
	return nil
}

// serverSpans lays the phases the server reports for a job — queue_wait,
// dispatch, run, gather: durations that telescope to submitted→terminal —
// end to end under the http.submit span, against its close: the request body
// is decoded before the job is submitted, while the reply to a waiting
// submit is a small view sent right after the terminal mark. What is left of
// http.submit before them is the span's self time, service.http_in_s. It
// returns the id of the run span.
func serverSpans(sp *spanRec, submit span, rep obs.SpanReport) (run int) {
	at := submit.End - rep.TotalMS/1e3
	for _, p := range []struct {
		name string
		ms   float64
	}{
		{"queue_wait", rep.QueueWaitMS}, {"dispatch", rep.DispatchMS}, {"run", rep.RunMS}, {"gather", rep.GatherMS},
	} {
		id := sp.add(p.name, submit.ID, submit.Op, at, at+p.ms/1e3, true)
		if p.name == "run" {
			run = id
		}
		at += p.ms / 1e3
	}
	return run
}

// runSpans lays the three activities of the server's run phase under its
// span, in the order runJob performs them; what is left of run is its self
// time, service.run_unattributed_s.
func runSpans(sp *spanRec, run span, build, factorize, verify float64) {
	at := run.Start
	for _, p := range []struct {
		name string
		dur  float64
	}{{"build_inputs", build}, {"factorize", factorize}, {"verify", verify}} {
		sp.add(p.name, run.ID, run.Op, at, at+p.dur, true)
		at += p.dur
	}
}

// collect builds the op's span tree below the client spans from the job
// view and samples the layer metrics.
func (e *jobEnv) collect(i int) error {
	t, sp := e.tr, e.tr.rec
	v := e.submitView
	if v.Spans == nil {
		return fmt.Errorf("job %d: view carries no spans", v.ID)
	}
	submit, fetch := sp.spans[e.submit], sp.spans[e.fetch]
	calls := e.s.meter.calls
	t.sample("service.req_encode_s", sp.spans[e.encode].dur())
	t.sample("service.req_json_bytes", float64(calls[0].reqBytes.Load()))
	t.sample("service.submit_s", submit.dur())
	t.sample("service.fetch_r_s", fetch.dur())
	t.sample("service.r_json_bytes", float64(calls[1].respBytes.Load()))

	run := serverSpans(sp, submit, *v.Spans)
	t.sample("service.queue_wait_s", v.Spans.QueueWaitMS/1e3)
	t.sample("service.dispatch_s", v.Spans.DispatchMS/1e3)
	t.sample("service.run_s", v.Spans.RunMS/1e3)
	t.sample("service.gather_s", v.Spans.GatherMS/1e3)
	t.sample("service.http_in_s", submit.dur()-v.Spans.TotalMS/1e3)
	factorize := v.ElapsedMS / 1e3
	t.sample("service.factorize_s", factorize)

	// BuildInputs and Residual run inside the server's run span with no
	// span of their own; replay both here on the same input.
	if e.replays < maxReplays {
		e.replays++
		build, verify, err := replayRun(e.spec(i))
		if err != nil {
			return err
		}
		t.sample("service.build_inputs_s", build)
		t.sample("service.verify_s", verify)
		t.sample("service.run_unattributed_s", v.Spans.RunMS/1e3-build-factorize-verify)
		runSpans(sp, sp.spans[run], build, factorize, verify)
	}

	t.sample("transport.job_msgs", float64(v.Messages))
	t.sample("transport.job_bytes", float64(v.Bytes))
	shards, err := e.fetchTrace(v.ID)
	if err != nil {
		return err
	}
	events, drops := trace.Merge(shards)
	if drops > 0 {
		return fmt.Errorf("job %d: trace dropped %d events", v.ID, drops)
	}
	sh := shapeOf(events)
	t.sampleRun(sh, factorize)
	t.sample("pulsar.rank_park_s", sh.idle)
	t.sample("transport.comm_recv_s", sh.recv)
	t.sample("transport.barrier_wait_s", sh.barrier)
	lo, hi := math.Inf(1), 0.0
	for _, b := range sh.rankBusy {
		lo, hi = math.Min(lo, b), math.Max(hi, b)
	}
	if lo > 0 && !math.IsInf(lo, 1) {
		t.sample("qr.rank_busy_imbalance", hi/lo)
	}
	return nil
}

// replayRun times, on this goroutine, the two unspanned activities of the
// server's run phase for spec: JobSpec.BuildInputs and
// Factorization.Residual (with the max-norm scaling runJob wraps around it).
func replayRun(spec service.JobSpec) (build, verify float64, err error) {
	t0 := time.Now()
	a, dense, err := spec.BuildInputs()
	build = time.Since(t0).Seconds()
	if err != nil {
		return 0, 0, err
	}
	opts, err := spec.Options()
	if err != nil {
		return 0, 0, err
	}
	f, err := qr.FactorizeVSA(a, nil, opts, qr.RunConfig{Nodes: 1, Threads: threads})
	if err != nil {
		return 0, 0, err
	}
	t0 = time.Now()
	norm := dense.MaxAbs()
	if norm == 0 {
		norm = 1
	}
	_ = f.Residual(dense) / norm
	verify = time.Since(t0).Seconds()
	return build, verify, nil
}

// fetchTrace reads the job's merged per-rank trace shards.
func (e *jobEnv) fetchTrace(id uint32) ([]trace.Shard, error) {
	resp, err := e.s.cli.HTTP.Get(fmt.Sprintf("%s/v1/jobs/%d/trace", e.s.cli.Base, id))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("job %d trace: http %d", id, resp.StatusCode)
	}
	return trace.ReadShards(resp.Body)
}

func (e *jobEnv) close() { e.s.close() }
