package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"pulsarqr/internal/qr"
)

// submitTimed runs one blocking job and returns its view plus server-side
// elapsed milliseconds.
func submitTimed(t *testing.T, c *Client, spec JobSpec) (JobView, float64) {
	t.Helper()
	v, code, err := c.Submit(spec, true)
	if err != nil || code != http.StatusOK {
		t.Fatalf("submit %dx%d: code %d err %v", spec.M, spec.N, code, err)
	}
	if v.Status != string(StateDone) || !v.OK {
		t.Fatalf("job %d: status %s ok=%v err=%q", v.ID, v.Status, v.OK, v.Error)
	}
	return v, v.ElapsedMS
}

// TestPlannerCalibrationE2E is the calibration harness the ISSUE demands: a
// real 2-process TCP fleet runs warm-up jobs until the machine model carries
// live measurements, then plans and runs a tall-skinny and a square job. The
// simulator's prediction must track the measured wall time within 3x in
// either direction, and the planned configuration must not lose to the
// hand-default end-to-end. If the DES model drifts from the real runtime,
// this test fails and CI catches the drift.
func TestPlannerCalibrationE2E(t *testing.T) {
	eps := resilientTCPMesh(t, 2)
	ag, err := NewAgent(eps[1], 2, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	agentDone := make(chan error, 1)
	go func() { agentDone <- ag.Run(context.Background()) }()

	s, err := NewServer(Config{
		Threads: 2, QueueCap: 16, MaxConcurrent: 1, Ep: eps[0], Logf: t.Logf, Obs: testObserver(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}

	// Warm-up: the machine model starts as a static LocalHost guess; real
	// fleet jobs feed the cost model and the α–β estimator until the model is
	// marked measured. Only jobs at the library tile (nb = 0) teach the cost
	// model, and the mix deliberately spans shapes — the per-flop / per-task
	// cost split is identifiable only from jobs with different flops-per-task
	// ratios, and a fit trained on one kernel mix (panel-heavy tall-skinny vs
	// update-heavy square) does not transfer to the other (system
	// identification needs the input to excite the dimensions being
	// estimated). Jobs of tens of tiles rather than a handful keep what each
	// job pays once (array build, gather) from passing for per-task cost. The
	// runs also warm the page cache out of the measured comparisons.
	warmup := []struct{ m, n int }{
		{2048, 256}, {768, 768}, {4096, 128}, {1024, 1024}, {3072, 384}, {960, 960}, {2048, 512},
	}
	for i, w := range warmup {
		submitTimed(t, c, JobSpec{M: w.m, N: w.n, Seed: 100 + int64(i)})
	}
	waitUntil(t, func() bool {
		mm, err := c.MachineModel()
		return err == nil && mm.Measured
	})
	if mm, err := c.MachineModel(); err == nil {
		t.Logf("calibrated model: %.3f Gflop/s/core, alpha=%.3gs beta=%.3gs/B ovh=%.3gs",
			mm.Machine.CoreGflops, mm.Machine.AlphaInter, mm.Machine.BetaInter, mm.Machine.TaskOverhead)
	}

	shapes := []struct {
		name string
		spec JobSpec
	}{
		{"tall-skinny", JobSpec{M: 1536, N: 192, Seed: 53}},
		{"square", JobSpec{M: 640, N: 640, Seed: 59}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			// Best-of-11 on both arms, alternating: these are 4-20 ms jobs, and
			// when the planner keeps the default (as it does on a 2-vCPU host)
			// the two arms time one configuration against itself — the minima
			// of two such timings differed by more than the 25% below in one
			// comparison of eight, those of five in one of forty, and in one of
			// six with other packages' tests running beside this one. The
			// server shares this process, so each job starts on a collected
			// heap with room to finish without another collection: otherwise
			// whichever arm a collection lands in is the slower one, and the
			// planned arm allocates more before its job starts.
			defer debug.SetGCPercent(debug.SetGCPercent(400))
			defMS, planMS := 1e18, 1e18
			var planned JobView
			for i := int64(0); i < 11; i++ {
				spec := sh.spec
				spec.Seed += 10 * i
				runtime.GC()
				if _, ms := submitTimed(t, c, spec); ms < defMS {
					defMS = ms
				}
				spec.Autotune = true
				spec.Seed += 5
				runtime.GC()
				v, ms := submitTimed(t, c, spec)
				if ms < planMS {
					planMS = ms
					planned = v
				}
			}
			if planned.Plan == nil {
				t.Fatal("autotuned job carries no plan block")
			}
			if planned.Plan.PredictedMS <= 0 {
				t.Fatalf("plan predicted %.3f ms, want > 0", planned.Plan.PredictedMS)
			}

			// Calibration: predicted within 3x of measured, both directions.
			ratio := planMS / planned.Plan.PredictedMS
			t.Logf("%s: default %.1f ms, planned %.1f ms (%s), predicted %.1f ms, actual/predicted %.2f",
				sh.name, defMS, planMS, planned.Plan.Tree, planned.Plan.PredictedMS, ratio)
			if ratio > 3 || ratio < 1.0/3 {
				t.Errorf("calibration drift: measured %.1f ms vs predicted %.1f ms (ratio %.2f, want within 3x)",
					planMS, planned.Plan.PredictedMS, ratio)
			}

			// The planned configuration must not lose to the default
			// end-to-end; 25% headroom absorbs scheduler noise.
			if planMS > defMS*1.25 {
				t.Errorf("planned config measurably slower: %.1f ms vs default %.1f ms", planMS, defMS)
			}
		})
	}

	// The decisions and their outcomes must be visible on the surfaces the
	// ISSUE names: /v1/status's planner block and the plan metrics.
	body := httpGet(t, ts.URL+"/v1/status")
	for _, want := range []string{`"planner"`, `"plans"`, `"last_predicted_ms"`} {
		if !strings.Contains(body, want) {
			t.Errorf("/v1/status missing %s: %s", want, body)
		}
	}
	metrics := httpGet(t, ts.URL+"/metrics")
	for _, want := range []string{
		`qrserve_plan_total{source="computed"}`,
		"qrserve_plan_seconds_bucket",
		"qrserve_plan_actual_over_predicted_bucket",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	s.Close()
	select {
	case <-agentDone:
	case <-time.After(10 * time.Second):
		t.Fatal("agent did not shut down")
	}
}

// A client cannot buy kernel time: jobs at odd tiles, a default-tile job and
// a dry-run plan leave the served model with exactly one measured rate, at
// the library tile, and only the default-tile job teaches the cost model.
func TestClientCannotBuyKernelTime(t *testing.T) {
	s, err := NewServer(Config{Threads: 2, QueueCap: 4, MaxConcurrent: 1, Obs: testObserver()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}

	for i, tile := range [][2]int{{64, 16}, {96, 24}, {0, 0}} {
		submitTimed(t, c, JobSpec{M: 512, N: 64, NB: tile[0], IB: tile[1], Seed: 70 + int64(i)})
	}
	if _, err := c.Plan(JobSpec{M: 2048, N: 256}); err != nil {
		t.Fatal(err)
	}
	// One dispatcher runs the jobs in order and hands each to the cost model
	// before taking the next, so once the last job's sample is in, every
	// sample any of them was going to give is in or in flight.
	waitUntil(t, func() bool { return s.costs.samples() > 0 })
	s.bg.Wait()
	if n := s.costs.samples(); n != 1 {
		t.Errorf("cost model holds %d samples, want 1 (the default-tile job's)", n)
	}

	mm, err := c.MachineModel()
	if err != nil {
		t.Fatal(err)
	}
	def := qr.DefaultOptions()
	if rates := mm.Machine.Rates; len(rates) != 1 || rates[0].NB != def.NB || rates[0].IB != def.IB {
		t.Fatalf("machine model lists rates %+v, want one at the library tile %d/%d", rates, def.NB, def.IB)
	}
}

// POST /v1/plan is a pure dry run: it must return a decision consistent with
// the planner's invariant (never slower than default), echo the machine model
// it used, and leave no job behind.
func TestPlanEndpointDryRun(t *testing.T) {
	s, err := NewServer(Config{Threads: 2, QueueCap: 4, MaxConcurrent: 1, Obs: testObserver()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}

	pr, err := c.Plan(JobSpec{M: 2048, N: 256})
	if err != nil {
		t.Fatal(err)
	}
	d := pr.Decision
	if d.Simulated == 0 {
		t.Fatalf("dry run simulated nothing: %+v", d)
	}
	if d.Choice.PredictedMS > d.Default.PredictedMS*(1+1e-9) {
		t.Errorf("dry-run choice %.3f ms slower than default %.3f ms", d.Choice.PredictedMS, d.Default.PredictedMS)
	}
	if pr.Machine.Nodes < 1 || pr.Machine.CoreGflops <= 0 {
		t.Errorf("dry run echoed a broken machine: %+v", pr.Machine)
	}
	if d.Rationale == "" {
		t.Error("dry run missing rationale")
	}

	// A replan of the same shape at the same epoch must hit the cache.
	pr2, err := c.Plan(JobSpec{M: 2048, N: 256})
	if err != nil {
		t.Fatal(err)
	}
	if !pr2.Decision.FromCache {
		t.Error("identical dry-run replan missed the plan cache")
	}

	// Bad shapes are a client error, not a planner crash.
	if _, err := c.Plan(JobSpec{M: 64, N: 128}); err == nil {
		t.Error("wide shape accepted by /v1/plan")
	}

	// Dry runs admit no jobs.
	if got := s.metrics.Accepted.Load(); got != 0 {
		t.Errorf("dry runs admitted %d jobs", got)
	}
}
