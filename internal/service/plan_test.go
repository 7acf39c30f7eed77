package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
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
	// marked measured. The mix deliberately spans tile sizes AND shapes — the
	// per-flop / per-task cost split is identifiable only from jobs with
	// different flops-per-task ratios, and a fit trained on one kernel mix
	// (panel-heavy tall-skinny vs update-heavy square) does not transfer to
	// the other (system identification needs the input to excite the
	// dimensions being estimated). The runs also warm the page cache out of
	// the measured comparisons. nb = 0 is the default tile, which is what the
	// comparisons below run against: the per-task cost is fitted from what is
	// left once the measured kernel slowdown is taken out, and jobs of a few
	// large tiles are where that remainder is smallest.
	warmup := []struct{ m, n, nb int }{
		{1024, 128, 64}, {1024, 128, 32}, {512, 512, 64}, {1024, 128, 96}, {512, 512, 128},
		{1024, 128, 0}, {768, 768, 0},
	}
	for i, w := range warmup {
		submitTimed(t, c, JobSpec{M: w.m, N: w.n, NB: w.nb, IB: w.nb / 4, Seed: 100 + int64(i)})
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
			// Best-of-5 on both arms, alternating: these are 5-9 ms jobs, and
			// when the planner keeps the default (as it does on a 2-vCPU host)
			// the two arms time one configuration against itself — the minima
			// of two such timings differed by more than the 25% below in one
			// comparison of eight, those of five in one of forty.
			defMS, planMS := 1e18, 1e18
			var planned JobView
			for i := int64(0); i < 5; i++ {
				spec := sh.spec
				spec.Seed += 10 * i
				if _, ms := submitTimed(t, c, spec); ms < defMS {
					defMS = ms
				}
				spec.Autotune = true
				spec.Seed += 5
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
