package service

import (
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"time"

	"pulsarqr/internal/kernels"
	"pulsarqr/internal/obs"
	"pulsarqr/internal/plan"
	"pulsarqr/internal/simulate"
)

// costModel fits the runtime's real cost structure online: every completed
// job contributes one sample (useful flops f, VDP firings t, core-seconds b),
// and the model solves the ridge-regularized least squares for
//
//	b ≈ secondsPerFlop·f + secondsPerTask·t
//
// Separating the two terms is what makes predictions transfer across tile
// sizes: a single achieved-rate anchor folds per-task overhead into the
// flop rate at whatever nb the measured jobs happened to use, which makes
// the simulator systematically over-reward small tiles (4x the tasks, same
// flops). The split is identifiable only when the samples vary in their
// flops-per-task ratio — jobs at different nb — so until the workload mix
// excites that dimension, the ridge anchor keeps the solution at the priors.
type costModel struct {
	mu                      sync.Mutex
	sff, sft, stt, sfb, stb float64 // normal-equation accumulators
	n                       int64
}

func (cm *costModel) add(flops, tasks, coreSeconds float64) {
	if !(flops > 0) || !(tasks > 0) || !(coreSeconds > 0) {
		return
	}
	cm.mu.Lock()
	defer cm.mu.Unlock()
	cm.sff += flops * flops
	cm.sft += flops * tasks
	cm.stt += tasks * tasks
	cm.sfb += flops * coreSeconds
	cm.stb += tasks * coreSeconds
	cm.n++
}

func (cm *costModel) samples() int64 {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return cm.n
}

// solve returns the fitted (secondsPerFlop, secondsPerTask). The ridge terms
// are scaled to the diagonal so they are unit-free: with collinear samples
// (every job at one nb) the fit degrades gracefully toward the priors
// instead of exploding along the unidentifiable direction.
func (cm *costModel) solve(priorSPF, priorSPT float64) (spf, spt float64, ok bool) {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	if cm.n < 2 {
		return 0, 0, false
	}
	l1 := 1e-3 * cm.sff
	l2 := 1e-3 * cm.stt
	a11 := cm.sff + l1
	a22 := cm.stt + l2
	b1 := cm.sfb + l1*priorSPF
	b2 := cm.stb + l2*priorSPT
	det := a11*a22 - cm.sft*cm.sft
	if !(det > 0) {
		return 0, 0, false
	}
	spf = (b1*a22 - b2*cm.sft) / det
	spt = (a11*b2 - cm.sft*b1) / det
	if !(spf > 0) || math.IsNaN(spt) || spt < 0 {
		return 0, 0, false
	}
	return spf, spt, true
}

// recordCostSample feeds one completed job into the online cost model.
//
// The fit wants the core-seconds the simulator would book for this
// configuration — not wall core-seconds (the DES models idle time itself;
// charging real idleness as work double-counts it and turns every prediction
// pessimistic), and not the pool's measured busy time either (the real
// runtime also idles on synchronization the DES does not model, which would
// leave that idleness uncharged and turn predictions optimistic). The
// self-consistent deflator is the simulator's own predicted utilization for
// the exact configuration the job ran: prediction later inflates work by
// 1/utilization again, so a calibrated model reproduces measured wall time
// by construction and the calibration harness can hold it to a tolerance.
func (s *Server) recordCostSample(spec JobSpec, res *Result, elapsed time.Duration, waitSec float64) {
	flops := kernels.FlopsQR(spec.M, spec.N)
	workers := float64(s.cfg.Threads * s.AgentsLive())
	if workers < 1 {
		workers = 1
	}
	u := 1.0
	opts, optErr := spec.Options()
	if optErr == nil && res.Stats.Firings > 0 && res.Stats.Firings < 1<<20 {
		mach, _ := s.machineModel()
		mach.Nodes = s.AgentsLive()
		r := simulate.Run(simulate.Workload{M: spec.M, N: spec.N, Opts: opts},
			mach, simulate.SystolicProfile)
		if r.Utilization > 0.02 {
			u = r.Utilization
		}
	} else if tsec := elapsed.Seconds() * float64(s.cfg.Threads); tsec > 0 && waitSec > 0 {
		// A graph too large to re-simulate per completion: fall back to the
		// local pool's measured busy fraction.
		u = 1 - waitSec/tsec
		if u < 0.05 {
			u = 0.05
		}
	}
	s.costs.add(flops, float64(res.Stats.Firings), elapsed.Seconds()*workers*u)
}

// machineModel assembles the server's current best machine model: the
// LocalHost baseline overridden by whatever this process has measured —
// per-flop and per-task costs from the online cost model, (α, β) from the
// link estimator. measured reports whether anything beyond the defaults went
// in. This is the single source both GET /v1/machine-model and the planner
// use, so what the endpoint publishes is exactly what dispatch plans with.
func (s *Server) machineModel() (mach simulate.Machine, measured bool) {
	mach = simulate.LocalHost(s.Ranks(), s.cfg.Threads+1)
	// Priors for the cost fit: the static baseline's rate anchored to the
	// trailing-update kernel's efficiency — the simulator multiplies
	// CoreGflops by the per-kernel Eff factors, and tsmqr dominates a tile
	// QR's flops, so anchoring there keeps measurement and simulation from
	// counting the kernel efficiency twice.
	priorSPF := 1 / (mach.CoreGflops * 1e9 * mach.Eff[simulate.Tsmqr])
	if spf, spt, ok := s.costs.solve(priorSPF, mach.TaskOverhead); ok {
		mach.CoreGflops = 1 / (spf * 1e9 * mach.Eff[simulate.Tsmqr])
		if spt <= simulate.MaxCostSeconds {
			mach.TaskOverhead = spt
		}
		measured = true
	} else if flops, busy := math.Float64frombits(s.metrics.flopBits.Load()),
		math.Float64frombits(s.metrics.busyBits.Load()); busy > 0 && flops > 0 {
		// Fewer than two samples: fall back to the single achieved-rate
		// anchor over every completed job, spread across the fleet's workers.
		workers := float64(s.cfg.Threads * s.AgentsLive())
		if workers < 1 {
			workers = 1
		}
		achieved := flops / busy / 1e9 / workers
		mach.CoreGflops = achieved / mach.Eff[simulate.Tsmqr]
		measured = true
	}
	if est := s.obs.Estimator(); est != nil {
		if a, b, ok := est.Aggregate(); ok {
			mach.AlphaInter = a
			if b > 0 {
				// β = 0 is the estimator's "the byte spread carried no
				// bandwidth signal" fallback, not a measured infinite
				// bandwidth: keep the baseline's.
				mach.BetaInter = b
			}
			measured = true
		}
	}
	if mach.Validate() != nil {
		// A degenerate measurement (e.g. an absurd achieved rate from a
		// single tiny job) must never poison planning: fall back to the
		// static baseline.
		return simulate.LocalHost(s.Ranks(), s.cfg.Threads+1), false
	}
	return mach, measured
}

// modelEpoch quantizes the machine model's evidence into a cache epoch: it
// advances every 128 link samples, every 2 cost-model samples, or every 8
// completed jobs, so plan-cache entries age out as fresh evidence shifts the
// model but repeat shapes in between plan in microseconds.
func (s *Server) modelEpoch() uint64 {
	var adds int64
	if est := s.obs.Estimator(); est != nil {
		adds = est.Samples()
	}
	completed := s.metrics.Completed.Load()
	return uint64(adds/128)*1000003 + uint64(s.costs.samples()/2)*31 + uint64(completed/8)
}

// planJob returns the spec the job should actually run: j.Spec itself
// unless autotuning is on for it, in which case the planner's chosen
// configuration overrides NB/IB/H/Tree (shape, data and policy fields ride
// through untouched). Planning failures degrade to the literal spec — the
// autotuner must never turn a runnable job into a failed one.
func (s *Server) planJob(j *Job) JobSpec {
	spec := j.Spec
	if !spec.Autotune && !s.cfg.Autotune {
		return spec
	}
	mach, _ := s.machineModel()
	mach.Nodes = s.AgentsLive()
	start := time.Now()
	d, err := s.planner.Plan(plan.Spec{M: spec.M, N: spec.N}, mach, s.modelEpoch())
	if err != nil {
		s.cfg.Logf("job %d: plan failed (%v); running literal spec", j.ID, err)
		return spec
	}
	planMS := float64(time.Since(start)) / 1e6
	if d.FromCache {
		d.PlanMS = planMS // a cache hit's cost is the lookup, not the sweep
	}
	s.metrics.ObservePlan(time.Since(start), d.FromCache)
	s.obs.Emit(obs.Event{Kind: obs.EvPlan, Class: "job", Job: j.ID,
		Tenant: spec.Tenant, DurMS: d.PlanMS, Detail: d.Rationale})
	j.setPlan(&d)
	c := d.Choice
	spec.NB, spec.IB, spec.H, spec.Tree = c.NB, c.IB, c.H, c.Tree
	s.cfg.Logf("job %d planned: %s (predicted %.3gms, %.2fx vs default, cache=%v, %.3gms to plan)",
		j.ID, c.Describe(), c.PredictedMS, d.SpeedupVsDefault, d.FromCache, d.PlanMS)
	return spec
}

// recordPlanOutcome closes the loop on a planned job that completed: the
// actual-over-predicted ratio feeds the calibration histogram, and the
// status page's last-plan record updates so an operator sees predicted vs
// actual without scraping metrics.
func (s *Server) recordPlanOutcome(j *Job, elapsed time.Duration) {
	d := j.Plan()
	if d == nil || d.Choice.PredictedMS <= 0 {
		return
	}
	actualMS := float64(elapsed) / float64(time.Millisecond)
	s.metrics.ObservePlanAccuracy(actualMS / d.Choice.PredictedMS)
	s.mu.Lock()
	s.lastPlan = lastPlanInfo{
		job:         j.ID,
		config:      d.Choice.Describe(),
		predictedMS: d.Choice.PredictedMS,
		actualMS:    actualMS,
	}
	s.mu.Unlock()
}

// PlannerStatus is the planner block of GET /v1/status.
type PlannerStatus struct {
	Enabled         bool    `json:"enabled"` // fleet-wide -autotune (jobs can still opt in)
	Plans           int64   `json:"plans"`   // decisions computed fresh
	CacheHits       int64   `json:"cache_hits"`
	Epoch           uint64  `json:"epoch"` // current machine-model epoch
	LastJob         uint32  `json:"last_job,omitempty"`
	LastConfig      string  `json:"last_config,omitempty"`
	LastPredictedMS float64 `json:"last_predicted_ms,omitempty"`
	LastActualMS    float64 `json:"last_actual_ms,omitempty"`
}

func (s *Server) plannerStatus() PlannerStatus {
	computed, hits := s.planner.Stats()
	s.mu.Lock()
	last := s.lastPlan
	s.mu.Unlock()
	return PlannerStatus{
		Enabled:         s.cfg.Autotune,
		Plans:           computed,
		CacheHits:       hits,
		Epoch:           s.modelEpoch(),
		LastJob:         last.job,
		LastConfig:      last.config,
		LastPredictedMS: last.predictedMS,
		LastActualMS:    last.actualMS,
	}
}

// PlanResponse is the POST /v1/plan body: the planner's decision for the
// posted JobSpec against the machine model the server would really use,
// echoed back so callers can reproduce the decision offline.
type PlanResponse struct {
	Decision plan.Decision    `json:"decision"`
	Machine  simulate.Machine `json:"machine"`
	Measured bool             `json:"measured"` // model carries live measurements
	Epoch    uint64           `json:"epoch"`
}

// handlePlan serves POST /v1/plan: a dry-run of exactly the planning that
// JobSpec.Autotune would do at dispatch, committing nothing. Uploaded data
// is ignored — only the shape matters — so a dry-run can describe a job
// without shipping its matrix.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{"bad request: " + err.Error()})
		return
	}
	spec.Data = nil
	if err := spec.Validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	mach, measured := s.machineModel()
	mach.Nodes = s.AgentsLive()
	epoch := s.modelEpoch()
	var target float64
	if spec.DeadlineMS > 0 {
		// On a dry run the queue deadline doubles as a completion target:
		// the caller is asking "what would you pick to land inside this".
		target = float64(spec.DeadlineMS)
	}
	start := time.Now()
	d, err := s.planner.Plan(plan.Spec{M: spec.M, N: spec.N, TargetMS: target}, mach, epoch)
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{err.Error()})
		return
	}
	if d.FromCache {
		d.PlanMS = float64(time.Since(start)) / 1e6
	}
	s.metrics.ObservePlan(time.Since(start), d.FromCache)
	writeJSON(w, http.StatusOK, PlanResponse{Decision: d, Machine: mach, Measured: measured, Epoch: epoch})
}
