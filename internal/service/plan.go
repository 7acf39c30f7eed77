package service

import (
	"encoding/json"
	"net/http"
	"runtime"
	"sync"
	"time"

	"pulsarqr/internal/obs"
	"pulsarqr/internal/plan"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/simulate"
)

// defaultTileRate times this host's kernels at the library tile
// (simulate.MeasureTileRate at qr.DefaultOptions). The server calls it once,
// on first need (Server.rate), and times no other tile, so a client cannot
// buy kernel time by submitting jobs at odd tiles.
func defaultTileRate() simulate.TileRate {
	def := qr.DefaultOptions()
	return simulate.MeasureTileRate(def.NB, def.IB)
}

// costModel learns from completed jobs the two costs a kernel probe cannot
// see, one by measurement and one by fit:
//
//   - the in-job slowdown: the kernel seconds rank 0's workers really spent
//     (the sum of its firing intervals) over what the same share of the task
//     graph takes at the probe's rates — sibling threads on shared execution
//     ports, tiles arriving cold, the packet handling around each kernel. A
//     ratio of two sums, nothing regressed;
//
//   - the per-task cost: with the kernel term pinned by that ratio, the
//     least-squares secondsPerTask in
//
//     b ≈ slowdown·p + secondsPerTask·t
//
//     over jobs with p probe seconds, t tasks and b core-seconds. It soaks up
//     everything else that grows with the task count — wake-ups between
//     workers, marshalling between ranks.
//
// An earlier version fitted seconds-per-flop and seconds-per-task together
// from the same samples; five small warm-up jobs could put the core rate
// anywhere between 1.5 and 160 Gflop/s.
type costModel struct {
	mu         sync.Mutex
	busy0, p0  float64 // rank 0: measured kernel seconds, probe seconds
	bt, pt, tt float64 // Σ b·t, Σ p·t, Σ t² over jobs
	n          int64
}

func (cm *costModel) add(busy0, probe0, probeSeconds, tasks, coreSeconds float64) {
	if !(busy0 > 0) || !(probe0 > 0) || !(probeSeconds > 0) || !(tasks > 0) || !(coreSeconds > 0) {
		return
	}
	cm.mu.Lock()
	defer cm.mu.Unlock()
	cm.busy0 += busy0
	cm.p0 += probe0
	cm.bt += coreSeconds * tasks
	cm.pt += probeSeconds * tasks
	cm.tt += tasks * tasks
	cm.n++
}

func (cm *costModel) samples() int64 {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return cm.n
}

// solve returns the in-job slowdown and the per-task cost; ok is false until
// a job has been measured.
func (cm *costModel) solve() (slowdown, secondsPerTask float64, ok bool) {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	if cm.n == 0 {
		return 1, 0, false
	}
	slowdown = cm.busy0 / cm.p0
	return slowdown, max(0, (cm.bt-slowdown*cm.pt)/cm.tt), true
}

// recordCostSample feeds one completed job into the cost model, if it ran at
// the library tile — the one tile whose kernels are timed — and its graph is
// small enough to rebuild per completion.
//
// The core-seconds the fit wants are the ones the simulator would book for
// this configuration — not wall core-seconds (the DES models idle time
// itself; charging real idleness as work double-counts it and turns every
// prediction pessimistic), and not the pool's measured busy time either (the
// real runtime also idles on synchronization the DES does not model, which
// would leave that idleness uncharged and turn predictions optimistic). The
// self-consistent deflator is the simulator's own predicted utilization for
// the exact configuration the job ran: prediction later inflates work by
// 1/utilization again, so a calibrated model reproduces measured wall time
// by construction and the calibration harness can hold it to a tolerance.
//
// elapsed is the factorization's wall time on ranks ranks, busy the part of it
// rank 0's workers spent firing.
//
// The sample is taken in two steps because they want opposite things. The
// kernel probe the first sampled job triggers must have the cores to itself,
// so it runs here, on the dispatcher that has just finished the job and not
// yet taken another. The simulator replay needs no such care and can take as
// long as the job did, so it runs on a goroutine of its own: the dispatcher
// has a queue to get back to.
func (s *Server) recordCostSample(m, n int, opts qr.Options, ranks int, elapsed, busy time.Duration) {
	def := qr.DefaultOptions()
	if opts.NB != def.NB || opts.IB != def.IB || plan.EstTasks(m, n, opts.NB) > 1<<20 {
		return
	}
	rate := s.rate()
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		mach, _ := s.machineModel()
		mach.Nodes = ranks
		r := simulate.Run(simulate.Workload{M: m, N: n, Opts: opts}, mach, simulate.SystolicProfile)
		u := 1.0
		if r.Utilization > 0.02 {
			u = r.Utilization
		}
		var probe0, probeSeconds float64
		for node, flops := range r.NodeFlops {
			for k, f := range flops {
				sec := f / (rate.Gflops[k] * 1e9)
				probeSeconds += sec
				if node == 0 {
					probe0 += sec
				}
			}
		}
		workers := float64(ranks * mach.Workers())
		s.costs.add(busy.Seconds(), probe0, probeSeconds, float64(r.Tasks), elapsed.Seconds()*workers*u)
	}()
}

// machineModel assembles the server's current best machine model: the
// LocalHost baseline overridden by whatever this process has measured — the
// kernel rates at the library tile (timed on the first call), divided by the
// in-job slowdown the cost model measured, its per-task cost, and (α, β)
// from the link estimator. measured reports whether anything a job taught it
// went in. This is the single source of GET /v1/machine-model and the
// planner.
func (s *Server) machineModel() (mach simulate.Machine, measured bool) {
	mach = s.baselineModel()
	slowdown, secondsPerTask, measured := s.costs.solve()
	if measured {
		mach.TaskOverhead = secondsPerTask
	}
	r := s.rate()
	for k := range r.Gflops {
		r.Gflops[k] /= slowdown
	}
	mach.Rates = []simulate.TileRate{r}
	// Other tiles fall back to CoreGflops·Eff: anchor that to the
	// trailing-update kernel, which dominates a tile QR's flops, so a client
	// simulating another tile on this model prices it at this host's rate.
	mach.CoreGflops = r.Gflops[simulate.Tsmqr] / mach.Eff[simulate.Tsmqr]
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
		// A degenerate measurement (a slowdown or a probe reading off by
		// orders of magnitude) must never poison planning: fall back to the
		// static baseline.
		return s.baselineModel(), false
	}
	return mach, measured
}

// baselineModel is the static model under the measurements: LocalHost with
// one node per rank, each a proxy core plus one core per worker thread — but
// never more cores than this process can run in parallel. A pool of more
// threads than CPUs time-slices them, and a model that counts every thread
// as a core predicts a parallelism the host cannot deliver: on the 2-vCPU
// test host it ran the calibration's actual/predicted at a median of 1.3–1.5
// instead of 1.2 (docs/PLANNER.md has the paired runs).
func (s *Server) baselineModel() simulate.Machine {
	return simulate.LocalHost(s.Ranks(), min(s.cfg.Threads+1, max(2, runtime.GOMAXPROCS(0))))
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

// planJob returns the spec the job actually runs, with NB, IB, H and Tree
// all set: the planner's choice when autotuning is on for the job, else
// j.Spec's own values with every omitted one resolved against this rank's
// defaults — an omitted H as one domain per worker of the live fleet, ranks
// × Threads (qr.Options.Resolve). The resolved spec is what the open
// broadcast carries, so the fleet tiles one matrix one way even if its
// ranks' builds or pools disagree — an agent never fills one in itself.
// Shape, data and policy fields ride through untouched. Planning failures
// degrade to the literal spec — the autotuner must never turn a runnable job
// into a failed one.
func (s *Server) planJob(j *Job) JobSpec {
	spec := j.Spec
	if spec.Autotune || s.cfg.Autotune {
		s.autotune(j, &spec)
	}
	if opts, err := spec.Options(); err == nil { // an error here fails the job in runJob
		opts = opts.Resolve((spec.M+opts.NB-1)/opts.NB, s.AgentsLive()*s.cfg.Threads)
		spec.NB, spec.IB, spec.H, spec.Tree = opts.NB, opts.IB, opts.H, opts.Tree.String()
	}
	return spec
}

// autotune overwrites spec's algorithm configuration with the planner's pick
// for its shape on the live machine model — so an autotuned job runs the
// library tile whatever tile it asked for — and records the decision on j.
func (s *Server) autotune(j *Job, spec *JobSpec) {
	mach, _ := s.machineModel()
	mach.Nodes = s.AgentsLive()
	start := time.Now()
	d, err := s.planner.Plan(plan.Spec{M: spec.M, N: spec.N}, mach, s.modelEpoch())
	if err != nil {
		s.cfg.Logf("job %d: plan failed (%v); running literal spec", j.ID, err)
		return
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
	o := c.Options()
	spec.NB, spec.IB, spec.H, spec.Tree = o.NB, o.IB, o.H, o.Tree.String()
	s.cfg.Logf("job %d planned: %s (predicted %.3gms, %.2fx vs default, cache=%v, %.3gms to plan)",
		j.ID, c.Describe(), c.PredictedMS, d.SpeedupVsDefault, d.FromCache, d.PlanMS)
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
