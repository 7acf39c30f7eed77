package service

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pulsarqr/internal/obs"
	"pulsarqr/internal/pulsar"
)

// Metrics aggregates service counters and exposes them in the Prometheus
// text format. Everything is hand-rolled on sync/atomic — the service takes
// no dependencies beyond the standard library.
type Metrics struct {
	Accepted     atomic.Int64 // jobs admitted to the queue
	RejectedFull atomic.Int64 // jobs refused with ErrQueueFull
	RejectedBad  atomic.Int64 // jobs refused at validation
	Completed    atomic.Int64 // jobs that finished successfully
	Failed       atomic.Int64 // jobs whose factorization errored
	Canceled     atomic.Int64 // jobs canceled by the client
	Expired      atomic.Int64 // jobs dropped at dispatch: deadline passed
	Running      atomic.Int64 // jobs currently executing
	Evicted      atomic.Int64 // fleet agent ranks declared dead
	Requeued     atomic.Int64 // job attempts requeued after a fleet failure

	TraceEvents atomic.Int64 // events in gathered trace shards
	TraceDrops  atomic.Int64 // events lost to recorder capacity bounds

	BatchRequests atomic.Int64 // batch streams admitted
	BatchRejected atomic.Int64 // batch streams shed at admission (429)
	BatchMatrices atomic.Int64 // matrices factorized and emitted by batch streams
	BatchShed     atomic.Int64 // matrices a batch stream declared but never emitted
	BatchActive   atomic.Int64 // batch streams currently executing

	SessionsOpened   atomic.Int64 // sessions created via POST /v1/sessions
	SessionsRejected atomic.Int64 // session opens refused (table or tenant full)
	SessionsRestored atomic.Int64 // session spines reloaded from checkpoints
	SessionsEvicted  atomic.Int64 // sessions unloaded or evicted by the janitor
	SessionAppends   atomic.Int64 // row blocks appended across all sessions
	AppendRejected   atomic.Int64 // append streams shed at admission (429)
	AppendActive     atomic.Int64 // append streams currently executing
	CheckpointWrites atomic.Int64 // QSC1 checkpoint files written
	CheckpointBytes  atomic.Int64 // total bytes of checkpoint writes

	PlansComputed atomic.Int64 // planner decisions computed fresh (DES sweep ran)
	PlanCacheHits atomic.Int64 // planner decisions served from the plan cache

	flopBits atomic.Uint64 // total useful flops, float64 bits
	busyBits atomic.Uint64 // total seconds spent factorizing, float64 bits

	latency    *histogram
	wait       *histogram // pool worker park intervals
	chunk      *histogram // batch chunk dispatch-to-completion latency
	appendH    *histogram // session append latency, receipt to committed R
	planH      *histogram // planning latency (cache hits and DES sweeps alike)
	planRatioH *histogram // actual/predicted run-time ratio of planned jobs

	queueWaitH *classHist // lifecycle span: admission to dispatch, by class
	dispatchH  *classHist // lifecycle span: dispatch to execution start
	runH       *classHist // lifecycle span: execution (run + gather)

	mu      sync.Mutex
	firings map[string]*atomic.Int64 // VDP firings by trace class
}

// latencyBuckets are the histogram upper bounds in seconds, spanning a tiny
// tile job to a deliberately queued large one.
var latencyBuckets = []float64{
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// waitBuckets span a worker's park intervals: sub-microsecond wakeups up to
// the multi-second idling of a drained service.
var waitBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 1, 10,
}

// chunkBuckets span a batch chunk's life from dispatch to completion: tens
// of microseconds for a chunk of tiny Givens matrices up to the queueing
// delay behind a saturated pool.
var chunkBuckets = []float64{
	1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1,
}

// appendBuckets span one streamed append's life from receipt to committed R:
// a carry-free leaf reduction is tens of microseconds; a deep carry chain
// plus a checkpoint fsync can reach seconds.
var appendBuckets = []float64{
	1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1, 5,
}

// planBuckets span one planning call: a cache hit is microseconds, a cold
// DES sweep over a big shape can reach a second.
var planBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.5, 1, 5,
}

// planRatioBuckets span the calibration ratio actual/predicted: 1 is a
// perfect model, the E2E calibration gate asserts within 3× either way.
var planRatioBuckets = []float64{
	0.1, 0.2, 0.33, 0.5, 0.75, 1, 1.33, 2, 3, 5, 10,
}

// spanBuckets span the lifecycle phases: a dispatch on an idle service is
// tens of microseconds; a queue wait behind a deep backlog can reach a
// minute.
var spanBuckets = []float64{
	1e-5, 1e-4, 1e-3, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60,
}

// histogram is a fixed-bucket Prometheus-style histogram on atomics; the
// final counts entry is the +Inf bucket.
type histogram struct {
	buckets []float64
	counts  []atomic.Int64
	sumBits atomic.Uint64
	n       atomic.Int64
}

func newHistogram(buckets []float64) *histogram {
	return &histogram{buckets: buckets, counts: make([]atomic.Int64, len(buckets)+1)}
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v)
	h.counts[i].Add(1)
	h.n.Add(1)
	addFloat(&h.sumBits, v)
}

// classHist is a family of histograms labeled by admission class ("job",
// "batch", "session"), materialized lazily so only classes that saw traffic
// render.
type classHist struct {
	buckets []float64

	mu sync.Mutex
	by map[string]*histogram
}

func newClassHist(buckets []float64) *classHist {
	return &classHist{buckets: buckets, by: map[string]*histogram{}}
}

func (c *classHist) observe(class string, v float64) {
	c.mu.Lock()
	h := c.by[class]
	if h == nil {
		h = newHistogram(c.buckets)
		c.by[class] = h
	}
	c.mu.Unlock()
	h.observe(v)
}

// snapshot returns the class names sorted and their histograms in that order.
func (c *classHist) snapshot() ([]string, []*histogram) {
	c.mu.Lock()
	defer c.mu.Unlock()
	classes := make([]string, 0, len(c.by))
	for cl := range c.by {
		classes = append(classes, cl)
	}
	sort.Strings(classes)
	hs := make([]*histogram, len(classes))
	for i, cl := range classes {
		hs[i] = c.by[cl]
	}
	return classes, hs
}

// addFloat accumulates a float64 into an atomic bit pattern (CAS loop).
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// terminal returns the counter of jobs that ended in state s.
func (m *Metrics) terminal(s State) *atomic.Int64 {
	switch s {
	case StateDone:
		return &m.Completed
	case StateFailed:
		return &m.Failed
	case StateCanceled:
		return &m.Canceled
	default:
		return &m.Expired
	}
}

func NewMetrics() *Metrics {
	return &Metrics{
		firings:    map[string]*atomic.Int64{},
		latency:    newHistogram(latencyBuckets),
		wait:       newHistogram(waitBuckets),
		chunk:      newHistogram(chunkBuckets),
		appendH:    newHistogram(appendBuckets),
		planH:      newHistogram(planBuckets),
		planRatioH: newHistogram(planRatioBuckets),
		queueWaitH: newClassHist(spanBuckets),
		dispatchH:  newClassHist(spanBuckets),
		runH:       newClassHist(spanBuckets),
	}
}

// ObserveSpans records one terminal request's lifecycle span accounting.
// Run and gather fold into one "run" histogram: both are execution from the
// client's point of view, and gather is usually a rounding error.
func (m *Metrics) ObserveSpans(class string, sp obs.Spans) {
	m.queueWaitH.observe(class, sp.QueueWait.Seconds())
	m.dispatchH.observe(class, sp.Dispatch.Seconds())
	m.runH.observe(class, (sp.Run + sp.Gather).Seconds())
}

// ObserveStreamSpan records one stream's life (a batch or session-append
// request) in the run histogram — streams admit or shed instantly, so queue
// wait and dispatch are identically zero and only run time means anything.
func (m *Metrics) ObserveStreamSpan(class string, d time.Duration) {
	m.runH.observe(class, d.Seconds())
}

// ObserveAppend records one committed session append (receipt to updated R).
// The session table installs it as OnAppend, so it runs on commit goroutines.
func (m *Metrics) ObserveAppend(d time.Duration) {
	m.SessionAppends.Add(1)
	m.appendH.observe(d.Seconds())
}

// ObserveCheckpoint records one durable checkpoint write and its size.
func (m *Metrics) ObserveCheckpoint(bytes int64) {
	m.CheckpointWrites.Add(1)
	m.CheckpointBytes.Add(bytes)
}

// ObserveBatchChunk records one completed batch chunk: its matrix count and
// dispatch-to-completion wall time. The scheduler installs it as OnChunk, so
// it is called from pool worker goroutines.
func (m *Metrics) ObserveBatchChunk(matrices int, d time.Duration) {
	m.BatchMatrices.Add(int64(matrices))
	m.chunk.observe(d.Seconds())
}

// ObservePlan records one planning call — its wall time and whether it was
// served from the plan cache.
func (m *Metrics) ObservePlan(d time.Duration, fromCache bool) {
	if fromCache {
		m.PlanCacheHits.Add(1)
	} else {
		m.PlansComputed.Add(1)
	}
	m.planH.observe(d.Seconds())
}

// ObservePlanAccuracy records one planned job's actual/predicted run-time
// ratio — the live calibration signal behind the CI calibration gate.
func (m *Metrics) ObservePlanAccuracy(ratio float64) {
	m.planRatioH.observe(ratio)
}

// ObserveJob records one finished factorization: end-to-end latency, time
// spent computing, and the useful flop count.
func (m *Metrics) ObserveJob(latencySec, busySec, flops float64) {
	m.latency.observe(latencySec)
	addFloat(&m.busyBits, busySec)
	addFloat(&m.flopBits, flops)
}

// ObserveWait records one pool-worker park interval; the server installs it
// via Pool.OnWait.
func (m *Metrics) ObserveWait(ev pulsar.WaitEvent) {
	m.wait.observe(ev.End.Sub(ev.Start).Seconds())
}

// FireHook counts VDP firings by trace class; the server installs it as the
// runtime's FireHook for every job.
func (m *Metrics) FireHook(ev pulsar.FireEvent) {
	m.mu.Lock()
	c := m.firings[ev.Class]
	if c == nil {
		c = &atomic.Int64{}
		m.firings[ev.Class] = c
	}
	m.mu.Unlock()
	c.Add(1)
}

// WriteProm renders the metrics in the Prometheus text exposition format.
// queueDepth and resident are sampled gauges supplied by the caller.
func (m *Metrics) WriteProm(w io.Writer, queueDepth, resident int) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("qrserve_jobs_accepted_total", "Jobs admitted to the queue.", m.Accepted.Load())
	fmt.Fprintf(w, "# HELP qrserve_jobs_rejected_total Jobs refused at admission.\n# TYPE qrserve_jobs_rejected_total counter\n")
	fmt.Fprintf(w, "qrserve_jobs_rejected_total{reason=\"queue_full\"} %d\n", m.RejectedFull.Load())
	fmt.Fprintf(w, "qrserve_jobs_rejected_total{reason=\"invalid\"} %d\n", m.RejectedBad.Load())
	counter("qrserve_jobs_completed_total", "Jobs that finished successfully.", m.Completed.Load())
	counter("qrserve_jobs_failed_total", "Jobs whose factorization errored.", m.Failed.Load())
	counter("qrserve_jobs_canceled_total", "Jobs canceled by the client.", m.Canceled.Load())
	counter("qrserve_jobs_expired_total", "Jobs dropped before dispatch: deadline passed.", m.Expired.Load())
	counter("qrserve_agent_evictions_total", "Fleet agent ranks declared dead and evicted.", m.Evicted.Load())
	counter("qrserve_jobs_requeued_total", "Job attempts requeued onto the surviving fleet after a peer death.", m.Requeued.Load())
	gauge("qrserve_queue_depth", "Jobs waiting in the admission queue.", int64(queueDepth))
	gauge("qrserve_jobs_running", "Jobs currently executing.", m.Running.Load())
	gauge("qrserve_jobs_resident", "Jobs resident in memory (queued, running or retained).", int64(resident))

	fmt.Fprintf(w, "# HELP qrserve_vdp_firings_total VDP firings by trace class.\n# TYPE qrserve_vdp_firings_total counter\n")
	m.mu.Lock()
	classes := make([]string, 0, len(m.firings))
	for c := range m.firings {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	counts := make([]int64, len(classes))
	for i, c := range classes {
		counts[i] = m.firings[c].Load()
	}
	m.mu.Unlock()
	for i, c := range classes {
		fmt.Fprintf(w, "qrserve_vdp_firings_total{class=%q} %d\n", c, counts[i])
	}

	flops := math.Float64frombits(m.flopBits.Load())
	busy := math.Float64frombits(m.busyBits.Load())
	fmt.Fprintf(w, "# HELP qrserve_flops_total Useful floating point operations factorized.\n# TYPE qrserve_flops_total counter\nqrserve_flops_total %g\n", flops)
	fmt.Fprintf(w, "# HELP qrserve_busy_seconds_total Seconds spent factorizing.\n# TYPE qrserve_busy_seconds_total counter\nqrserve_busy_seconds_total %g\n", busy)
	gflops := 0.0
	if busy > 0 {
		gflops = flops / busy / 1e9
	}
	fmt.Fprintf(w, "# HELP qrserve_gflops Achieved Gflop/s over all completed jobs.\n# TYPE qrserve_gflops gauge\nqrserve_gflops %g\n", gflops)

	hist := func(name, help string, h *histogram) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		var cum int64
		for i, ub := range h.buckets {
			cum += h.counts[i].Load()
			fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, ub, cum)
		}
		cum += h.counts[len(h.buckets)].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(w, "%s_sum %g\n", name, math.Float64frombits(h.sumBits.Load()))
		fmt.Fprintf(w, "%s_count %d\n", name, h.n.Load())
	}
	hist("qrserve_job_latency_seconds", "End-to-end job latency, admission to completion.", m.latency)
	hist("qrserve_worker_wait_seconds", "Pool worker park intervals (time spent idle between tasks).", m.wait)

	chist := func(name, help string, c *classHist) {
		classes, hs := c.snapshot()
		if len(classes) == 0 {
			return
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		for ci, class := range classes {
			h := hs[ci]
			var cum int64
			for i, ub := range h.buckets {
				cum += h.counts[i].Load()
				fmt.Fprintf(w, "%s_bucket{class=%q,le=\"%g\"} %d\n", name, class, ub, cum)
			}
			cum += h.counts[len(h.buckets)].Load()
			fmt.Fprintf(w, "%s_bucket{class=%q,le=\"+Inf\"} %d\n", name, class, cum)
			fmt.Fprintf(w, "%s_sum{class=%q} %g\n", name, class, math.Float64frombits(h.sumBits.Load()))
			fmt.Fprintf(w, "%s_count{class=%q} %d\n", name, class, h.n.Load())
		}
	}
	chist("qrserve_queue_wait_seconds", "Lifecycle span: admission to dispatch, by class.", m.queueWaitH)
	chist("qrserve_dispatch_seconds", "Lifecycle span: dispatch to execution start, by class.", m.dispatchH)
	chist("qrserve_run_seconds", "Lifecycle span: execution (run plus trace gather), by class.", m.runH)

	counter("qrserve_batch_requests_total", "Batch streams admitted.", m.BatchRequests.Load())
	counter("qrserve_batch_rejected_total", "Batch streams shed at admission.", m.BatchRejected.Load())
	counter("qrserve_batch_matrices_total", "Matrices factorized and emitted by batch streams.", m.BatchMatrices.Load())
	counter("qrserve_batch_shed_total", "Matrices declared by batch requests but never emitted.", m.BatchShed.Load())
	gauge("qrserve_batch_active", "Batch streams currently executing.", m.BatchActive.Load())
	hist("qrserve_batch_chunk_seconds", "Batch chunk latency, dispatch to completion.", m.chunk)

	counter("qrserve_sessions_opened_total", "Streaming sessions created.", m.SessionsOpened.Load())
	counter("qrserve_sessions_rejected_total", "Session opens refused (table or tenant full).", m.SessionsRejected.Load())
	counter("qrserve_sessions_restored_total", "Session spines reloaded from checkpoints.", m.SessionsRestored.Load())
	counter("qrserve_sessions_evicted_total", "Sessions unloaded or evicted by the idle janitor.", m.SessionsEvicted.Load())
	counter("qrserve_session_appends_total", "Row blocks appended across all streaming sessions.", m.SessionAppends.Load())
	counter("qrserve_session_append_rejected_total", "Append streams shed at admission.", m.AppendRejected.Load())
	gauge("qrserve_session_appends_active", "Append streams currently executing.", m.AppendActive.Load())
	counter("qrserve_checkpoint_writes_total", "QSC1 checkpoint files written.", m.CheckpointWrites.Load())
	counter("qrserve_checkpoint_bytes_total", "Total bytes written to checkpoint files.", m.CheckpointBytes.Load())
	hist("qrserve_session_append_seconds", "Session append latency, receipt to committed R.", m.appendH)

	counter("qrserve_trace_events_total", "Events in gathered trace shards.", m.TraceEvents.Load())
	counter("qrserve_trace_dropped_total", "Trace events lost to recorder capacity bounds.", m.TraceDrops.Load())

	fmt.Fprintf(w, "# HELP qrserve_plan_total Planner decisions by source.\n# TYPE qrserve_plan_total counter\n")
	fmt.Fprintf(w, "qrserve_plan_total{source=\"computed\"} %d\n", m.PlansComputed.Load())
	fmt.Fprintf(w, "qrserve_plan_total{source=\"cache\"} %d\n", m.PlanCacheHits.Load())
	hist("qrserve_plan_seconds", "Planning latency per decision (cache hits and DES sweeps).", m.planH)
	hist("qrserve_plan_actual_over_predicted", "Actual over predicted run time of planned jobs (1 = perfect model).", m.planRatioH)
}
