package service

import (
	"fmt"
	"io"
	"maps"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pulsarqr/internal/obs"
	"pulsarqr/internal/pulsar"
)

// Metrics aggregates service counters and exposes them in the Prometheus
// text format (promWriter). Everything is hand-rolled on sync/atomic — the
// service takes no dependencies beyond the standard library.
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
	labels  string // the series' labels within its family; "" for a family of one
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
		h.labels = fmt.Sprintf("class=%q", class)
		c.by[class] = h
	}
	c.mu.Unlock()
	h.observe(v)
}

// snapshot returns the histograms in the order of their sorted class names.
func (c *classHist) snapshot() []*histogram {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*histogram
	for _, class := range sortedKeys(c.by) {
		out = append(out, c.by[class])
	}
	return out
}

// sortedKeys returns m's keys in the stable order /metrics lists labels in.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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

// promWriter spells the Prometheus text exposition format for every writer
// behind /metrics: a family's HELP and TYPE once, then its samples.
type promWriter struct{ w io.Writer }

func (p promWriter) family(name, help, typ string) {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample writes one sample; labels is the text between its braces, "" for none.
func (p promWriter) sample(name, labels string, v any) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(p.w, "%s%s %v\n", name, labels, v)
}

// counter and gauge write a family of one unlabelled sample.
func (p promWriter) counter(name, help string, v any) {
	p.family(name, help, "counter")
	p.sample(name, "", v)
}

func (p promWriter) gauge(name, help string, v any) {
	p.family(name, help, "gauge")
	p.sample(name, "", v)
}

// hist writes a histogram family: cumulative buckets, sum and count per
// series. A family with no series yet is not announced.
func (p promWriter) hist(name, help string, hs ...*histogram) {
	if len(hs) == 0 {
		return
	}
	p.family(name, help, "histogram")
	for _, h := range hs {
		le := strings.TrimPrefix(h.labels+",", ",") // what precedes le= in a bucket's labels
		var cum int64
		for i, ub := range h.buckets {
			cum += h.counts[i].Load()
			p.sample(name+"_bucket", fmt.Sprintf("%sle=\"%g\"", le, ub), cum)
		}
		cum += h.counts[len(h.buckets)].Load()
		p.sample(name+"_bucket", le+`le="+Inf"`, cum)
		p.sample(name+"_sum", h.labels, math.Float64frombits(h.sumBits.Load()))
		p.sample(name+"_count", h.labels, h.n.Load())
	}
}

// WriteProm renders the metrics in the Prometheus text exposition format.
// queueDepth and resident are sampled gauges supplied by the caller.
func (m *Metrics) WriteProm(w io.Writer, queueDepth, resident int) {
	p := promWriter{w}
	p.counter("qrserve_jobs_accepted_total", "Jobs admitted to the queue.", m.Accepted.Load())
	p.family("qrserve_jobs_rejected_total", "Jobs refused at admission.", "counter")
	p.sample("qrserve_jobs_rejected_total", `reason="queue_full"`, m.RejectedFull.Load())
	p.sample("qrserve_jobs_rejected_total", `reason="invalid"`, m.RejectedBad.Load())
	p.counter("qrserve_jobs_completed_total", "Jobs that finished successfully.", m.Completed.Load())
	p.counter("qrserve_jobs_failed_total", "Jobs whose factorization errored.", m.Failed.Load())
	p.counter("qrserve_jobs_canceled_total", "Jobs canceled by the client.", m.Canceled.Load())
	p.counter("qrserve_jobs_expired_total", "Jobs dropped before dispatch: deadline passed.", m.Expired.Load())
	p.counter("qrserve_agent_evictions_total", "Fleet agent ranks declared dead and evicted.", m.Evicted.Load())
	p.counter("qrserve_jobs_requeued_total", "Job attempts requeued onto the surviving fleet after a peer death.", m.Requeued.Load())
	p.gauge("qrserve_queue_depth", "Jobs waiting in the admission queue.", queueDepth)
	p.gauge("qrserve_jobs_running", "Jobs currently executing.", m.Running.Load())
	p.gauge("qrserve_jobs_resident", "Jobs resident in memory (queued, running or retained).", resident)

	p.family("qrserve_vdp_firings_total", "VDP firings by trace class.", "counter")
	m.mu.Lock()
	firings := maps.Clone(m.firings)
	m.mu.Unlock()
	for _, c := range sortedKeys(firings) {
		p.sample("qrserve_vdp_firings_total", fmt.Sprintf("class=%q", c), firings[c].Load())
	}

	flops := math.Float64frombits(m.flopBits.Load())
	busy := math.Float64frombits(m.busyBits.Load())
	p.counter("qrserve_flops_total", "Useful floating point operations factorized.", flops)
	p.counter("qrserve_busy_seconds_total", "Seconds spent factorizing.", busy)
	gflops := 0.0
	if busy > 0 {
		gflops = flops / busy / 1e9
	}
	p.gauge("qrserve_gflops", "Achieved Gflop/s over all completed jobs.", gflops)

	p.hist("qrserve_job_latency_seconds", "End-to-end job latency, admission to completion.", m.latency)
	p.hist("qrserve_worker_wait_seconds", "Pool worker park intervals (time spent idle between tasks).", m.wait)

	p.hist("qrserve_queue_wait_seconds", "Lifecycle span: admission to dispatch, by class.", m.queueWaitH.snapshot()...)
	p.hist("qrserve_dispatch_seconds", "Lifecycle span: dispatch to execution start, by class.", m.dispatchH.snapshot()...)
	p.hist("qrserve_run_seconds", "Lifecycle span: execution (run plus trace gather), by class.", m.runH.snapshot()...)

	p.counter("qrserve_batch_requests_total", "Batch streams admitted.", m.BatchRequests.Load())
	p.counter("qrserve_batch_rejected_total", "Batch streams shed at admission.", m.BatchRejected.Load())
	p.counter("qrserve_batch_matrices_total", "Matrices factorized and emitted by batch streams.", m.BatchMatrices.Load())
	p.counter("qrserve_batch_shed_total", "Matrices declared by batch requests but never emitted.", m.BatchShed.Load())
	p.gauge("qrserve_batch_active", "Batch streams currently executing.", m.BatchActive.Load())
	p.hist("qrserve_batch_chunk_seconds", "Batch chunk latency, dispatch to completion.", m.chunk)

	p.counter("qrserve_sessions_opened_total", "Streaming sessions created.", m.SessionsOpened.Load())
	p.counter("qrserve_sessions_rejected_total", "Session opens refused (table or tenant full).", m.SessionsRejected.Load())
	p.counter("qrserve_sessions_restored_total", "Session spines reloaded from checkpoints.", m.SessionsRestored.Load())
	p.counter("qrserve_sessions_evicted_total", "Sessions unloaded or evicted by the idle janitor.", m.SessionsEvicted.Load())
	p.counter("qrserve_session_appends_total", "Row blocks appended across all streaming sessions.", m.SessionAppends.Load())
	p.counter("qrserve_session_append_rejected_total", "Append streams shed at admission.", m.AppendRejected.Load())
	p.gauge("qrserve_session_appends_active", "Append streams currently executing.", m.AppendActive.Load())
	p.counter("qrserve_checkpoint_writes_total", "QSC1 checkpoint files written.", m.CheckpointWrites.Load())
	p.counter("qrserve_checkpoint_bytes_total", "Total bytes written to checkpoint files.", m.CheckpointBytes.Load())
	p.hist("qrserve_session_append_seconds", "Session append latency, receipt to committed R.", m.appendH)

	p.counter("qrserve_trace_events_total", "Events in gathered trace shards.", m.TraceEvents.Load())
	p.counter("qrserve_trace_dropped_total", "Trace events lost to recorder capacity bounds.", m.TraceDrops.Load())

	p.family("qrserve_plan_total", "Planner decisions by source.", "counter")
	p.sample("qrserve_plan_total", `source="computed"`, m.PlansComputed.Load())
	p.sample("qrserve_plan_total", `source="cache"`, m.PlanCacheHits.Load())
	p.hist("qrserve_plan_seconds", "Planning latency per decision (cache hits and DES sweeps).", m.planH)
	p.hist("qrserve_plan_actual_over_predicted", "Actual over predicted run time of planned jobs (1 = perfect model).", m.planRatioH)
}
