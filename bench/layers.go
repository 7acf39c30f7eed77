package main

import (
	"time"

	"pulsarqr/internal/qr"
	"pulsarqr/internal/trace"
)

// tracer is the traced run's state: the span recorder and the per-layer
// samples collected per op. Workloads consult on before doing anything the
// untraced run must not pay for (hooks, JobSpec.Trace, replays).
type tracer struct {
	on      bool
	rec     *spanRec
	samples map[string][]float64
	// probeBudget is how long one layer probe samples for.
	probeBudget time.Duration
}

func newTracer(probeBudget time.Duration) *tracer {
	return &tracer{rec: newSpanRec(), samples: map[string][]float64{}, probeBudget: probeBudget}
}

func (t *tracer) active() bool { return t != nil && t.on }

// spans returns the recorder while tracing is on, nil (a recorder that
// records nothing) otherwise.
func (t *tracer) spans() *spanRec {
	if t.active() {
		return t.rec
	}
	return nil
}

// sample records one observation of a per-layer metric.
func (t *tracer) sample(name string, v float64) {
	t.samples[name] = append(t.samples[name], v)
}

// value is the reported value of a per-layer metric: the median of its
// samples, 0 when the workload never reached that layer.
func (t *tracer) value(name string) float64 { return median(t.samples[name]) }

// runShape is what one factorization's runtime events say about it.
type runShape struct {
	firings   int
	busy      map[string]float64 // fire time per class, seconds
	busyTotal float64
	window    float64 // first fire start → last fire end, over all ranks
	idle      float64 // Σ over ranks of (rank window × its lanes − its busy)
	park      float64 // Σ wait events, clipped to the window
	rankBusy  map[int]float64
	recv      float64 // Σ proxy delivery intervals
	barrier   float64 // Σ closing-barrier intervals
	critical  float64 // heaviest dependency chain of fire events
}

// shapeOf summarizes a run's events (one recorder, or merged shards).
func shapeOf(events []trace.Event) runShape {
	sh := runShape{busy: map[string]float64{}, rankBusy: map[int]float64{}}
	type rankWin struct {
		lo, hi time.Duration
		lanes  map[int]bool
	}
	ranks := map[int]*rankWin{}
	var lo, hi time.Duration
	first := true
	for _, e := range events {
		if e.Kind != trace.KindFire {
			continue
		}
		sh.firings++
		d := (e.End - e.Start).Seconds()
		sh.busy[e.Class] += d
		sh.busyTotal += d
		sh.rankBusy[e.Node] += d
		if first || e.Start < lo {
			lo = e.Start
		}
		if first || e.End > hi {
			hi = e.End
		}
		first = false
		rw := ranks[e.Node]
		if rw == nil {
			rw = &rankWin{lo: e.Start, hi: e.End, lanes: map[int]bool{}}
			ranks[e.Node] = rw
		}
		if e.Start < rw.lo {
			rw.lo = e.Start
		}
		if e.End > rw.hi {
			rw.hi = e.End
		}
		rw.lanes[e.Thread] = true
	}
	sh.window = (hi - lo).Seconds()
	for node, rw := range ranks {
		sh.idle += (rw.hi-rw.lo).Seconds()*float64(len(rw.lanes)) - sh.rankBusy[node]
	}
	for _, e := range events {
		switch e.Kind {
		case trace.KindWait:
			s, t := e.Start, e.End
			if s < lo {
				s = lo
			}
			if t > hi {
				t = hi
			}
			if t > s {
				sh.park += (t - s).Seconds()
			}
		case trace.KindRecv:
			sh.recv += (e.End - e.Start).Seconds()
		case trace.KindBarrier:
			sh.barrier += (e.End - e.Start).Seconds()
		}
	}
	sh.critical = trace.Build(events).CriticalPath().Work.Seconds()
	return sh
}

// sampleRun records the kernels/pulsar/qr samples one factorization yields;
// factorize is its wall time.
func (t *tracer) sampleRun(sh runShape, factorize float64) {
	t.sample("kernels.panel_busy_s", sh.busy[qr.ClassPanel])
	t.sample("kernels.update_busy_s", sh.busy[qr.ClassUpdate])
	t.sample("kernels.binary_busy_s", sh.busy[qr.ClassBinary])
	t.sample("kernels.binary_update_busy_s", sh.busy[qr.ClassBinaryUpdate])
	if factorize > 0 {
		t.sample("kernels.busy_share", sh.busyTotal/(threads*factorize))
	}
	t.sample("pulsar.firings", float64(sh.firings))
	t.sample("qr.factorize_s", factorize)
	t.sample("qr.serial_s", factorize-sh.window)
	t.sample("qr.critical_path_s", sh.critical)
}

// perLayer is every per-layer metric, in the order the traced run prints
// them. A metric a workload's path never reaches reads 0 on that workload;
// the probes (direct timed calls into a layer) read the same on all six.
var perLayer = []metricDef{
	{Name: "blas.dgemm_gflops", Unit: "Gflop/s", Better: "higher"},
	{Name: "blas.dtrmm_gflops", Unit: "Gflop/s", Better: "higher"},
	{Name: "kernels.dgeqrt_gflops", Unit: "Gflop/s", Better: "higher"},
	{Name: "kernels.dtsqrt_gflops", Unit: "Gflop/s", Better: "higher"},
	{Name: "kernels.dttqrt_gflops", Unit: "Gflop/s", Better: "higher"},
	{Name: "kernels.dormqr_gflops", Unit: "Gflop/s", Better: "higher"},
	{Name: "kernels.dtsmqr_gflops", Unit: "Gflop/s", Better: "higher"},
	{Name: "kernels.dttmqr_gflops", Unit: "Gflop/s", Better: "higher"},
	{Name: "kernels.panel_busy_s", Unit: "s", Better: "lower"},
	{Name: "kernels.update_busy_s", Unit: "s", Better: "lower"},
	{Name: "kernels.binary_busy_s", Unit: "s", Better: "lower"},
	{Name: "kernels.binary_update_busy_s", Unit: "s", Better: "lower"},
	{Name: "kernels.busy_share", Unit: "ratio", Better: "higher"},
	{Name: "pulsar.firings", Unit: "count", Better: "lower"},
	{Name: "pulsar.park_s", Unit: "s", Better: "lower"},
	{Name: "pulsar.fire_overhead_us", Unit: "us", Better: "lower"},
	{Name: "pulsar.rank_park_s", Unit: "s", Better: "lower"},
	{Name: "pulsar.vdp_fire_us", Unit: "us", Better: "lower"},
	{Name: "pulsar.exec_task_us", Unit: "us", Better: "lower"},
	{Name: "matrix.from_dense_s", Unit: "s", Better: "lower"},
	{Name: "qr.factorize_s", Unit: "s", Better: "lower"},
	{Name: "qr.assemble_r_s", Unit: "s", Better: "lower"},
	{Name: "qr.serial_s", Unit: "s", Better: "lower"},
	{Name: "qr.critical_path_s", Unit: "s", Better: "lower"},
	{Name: "qr.rank_busy_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "service.req_encode_s", Unit: "s", Better: "lower"},
	{Name: "service.req_json_bytes", Unit: "count", Better: "lower"},
	{Name: "service.submit_s", Unit: "s", Better: "lower"},
	{Name: "service.fetch_r_s", Unit: "s", Better: "lower"},
	{Name: "service.r_json_bytes", Unit: "count", Better: "lower"},
	{Name: "service.queue_wait_s", Unit: "s", Better: "lower"},
	{Name: "service.dispatch_s", Unit: "s", Better: "lower"},
	{Name: "service.run_s", Unit: "s", Better: "lower"},
	{Name: "service.gather_s", Unit: "s", Better: "lower"},
	{Name: "service.http_in_s", Unit: "s", Better: "lower"},
	{Name: "service.factorize_s", Unit: "s", Better: "lower"},
	{Name: "service.build_inputs_s", Unit: "s", Better: "lower"},
	{Name: "service.verify_s", Unit: "s", Better: "lower"},
	{Name: "service.run_unattributed_s", Unit: "s", Better: "lower"},
	{Name: "transport.job_msgs", Unit: "count", Better: "lower"},
	{Name: "transport.job_bytes", Unit: "count", Better: "lower"},
	{Name: "transport.comm_recv_s", Unit: "s", Better: "lower"},
	{Name: "transport.barrier_wait_s", Unit: "s", Better: "lower"},
	{Name: "transport.local_pingpong_us", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_pingpong_us", Unit: "us", Better: "lower"},
	{Name: "transport.mux_pingpong_us", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_stream_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "transport.mux_stream_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "transport.tcp_barrier_us", Unit: "us", Better: "lower"},
	{Name: "transport.mux_open_us", Unit: "us", Better: "lower"},
	{Name: "plan.decide_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.cached_decide_us", Unit: "us", Better: "lower"},
	{Name: "obs.emit_disabled_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.emit_enabled_ns", Unit: "ns", Better: "lower"},
	{Name: "batch.factor_us", Unit: "us", Better: "lower"},
	{Name: "batch.sched_direct_ops_s", Unit: "1/s", Better: "higher"},
	{Name: "batch.encode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "batch.decode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "batch.req_bytes", Unit: "count", Better: "lower"},
	{Name: "batch.resp_bytes", Unit: "count", Better: "lower"},
	{Name: "batch.wire_share", Unit: "ratio", Better: "lower"},
	{Name: "session.engine_append_us", Unit: "us", Better: "lower"},
	{Name: "session.append_encode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "session.wire_share", Unit: "ratio", Better: "lower"},
	{Name: "session.checkpoint_write_ms", Unit: "ms", Better: "lower"},
	{Name: "session.checkpoint_read_ms", Unit: "ms", Better: "lower"},
	{Name: "session.checkpoint_bytes", Unit: "count", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.host_factor", Unit: "ratio", Better: "lower"},
}
