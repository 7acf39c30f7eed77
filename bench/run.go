package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// endToEnd is every end-to-end metric with the share of the parent's median
// by which it may worsen before a change counts as a regression.
// BENCHMARK.json carries the same table.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "gflops", Unit: "Gflop/s", Better: "higher", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// runSeconds is how long one run measures; BENCHMARK.json's run_seconds.
const runSeconds = 15

// setups is how many times an untraced run sets the workload up; setup_s is
// their median.
const setups = 3

// params is one run's command line.
type params struct {
	seed    int64
	seconds float64
	smoke   bool   // tiny shapes, two ops, one set-up: keeps the harness tested
	outDir  string // where trace files and probe scratch go
}

func (p params) sizes() sizes {
	if p.smoke {
		return smokeSizes
	}
	return fullSizes
}

// measured is one metric value as the result line carries it.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line: the last line a run prints.
type outcome struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// checkOracle runs the workload's full oracle. Its op counts as attempted,
// and as failed when the oracle rejects it.
func (o *outcome) checkOracle(e env, log io.Writer) {
	o.Attempted++
	if err := e.oracle(); err != nil {
		fmt.Fprintf(log, "ORACLE FAILED: %v\n", err)
		o.Failed++
		o.Correct = false
	}
}

// add folds one measured pass into the outcome.
func (o *outcome) add(ps pass, log io.Writer) {
	o.Attempted += ps.attempted
	o.Failed += ps.failed
	if ps.firstErr != nil {
		fmt.Fprintf(log, "FAILED OPS: %d of %d, first: %v\n", ps.failed, ps.attempted, ps.firstErr)
		o.Correct = false
	}
}

// setUp boots the workload and runs its warm-up ops.
func setUp(w workload, r rig) (env, error) {
	e, err := w.setup(r)
	if err != nil {
		return nil, err
	}
	for i := 0; i < w.warmups; i++ {
		if err := e.op(i); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return e, nil
}

// pass is one measured closed loop: ops one after another from a single
// caller until the time is up.
type pass struct {
	latencies []float64 // seconds, of the ops that succeeded, each divided by its host factor
	raw       []float64 // the same ops as the clock read them
	factors   []float64 // host factor of every attempted op
	attempted int
	failed    int
	wall      float64 // Σ adjusted op time, failed ops included
	firstErr  error
}

// measure runs ops for about seconds (at least minOps, exactly ops when ops
// > 0). Only e.op is timed; the host probe before and after it, verification
// and trace collection happen between ops with the clock stopped.
func measure(e env, hp *hostProbe, seconds float64, minOps, ops int, collect bool) pass {
	var p pass
	fail := func(err error) {
		p.failed++
		if p.firstErr == nil {
			p.firstErr = err
		}
	}
	start := time.Now()
	for i := 0; ; i++ {
		if ops > 0 && i >= ops {
			break
		}
		if ops <= 0 && i >= minOps && time.Since(start).Seconds() >= seconds {
			break
		}
		p.attempted++
		before := hp.factor()
		t0 := time.Now()
		err := e.op(i)
		raw := time.Since(t0).Seconds()
		f := around(before, hp.factor())
		dt := raw / f
		p.factors = append(p.factors, f)
		p.wall += dt
		if err != nil {
			fail(fmt.Errorf("op %d: %w", i, err))
			continue
		}
		if err := e.verify(i); err != nil {
			fail(fmt.Errorf("op %d: oracle: %w", i, err))
			continue
		}
		p.latencies = append(p.latencies, dt)
		p.raw = append(p.raw, raw)
		if collect {
			if err := e.collect(i); err != nil {
				fail(fmt.Errorf("op %d: trace: %w", i, err))
			}
		}
	}
	return p
}

// runUntraced produces the end-to-end metrics of one workload. Every time
// among them is host-adjusted: divided by the host factor read around it.
func runUntraced(w workload, p params, log io.Writer) (outcome, error) {
	r := rig{seed: p.seed, sz: p.sizes()}
	nSetups, minOps, ops := setups, 5, 0
	if p.smoke {
		nSetups, ops = 1, 2
	}
	hp := newHostProbe()
	var e env
	var setupTimes, setupRaw []float64
	for k := 0; k < nSetups; k++ {
		if e != nil {
			e.close()
		}
		before := hp.factor()
		t0 := time.Now()
		var err error
		if e, err = setUp(w, r); err != nil {
			return outcome{}, fmt.Errorf("set-up: %w", err)
		}
		raw := time.Since(t0).Seconds()
		setupRaw = append(setupRaw, raw)
		setupTimes = append(setupTimes, raw/around(before, hp.factor()))
	}
	defer e.close()

	out := outcome{Correct: true, Metrics: map[string]measured{}}
	out.checkOracle(e, log)

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	ps := measure(e, hp, p.seconds, minOps, ops, false)
	runtime.ReadMemStats(&m1)
	out.add(ps, log)

	ok := float64(len(ps.latencies))
	ms := scaled(ps.latencies, 1e3)
	vals := map[string]float64{
		"setup_s":         median(setupTimes),
		"gflops":          ok * w.flops(r.sz) / ps.wall / 1e9,
		"ops_per_s":       ok / ps.wall,
		"latency_p50_ms":  percentile(ms, 50),
		"alloc_mb_per_op": float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(ps.attempted),
		"peak_rss_mb":     peakRSSMB(),
	}
	fmt.Fprintf(log, "%s  untraced  seed %d  %d ops in %.2f s on the clock (%d failed), %d set-ups\n",
		w.name, p.seed, ps.attempted, sum(ps.raw), ps.failed, nSetups)
	for _, d := range endToEnd {
		out.Metrics[d.Name] = measured{vals[d.Name], d.Unit}
		fmt.Fprintf(log, "  %-28s %14.6g %-8s n=%d\n", d.Name, vals[d.Name], d.Unit, sampleCount(d.Name, len(ms), nSetups))
	}
	// The tail is printed, not gated: it is the highest percentile with ten
	// samples beyond it, so which one it is moves with the op count.
	if tail := tailPercentile(len(ms)); tail > 50 {
		fmt.Fprintf(log, "  %-28s %14.6g %-8s n=%d\n", fmt.Sprintf("latency_p%.0f_ms (tail)", tail), percentile(ms, tail), "ms", len(ms))
	} else {
		fmt.Fprintf(log, "  no tail: %d samples leave fewer than ten beyond any percentile above the median\n", len(ms))
	}
	rawMS := scaled(ps.raw, 1e3)
	fmt.Fprintf(log, "  host factor %.3f (quartiles %.3f, %.3f); as the clock read them: setup_s %.6g, ops_per_s %.6g, latency_p50_ms %.6g\n",
		median(ps.factors), percentile(ps.factors, 25), percentile(ps.factors, 75),
		median(setupRaw), ok/sum(ps.raw), percentile(rawMS, 50))
	return out, nil
}

// scaled returns xs multiplied by k.
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// sampleCount is the number of samples behind an end-to-end metric.
func sampleCount(name string, ops, nSetups int) int {
	switch name {
	case "setup_s":
		return nSetups
	case "peak_rss_mb":
		return 1
	}
	return ops
}

// runTraced produces the per-layer metrics of one workload: a short
// untraced pass and a traced pass over the same set-up (their median
// latencies give the tracing overhead), then the layer probes.
func runTraced(w workload, p params, log io.Writer) (outcome, error) {
	budget := 60 * time.Millisecond
	if p.smoke {
		budget = 2 * time.Millisecond
	}
	t := newTracer(budget)
	r := rig{seed: p.seed, sz: p.sizes(), tr: t}
	e, err := setUp(w, r)
	if err != nil {
		return outcome{}, fmt.Errorf("set-up: %w", err)
	}
	defer e.close()
	out := outcome{Correct: true, Metrics: map[string]measured{}}
	out.checkOracle(e, log)

	// Each pass gets a quarter of the run: the rest is for the probes.
	minOps, ops := 3, 0
	if p.smoke {
		ops = 2
	}
	hp := newHostProbe()
	plain := measure(e, hp, p.seconds/4, minOps, ops, false)
	t.on = true
	traced := measure(e, hp, p.seconds/4, minOps, ops, true)
	t.on = false
	out.add(plain, log)
	out.add(traced, log)
	// The two passes run one after the other, so their host-adjusted
	// latencies are the ones to compare; what is set against a layer probe
	// below is the latency as the clock read it, like the probe's own time.
	if base := median(plain.latencies); base > 0 {
		t.sample("bench.trace_overhead_ratio", median(traced.latencies)/base-1)
	}
	t.sample("bench.host_factor", median(append(plain.factors, traced.factors...)))
	p50 := median(traced.raw)

	if err := probeAll(t, r, p.outDir); err != nil {
		return outcome{}, fmt.Errorf("probe: %w", err)
	}
	// The share of an op that is not the engine: what the wire, the codec
	// and the HTTP stream cost on top of the layer run directly.
	switch w.name {
	case "batch_small":
		t.sample("batch.wire_share", 1-(1/t.value("batch.sched_direct_ops_s"))/p50)
	case "session_append":
		engine := t.value("session.engine_append_us") / 1e6 * float64(r.sz.sessBlocks)
		t.sample("session.wire_share", 1-engine/p50)
	}

	tracePath := filepath.Join(p.outDir, "trace-"+w.name+".jsonl")
	if err := t.rec.write(tracePath); err != nil {
		return outcome{}, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(log, "%s  traced  seed %d  %d traced ops, %d spans in %s\n",
		w.name, p.seed, traced.attempted, len(t.rec.spans), tracePath)
	for _, d := range perLayer {
		v := t.value(d.Name)
		out.Metrics[d.Name] = measured{v, d.Unit}
		fmt.Fprintf(log, "  %-30s %14.6g %-8s n=%d\n", d.Name, v, d.Unit, len(t.samples[d.Name]))
	}
	printBudget(log, t.rec.spans)
	return out, nil
}

// printBudget says how much of the op latency the spans below it account
// for: the op span's self time, as a share of the op, is what no layer span
// covers. Workloads whose ops carry no layer spans (batch_small,
// session_append) have no budget to print.
func printBudget(log io.Writer, spans []span) {
	self := selfTimes(spans)
	var total, uncovered float64
	layered := false
	for _, s := range spans {
		if s.Parent == -1 {
			total += s.dur()
			uncovered += self[s.ID]
		} else {
			layered = true
		}
	}
	if layered && total > 0 {
		fmt.Fprintf(log, "  budget: layer spans cover %.2f%% of op latency (op self time %.3g s of %.3g s)\n",
			100*(1-uncovered/total), uncovered, total)
	}
}

// peakRSSMB is the process's high-water resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}
