package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"pulsarqr/internal/obs"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", tc.n, got, tc.want)
		}
		// The rule itself: ten samples beyond the chosen percentile, or
		// the median when no tail has them.
		if got := tailPercentile(tc.n); got > 50 && float64(tc.n)*(100-got)/100 < 10 {
			t.Errorf("tailPercentile(%d) = p%g leaves fewer than ten samples beyond it", tc.n, got)
		}
	}
}

// The spreads the benchmark prints must be the ones its contract checks:
// Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(4,1,2) = %g, %g, want 1, 4", q1, q3)
	}
	if s := spread([]float64{10, 10, 10, 10}); s != 0 {
		t.Errorf("spread of a constant = %g, want 0", s)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// sleepEnv is a workload whose op is a nap.
type sleepEnv struct{}

func (sleepEnv) op(int) error      { time.Sleep(time.Millisecond); return nil }
func (sleepEnv) verify(int) error  { return nil }
func (sleepEnv) oracle() error     { return nil }
func (sleepEnv) collect(int) error { return nil }
func (sleepEnv) close()            {}

// Every timed op is divided by the host factor read around it, and the
// clock's own reading is kept beside it.
func TestMeasureAdjustsByHostFactor(t *testing.T) {
	hp := newHostProbe()
	if f := hp.factor(); !(f > 0) || math.IsInf(f, 0) {
		t.Fatalf("host factor = %g, want a positive number", f)
	}
	ps := measure(sleepEnv{}, hp, 0, 0, 5, false)
	if ps.attempted != 5 || ps.failed != 0 || len(ps.latencies) != 5 || len(ps.raw) != 5 || len(ps.factors) != 5 {
		t.Fatalf("pass = %+v, want five clean ops", ps)
	}
	for i := range ps.raw {
		if ps.raw[i] < 1e-3 {
			t.Errorf("op %d read %g s on the clock, it napped for 1 ms", i, ps.raw[i])
		}
		if !near(ps.latencies[i]*ps.factors[i], ps.raw[i]) {
			t.Errorf("op %d: adjusted %g × factor %g is not the clock's %g", i, ps.latencies[i], ps.factors[i], ps.raw[i])
		}
	}
	if !near(ps.wall, sum(ps.latencies)) {
		t.Errorf("wall = %g, want the sum of the adjusted op times %g", ps.wall, sum(ps.latencies))
	}
	if got := around(1, 2); got != 1.5 {
		t.Errorf("around(1, 2) = %g, want 1.5", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "a", Start: 1, End: 3},
		{ID: 2, Parent: 0, Name: "b", Start: 2, End: 5},  // overlaps a: counted once
		{ID: 3, Parent: 0, Name: "c", Start: 8, End: 12}, // clipped to the parent
		{ID: 4, Parent: 2, Name: "d", Start: 2, End: 4},
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{0: 4, 1: 2, 2: 1, 3: 4, 4: 2} {
		if !near(self[id], want) {
			t.Errorf("self time of span %d = %g, want %g", id, self[id], want)
		}
	}
}

// The job_* budget telescopes: the op is tiled by the three client spans,
// http.submit by its self time (http_in) plus the server's four phases, and
// run by its self time (unattributed) plus its three activities — so the
// self times of the whole tree sum to the op latency.
func TestJobBudgetTelescopes(t *testing.T) {
	sp := newSpanRec()
	op := sp.add("op", -1, 7, 0, 1.0, false)
	sp.add("client.encode", op, 7, 0, 0.1, false)
	submit := sp.add("http.submit", op, 7, 0.1, 0.8, false)
	sp.add("http.fetch_r", op, 7, 0.8, 1.0, false)
	run := serverSpans(sp, sp.spans[submit], obs.SpanReport{
		QueueWaitMS: 50, DispatchMS: 50, RunMS: 400, GatherMS: 100, TotalMS: 600})
	runSpans(sp, sp.spans[run], 0.1, 0.2, 0.05)

	self := selfTimes(sp.spans)
	want := map[string]float64{
		"op": 0, "client.encode": 0.1, "http.submit": 0.1, "http.fetch_r": 0.2,
		"queue_wait": 0.05, "dispatch": 0.05, "run": 0.05, "gather": 0.1,
		"build_inputs": 0.1, "factorize": 0.2, "verify": 0.05,
	}
	total := 0.0
	for _, s := range sp.spans {
		w, ok := want[s.Name]
		if !ok {
			t.Fatalf("unexpected span %q", s.Name)
		}
		if !near(self[s.ID], w) {
			t.Errorf("self time of %s = %g, want %g", s.Name, self[s.ID], w)
		}
		if s.Op != 7 {
			t.Errorf("span %s carries op %d, want 7", s.Name, s.Op)
		}
		total += self[s.ID]
	}
	if !near(total, sp.spans[op].dur()) {
		t.Errorf("self times sum to %g, op latency is %g", total, sp.spans[op].dur())
	}
	if r := sp.spans[run]; !near(r.Start, 0.3) || !near(r.End, 0.7) {
		t.Errorf("run span at [%g, %g], want [0.3, 0.7]: phases must end where http.submit ends", r.Start, r.End)
	}
	if len(byOp(sp.spans)[7]) != len(sp.spans) {
		t.Errorf("byOp lost spans of op 7")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.07}
	higher := metricDef{Name: "gflops", Better: "higher", Bound: 0.07}
	s := func(vs ...float64) series { return newSeries("", vs) }
	for _, tc := range []struct {
		name string
		a, b series
		d    metricDef
		want string
	}{
		{"within bound", s(100, 101, 102), s(103, 104, 105), lower, same},
		{"slower", s(100, 101, 102), s(110, 111, 112), lower, regressed},
		{"faster", s(100, 101, 102), s(90, 91, 92), lower, improved},
		{"rate dropped", s(10, 10.1, 10.2), s(9, 9.1, 9.2), higher, regressed},
		{"rate rose", s(10, 10.1, 10.2), s(11, 11.1, 11.2), higher, improved},
		{"noisy parent", s(80, 100, 120), s(100, 101, 102), lower, unresolved},
		{"noisy change", s(100, 101, 102), s(80, 100, 130), lower, unresolved},
		{"noisy but every run better", s(80, 100, 120), s(50, 60, 70), lower, improved},
	} {
		if got := verdict(tc.a, tc.b, tc.d); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	mk := func(latency ...float64) results {
		r := results{Commit: "c", Runs: len(latency), Seconds: runSeconds, Workloads: map[string]workloadResult{}}
		for _, w := range workloads {
			wr := workloadResult{EndToEnd: map[string]series{}, Attempted: []int{10}, Failed: []int{0}}
			for _, d := range endToEnd {
				wr.EndToEnd[d.Name] = newSeries(d.Unit, []float64{1, 1, 1})
			}
			wr.EndToEnd["latency_p50_ms"] = newSeries("ms", latency)
			r.Workloads[w.name] = wr
		}
		return r
	}
	dir := t.TempDir()
	write := func(name string, r results) string {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := write("a.json", mk(100, 101, 102)), write("b.json", mk(101, 102, 103)), write("c.json", mk(120, 121, 122))
	// A bound of this test's own, so the verdicts do not move with the
	// benchmark's.
	defs := []metricDef{{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.07}, endToEnd[0]}
	var out bytes.Buffer
	if reg, err := compareFiles(&out, a, b, defs); err != nil || reg {
		t.Errorf("a vs b: regressed=%v err=%v, want a clean pass\n%s", reg, err, out.String())
	}
	out.Reset()
	reg, err := compareFiles(&out, a, c, defs)
	if err != nil || !reg {
		t.Errorf("a vs c: regressed=%v err=%v, want a regression", reg, err)
	}
	if n := strings.Count(out.String(), regressed); n != len(workloads) {
		t.Errorf("a vs c reports %d regressions, want one per workload (%d)\n%s", n, len(workloads), out.String())
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the code emits,
// inside the limits its contract sets.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if got := strings.Join(spec.Command, " "); got != "go run ./bench" {
		t.Errorf("command = %q, want go run ./bench", got)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the code measures for %d", spec.RunSeconds, runSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := spec.Workloads[i]
		checkName(got.Name)
		if got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d is %q (%q), the code has %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if len(got.Why) > 200 || strings.Contains(got.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", got.Name)
		}
	}
	sameDefs := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code emits %d", kind, len(got), len(want))
		}
		for i := range want {
			checkName(got[i].Name)
			if got[i] != want[i] {
				t.Errorf("%s metric %d is %+v, the code has %+v", kind, i, got[i], want[i])
			}
			if !unit.MatchString(got[i].Unit) {
				t.Errorf("%s: unit %q is outside the contract's alphabet or length", got[i].Name, got[i].Unit)
			}
			if got[i].Better != "lower" && got[i].Better != "higher" {
				t.Errorf("%s: better = %q", got[i].Name, got[i].Better)
			}
		}
	}
	sameDefs("end_to_end", spec.EndToEnd, endToEnd)
	sameDefs("per_layer", spec.PerLayer, perLayer)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(perLayer), len(endToEnd))
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" {
		t.Errorf("the contract requires setup_s in s, lower is better; got %+v", d)
	}
}

// The smoke pass: every workload, untraced and traced, on tiny shapes and
// two ops — so the harness cannot rot between full runs.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			p := params{seed: 1, seconds: 1, smoke: true, outDir: t.TempDir()}
			var log bytes.Buffer
			o, err := runUntraced(w, p, &log)
			if err != nil {
				t.Fatalf("untraced: %v\n%s", err, log.String())
			}
			if !o.Correct || o.Failed != 0 || o.Attempted != 3 { // the oracle's op and two measured
				t.Errorf("untraced: correct=%v attempted=%d failed=%d\n%s", o.Correct, o.Attempted, o.Failed, log.String())
			}
			if len(o.Metrics) != len(endToEnd) {
				t.Errorf("untraced run printed %d metrics, want %d", len(o.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if m, ok := o.Metrics[d.Name]; !ok || !(m.Value > 0) || m.Unit != d.Unit {
					t.Errorf("untraced %s = %+v (present %v): every end-to-end metric must be positive", d.Name, m, ok)
				}
			}

			log.Reset()
			o, err = runTraced(w, p, &log)
			if err != nil {
				t.Fatalf("traced: %v\n%s", err, log.String())
			}
			if !o.Correct || o.Failed != 0 {
				t.Errorf("traced: correct=%v failed=%d\n%s", o.Correct, o.Failed, log.String())
			}
			if len(o.Metrics) != len(perLayer) {
				t.Errorf("traced run printed %d metrics, want %d", len(o.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if _, ok := o.Metrics[d.Name]; !ok {
					t.Errorf("traced run did not print %s", d.Name)
				}
			}
			checkTrace(t, w.name, filepath.Join(p.outDir, "trace-"+w.name+".jsonl"))
		})
	}
}

// checkTrace reads a trace file back and holds it to the layer budget: on
// the workloads whose ops have layer spans, those spans tile the op.
func checkTrace(t *testing.T, workload, path string) {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	dec := json.NewDecoder(f)
	for {
		var s span
		if err := dec.Decode(&s); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
	}
	ops := byOp(spans)
	if len(ops) != 2 {
		t.Fatalf("%s holds spans of %d ops, want 2", path, len(ops))
	}
	var children []string
	switch {
	case strings.HasPrefix(workload, "factor_"):
		children = []string{"matrix.from_dense", "qr.factorize", "qr.assemble_r"}
	case strings.HasPrefix(workload, "job_"):
		children = []string{"client.encode", "http.submit", "http.fetch_r", "queue_wait", "dispatch", "run", "gather"}
	}
	self := selfTimes(spans)
	for id, s := range ops {
		op, ok := find(s, "op")
		if !ok {
			t.Fatalf("op %d has no op span", id)
		}
		for _, name := range children {
			if _, ok := find(s, name); !ok {
				t.Errorf("op %d has no %s span", id, name)
			}
		}
		if len(children) > 0 && self[op.ID] > 0.02*op.dur() {
			t.Errorf("op %d: %.3g s of %.3g s lies outside every layer span (more than 2%%)", id, self[op.ID], op.dur())
		}
	}
}

// byOp groups spans by their op id.
func byOp(spans []span) map[int][]span {
	out := map[int][]span{}
	for _, s := range spans {
		out[s.Op] = append(out[s.Op], s)
	}
	return out
}

// find returns the first span of that name among spans.
func find(spans []span, name string) (span, bool) {
	for _, s := range spans {
		if s.Name == name {
			return s, true
		}
	}
	return span{}, false
}
