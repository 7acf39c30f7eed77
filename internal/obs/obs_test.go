package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// The disabled observability path must be free: emitting through a nil
// observer and marking an always-on lifecycle allocate nothing. This is the
// service-layer counterpart of the kernel allocation guards.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var o *Observer
	ev := Event{Kind: EvQueued, Class: "job", Job: 7, Tenant: "t", Attempt: 1}
	if n := testing.AllocsPerRun(100, func() {
		o.Emit(ev)
	}); n != 0 {
		t.Fatalf("nil Observer.Emit allocates %v per call, want 0", n)
	}
	var l Lifecycle
	l.Mark(PhaseSubmitted)
	if n := testing.AllocsPerRun(100, func() {
		l.Mark(PhaseQueued)
		l.Mark(PhaseRunning)
	}); n != 0 {
		t.Fatalf("Lifecycle.Mark allocates %v per call, want 0", n)
	}
}

// Nil-observer accessors must be safe and empty.
func TestNilObserverSafe(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer reports enabled")
	}
	o.Emit(Event{Kind: EvDone})
	o.DumpTail("x", 5)
	if got := o.Tail(5); got != nil {
		t.Fatalf("nil Tail = %v", got)
	}
	if got := o.TailJob(1, 5); got != nil {
		t.Fatalf("nil TailJob = %v", got)
	}
	if ev, dr := o.Stats(); ev != 0 || dr != 0 {
		t.Fatalf("nil Stats = %d, %d", ev, dr)
	}
}

// The flight ring must stay within its bound and count every overwritten
// event — a tail with loss is never silently presented as complete.
func TestFlightRingBoundAndDrops(t *testing.T) {
	const capacity = 64
	r := NewRing(capacity)
	total := r.Cap() * 3
	base := time.Now()
	for i := 0; i < total; i++ {
		r.Push(Event{At: base.Add(time.Duration(i)), Kind: EvQueued, Job: uint32(i)})
	}
	if got := r.Len(); got > r.Cap() {
		t.Fatalf("ring holds %d events, cap %d", got, r.Cap())
	}
	wantDrops := int64(total - r.Len())
	if got := r.Drops(); got != wantDrops {
		t.Fatalf("drops = %d, want %d (pushed %d, resident %d)", got, wantDrops, total, r.Len())
	}
	// The tail is time-ordered and ends at the newest event.
	tail := r.Tail(10)
	if len(tail) != 10 {
		t.Fatalf("tail length %d, want 10", len(tail))
	}
	for i := 1; i < len(tail); i++ {
		if tail[i].At.Before(tail[i-1].At) {
			t.Fatalf("tail out of order at %d", i)
		}
	}
	if tail[len(tail)-1].Job != uint32(total-1) {
		t.Fatalf("tail ends at job %d, want %d", tail[len(tail)-1].Job, total-1)
	}
}

func TestFlightRingConcurrent(t *testing.T) {
	r := NewRing(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Push(Event{At: time.Now(), Kind: EvRunning, Job: uint32(g*1000 + i)})
				if i%64 == 0 {
					r.Tail(16)
				}
			}
		}(g)
	}
	wg.Wait()
	if r.Len() > r.Cap() {
		t.Fatalf("ring grew past cap: %d > %d", r.Len(), r.Cap())
	}
}

// TailJob filters by job id, the shape attached to failed-job records.
func TestTailJob(t *testing.T) {
	o := New(Options{})
	for i := 0; i < 10; i++ {
		o.Emit(Event{Kind: EvQueued, Job: uint32(i % 2)})
	}
	tail := o.TailJob(1, 3)
	if len(tail) != 3 {
		t.Fatalf("tail = %d events, want 3", len(tail))
	}
	for _, e := range tail {
		if e.Job != 1 {
			t.Fatalf("tail leaked job %d", e.Job)
		}
	}
}

// Lifecycle property test: for any transition sequence the accumulated
// spans are non-negative, monotone over time, and their sum equals the
// submitted→terminal wall time exactly.
func TestLifecycleSpanAccounting(t *testing.T) {
	seqs := [][]Phase{
		{PhaseSubmitted, PhaseQueued, PhaseDispatched, PhaseRunning, PhaseGathering, PhaseTerminal},
		{PhaseSubmitted, PhaseQueued, PhaseTerminal}, // dropped at dispatch
		{PhaseSubmitted, PhaseQueued, PhaseDispatched, PhaseRunning, // retry loop
			PhaseQueued, PhaseDispatched, PhaseRunning, PhaseTerminal},
		{PhaseSubmitted, PhaseTerminal},
	}
	for si, seq := range seqs {
		var l Lifecycle
		base := time.Now()
		at := base
		for i, p := range seq {
			at = base.Add(time.Duration(i*i) * 7 * time.Millisecond)
			l.MarkAt(p, at)
		}
		sp := l.Snapshot()
		if !sp.Terminal {
			t.Fatalf("seq %d: not terminal after terminal mark", si)
		}
		for name, d := range map[string]time.Duration{
			"queue_wait": sp.QueueWait, "dispatch": sp.Dispatch, "run": sp.Run, "gather": sp.Gather,
		} {
			if d < 0 {
				t.Fatalf("seq %d: negative %s span %v", si, name, d)
			}
		}
		sum := sp.QueueWait + sp.Dispatch + sp.Run + sp.Gather
		if sum != sp.Total {
			t.Fatalf("seq %d: span sum %v != total %v", si, sum, sp.Total)
		}
		if want := at.Sub(base); sp.Total != want {
			t.Fatalf("seq %d: total %v, want wall %v", si, sp.Total, want)
		}
		// Marks after terminal are ignored.
		l.MarkAt(PhaseRunning, at.Add(time.Hour))
		if sp2 := l.Snapshot(); sp2.Total != sp.Total {
			t.Fatalf("seq %d: post-terminal mark changed total %v -> %v", si, sp.Total, sp2.Total)
		}
	}
}

// A live snapshot includes the current phase's partial dwell, and totals
// only grow.
func TestLifecycleLiveMonotone(t *testing.T) {
	var l Lifecycle
	l.Mark(PhaseSubmitted)
	l.Mark(PhaseQueued)
	s1 := l.Snapshot()
	time.Sleep(2 * time.Millisecond)
	s2 := l.Snapshot()
	if s2.Total < s1.Total || s2.QueueWait < s1.QueueWait {
		t.Fatalf("live totals shrank: %+v -> %+v", s1, s2)
	}
	if sum := s2.QueueWait + s2.Dispatch + s2.Run + s2.Gather; sum != s2.Total {
		t.Fatalf("live span sum %v != total %v", sum, s2.Total)
	}
}

// The slog bridge renders one JSON record per event with the event's
// fields, at a severity matching the kind.
func TestEmitStructuredLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	o := New(Options{Logger: logger})
	o.Emit(Event{Kind: EvShed, Class: "batch", Tenant: "acme", RetryS: 3, Detail: "capacity"})
	o.Emit(Event{Kind: EvDone, Job: 42, DurMS: 12.5})

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want 2:\n%s", len(lines), buf.String())
	}
	var shed map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &shed); err != nil {
		t.Fatalf("bad JSON log line: %v", err)
	}
	if shed["msg"] != string(EvShed) || shed["level"] != "WARN" ||
		shed["class"] != "batch" || shed["tenant"] != "acme" || shed["retry_after_s"] != float64(3) {
		t.Fatalf("shed record = %v", shed)
	}
	var done map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &done); err != nil {
		t.Fatalf("bad JSON log line: %v", err)
	}
	if done["msg"] != string(EvDone) || done["level"] != "INFO" || done["job"] != float64(42) {
		t.Fatalf("done record = %v", done)
	}
}

// DumpTail writes the recorder's recent events to the log — the eviction
// postmortem.
func TestDumpTail(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelWarn}))
	o := New(Options{Logger: logger})
	for i := 0; i < 5; i++ {
		o.Emit(Event{Kind: EvQueued, Job: uint32(i + 1)})
	}
	o.DumpTail("rank 2 evicted", 3)
	out := buf.String()
	if !strings.Contains(out, "flight_dump") || !strings.Contains(out, "rank 2 evicted") {
		t.Fatalf("dump header missing:\n%s", out)
	}
	if got := strings.Count(out, "flight_event"); got != 3 {
		t.Fatalf("dumped %d events, want 3:\n%s", got, out)
	}
}

func TestEventJSONShape(t *testing.T) {
	e := Event{At: time.Unix(1, 0).UTC(), Kind: EvRetry, Job: 9, Attempt: 2, Detail: "rank 1 died"}
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"kind":"job_retry"`, `"job":9`, `"attempt":2`} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("marshal %s missing %s", b, want)
		}
	}
	if strings.Contains(string(b), "bytes") {
		t.Fatalf("zero fields not omitted: %s", b)
	}
	_ = fmt.Sprintf("%v", e) // events must be printable values
}
