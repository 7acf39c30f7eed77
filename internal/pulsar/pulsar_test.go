package pulsar

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/tuple"
)

func TestMatCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := matrix.NewRand(rng.Intn(10)+1, rng.Intn(10)+1, rng)
		b, err := MarshalPacket(NewPacket(m))
		if err != nil {
			return false
		}
		p, err := UnmarshalPacket(b)
		return err == nil && matrix.MaxAbsDiff(m, p.Tile()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPacketCodecs(t *testing.T) {
	cases := []any{
		[]float64{1.5, -2.5, 3},
		[]int{4, -5, 6},
		[]byte{7, 8},
		matrix.Identity(3),
	}
	for _, c := range cases {
		b, err := MarshalPacket(NewPacket(c))
		if err != nil {
			t.Fatalf("marshal %T: %v", c, err)
		}
		p, err := UnmarshalPacket(b)
		if err != nil {
			t.Fatalf("unmarshal %T: %v", c, err)
		}
		switch v := c.(type) {
		case *matrix.Mat:
			if matrix.MaxAbsDiff(v, p.Data.(*matrix.Mat)) != 0 {
				t.Fatal("matrix payload corrupted")
			}
		case []float64:
			got := p.Data.([]float64)
			for i := range v {
				if got[i] != v[i] {
					t.Fatal("float64 payload corrupted")
				}
			}
		case []int:
			got := p.Data.([]int)
			for i := range v {
				if got[i] != v[i] {
					t.Fatal("int payload corrupted")
				}
			}
		case []byte:
			got := p.Data.([]byte)
			for i := range v {
				if got[i] != v[i] {
					t.Fatal("byte payload corrupted")
				}
			}
		}
	}
	if _, err := MarshalPacket(NewPacket(struct{}{})); err == nil {
		t.Fatal("marshaling an unregistered type must fail")
	}
}

// buildChain creates a linear pipeline of n VDPs; each adds its index to
// the integer payload and forwards it. Returns the VSA.
func buildChain(cfg Config, n, packets int) *VSA {
	s := New(cfg)
	for i := 0; i < n; i++ {
		i := i
		s.NewVDP(tuple.New(i), packets, func(v *VDP) {
			p := v.Pop(0)
			vals := p.Data.([]int)
			out := append(append([]int{}, vals...), i)
			v.Push(0, NewPacket(out))
		}, "stage", 1, 1)
	}
	for i := 0; i+1 < n; i++ {
		s.Connect(tuple.New(i), 0, tuple.New(i+1), 0, 1024, false)
	}
	s.Input(tuple.New(0), 0, 1024)
	s.Output(tuple.New(n-1), 0, 1024)
	return s
}

func TestPipelineSingleNode(t *testing.T) {
	s := buildChain(Config{Nodes: 1, ThreadsPerNode: 2}, 5, 3)
	for k := 0; k < 3; k++ {
		s.Inject(tuple.New(0), 0, NewPacket([]int{100 + k}))
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	out := s.Collected(tuple.New(4), 0)
	if len(out) != 3 {
		t.Fatalf("collected %d packets, want 3", len(out))
	}
	for k, p := range out {
		want := []int{100 + k, 0, 1, 2, 3, 4}
		got := p.Data.([]int)
		if len(got) != len(want) {
			t.Fatalf("packet %d: %v", k, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("packet %d: got %v want %v", k, got, want)
			}
		}
	}
	if s.Fired() != 15 {
		t.Fatalf("fired %d, want 15", s.Fired())
	}
}

func TestPipelineMultiNode(t *testing.T) {
	// Chain spread over 3 nodes: packets must cross node boundaries
	// through marshaled proxy traffic and arrive intact and in order.
	cfg := Config{
		Nodes: 3, ThreadsPerNode: 2,
		Map: func(tp tuple.Tuple) (int, int) { return tp.At(0) % 3, tp.At(0) % 2 },
	}
	s := buildChain(cfg, 9, 4)
	for k := 0; k < 4; k++ {
		s.Inject(tuple.New(0), 0, NewPacket([]int{k}))
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	out := s.Collected(tuple.New(8), 0)
	if len(out) != 4 {
		t.Fatalf("collected %d packets", len(out))
	}
	for k, p := range out {
		got := p.Data.([]int)
		if got[0] != k || len(got) != 10 {
			t.Fatalf("packet %d corrupted: %v", k, got)
		}
		for i := 0; i < 9; i++ {
			if got[i+1] != i {
				t.Fatalf("packet %d hop order wrong: %v", k, got)
			}
		}
	}
}

func TestInterNodeTilePayload(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tile := matrix.NewRand(7, 5, rng)
	cfg := Config{
		Nodes: 2, ThreadsPerNode: 1,
		Map: func(tp tuple.Tuple) (int, int) { return tp.At(0), 0 },
	}
	s := New(cfg)
	s.NewVDP(tuple.New(0), 1, func(v *VDP) {
		p := v.Pop(0)
		v.Push(0, p)
	}, "", 1, 1)
	var got *matrix.Mat
	s.NewVDP(tuple.New(1), 1, func(v *VDP) {
		got = v.Pop(0).Tile()
	}, "", 1, 0)
	s.Connect(tuple.New(0), 0, tuple.New(1), 0, 8*7*5+16, false)
	s.Input(tuple.New(0), 0, 0)
	s.Inject(tuple.New(0), 0, NewPacket(tile))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || matrix.MaxAbsDiff(got, tile) != 0 {
		t.Fatal("tile corrupted across nodes")
	}
	if got == tile {
		t.Fatal("inter-node transport must copy, not alias")
	}
}

func TestIntraNodeZeroCopy(t *testing.T) {
	tile := matrix.Identity(4)
	s := New(Config{Nodes: 1, ThreadsPerNode: 1})
	s.NewVDP(tuple.New(0), 1, func(v *VDP) { v.Push(0, v.Pop(0)) }, "", 1, 1)
	var got *matrix.Mat
	s.NewVDP(tuple.New(1), 1, func(v *VDP) { got = v.Pop(0).Tile() }, "", 1, 0)
	s.Connect(tuple.New(0), 0, tuple.New(1), 0, 0, false)
	s.Input(tuple.New(0), 0, 0)
	s.Inject(tuple.New(0), 0, NewPacket(tile))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != tile {
		t.Fatal("intra-node transport must alias the same tile")
	}
}

func TestCounterLifeSpan(t *testing.T) {
	var fires int
	s := New(Config{})
	s.NewVDP(tuple.New(0), 4, func(v *VDP) {
		v.Pop(0)
		fires++
	}, "", 1, 0)
	s.Input(tuple.New(0), 0, 0)
	for i := 0; i < 4; i++ {
		s.Inject(tuple.New(0), 0, NewPacket([]int{i}))
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fires != 4 {
		t.Fatalf("fired %d times, want 4", fires)
	}
}

func TestMultiInputFiringRule(t *testing.T) {
	// A VDP with two inputs must wait until both hold packets.
	var order []string
	var mu sync.Mutex
	s := New(Config{Nodes: 1, ThreadsPerNode: 1})
	s.NewVDP(tuple.New(0), 1, func(v *VDP) {
		a := v.Pop(0).Data.([]int)[0]
		b := v.Pop(1).Data.([]int)[0]
		mu.Lock()
		order = append(order, fmt.Sprintf("join:%d+%d", a, b))
		mu.Unlock()
	}, "", 2, 0)
	s.Input(tuple.New(0), 0, 0)
	s.Input(tuple.New(0), 1, 0)
	s.Inject(tuple.New(0), 0, NewPacket([]int{1}))
	go func() {
		time.Sleep(20 * time.Millisecond)
		s.Inject(tuple.New(0), 1, NewPacket([]int{2}))
	}()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 1 || order[0] != "join:1+2" {
		t.Fatalf("order = %v", order)
	}
}

func TestDisabledChannelHandOff(t *testing.T) {
	// Mirrors the QR hand-off: consumer processes N packets from channel 0
	// with channel 1 disabled, then enables channel 1 and consumes from it.
	const n = 3
	s := New(Config{Nodes: 1, ThreadsPerNode: 2})
	s.NewVDP(tuple.New(0), 1, func(v *VDP) {
		// Producer for the late channel; its packet arrives early and must
		// sit in the disabled channel without triggering the consumer.
		v.Push(0, NewPacket([]int{99}))
	}, "", 0, 1)
	var got []int
	s.NewVDP(tuple.New(1), n+1, func(v *VDP) {
		st, _ := v.Local().(int)
		if st < n {
			got = append(got, v.Pop(0).Data.([]int)[0])
			if st == n-1 {
				v.DisableInput(0)
				v.EnableInput(1)
			}
		} else {
			got = append(got, v.Pop(1).Data.([]int)[0])
		}
		v.SetLocal(st + 1)
	}, "", 2, 0)
	s.Connect(tuple.New(0), 0, tuple.New(1), 1, 0, true) // starts disabled
	s.Input(tuple.New(1), 0, 0)
	for i := 0; i < n; i++ {
		s.Inject(tuple.New(1), 0, NewPacket([]int{i}))
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 99}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestDestroyInput(t *testing.T) {
	s := New(Config{})
	s.NewVDP(tuple.New(0), 2, func(v *VDP) {
		st, _ := v.Local().(int)
		if st == 0 {
			v.Pop(0)
			v.DestroyInput(1) // never deliverable; stop gating on it
		} else {
			v.Pop(0)
		}
		v.SetLocal(st + 1)
	}, "", 2, 0)
	s.Input(tuple.New(0), 0, 0)
	s.Input(tuple.New(0), 1, 0)
	s.Inject(tuple.New(0), 0, NewPacket([]int{1}))
	s.Inject(tuple.New(0), 1, NewPacket([]int{2})) // will be dropped by destroy... after first fire
	s.Inject(tuple.New(0), 0, NewPacket([]int{3}))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulingModesBothComplete(t *testing.T) {
	for _, sched := range []Scheduling{Lazy, Aggressive} {
		s := buildChain(Config{Nodes: 1, ThreadsPerNode: 3, Scheduling: sched}, 6, 5)
		for k := 0; k < 5; k++ {
			s.Inject(tuple.New(0), 0, NewPacket([]int{k}))
		}
		if err := s.Run(); err != nil {
			t.Fatalf("%v: %v", sched, err)
		}
		if got := len(s.Collected(tuple.New(5), 0)); got != 5 {
			t.Fatalf("%v: collected %d", sched, got)
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New(Config{DeadlockTimeout: 50 * time.Millisecond})
	s.NewVDP(tuple.New(0), 1, func(v *VDP) { v.Pop(0) }, "stuck", 1, 0)
	s.Input(tuple.New(0), 0, 0)
	// Never inject: the VDP waits forever.
	err := s.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if got := err.Error(); !contains(got, "deadlock") || !contains(got, "(0)") {
		t.Fatalf("unhelpful deadlock error: %v", got)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}

func TestGeneratorVDP(t *testing.T) {
	// A VDP with no inputs fires until its counter runs out.
	var n int
	s := New(Config{})
	s.NewVDP(tuple.New(0), 5, func(v *VDP) {
		n++
		v.Push(0, NewPacket([]int{n}))
	}, "gen", 0, 1)
	s.Output(tuple.New(0), 0, 0)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 5 || len(s.Collected(tuple.New(0), 0)) != 5 {
		t.Fatalf("generator fired %d times", n)
	}
}

func TestFireHookEvents(t *testing.T) {
	var mu sync.Mutex
	var events []FireEvent
	s := buildChain(Config{
		Nodes: 1, ThreadsPerNode: 2,
		FireHook: func(e FireEvent) {
			mu.Lock()
			events = append(events, e)
			mu.Unlock()
		},
	}, 3, 2)
	for k := 0; k < 2; k++ {
		s.Inject(tuple.New(0), 0, NewPacket([]int{k}))
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 6 {
		t.Fatalf("hook saw %d events, want 6", len(events))
	}
	for _, e := range events {
		if e.Class != "stage" || e.End.Before(e.Start) {
			t.Fatalf("bad event %+v", e)
		}
	}
}

func TestMappingValidation(t *testing.T) {
	s := New(Config{Nodes: 2, ThreadsPerNode: 1,
		Map: func(tuple.Tuple) (int, int) { return 5, 0 }})
	s.NewVDP(tuple.New(0), 1, func(v *VDP) {}, "", 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range mapping must panic")
		}
	}()
	_ = s.Run()
}

func TestDuplicateTuplePanics(t *testing.T) {
	s := New(Config{})
	s.NewVDP(tuple.New(1, 2), 1, func(v *VDP) {}, "", 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate tuple must panic")
		}
	}()
	s.NewVDP(tuple.New(1, 2), 1, func(v *VDP) {}, "", 0, 0)
}

func TestSlotReusePanics(t *testing.T) {
	s := New(Config{})
	s.NewVDP(tuple.New(0), 1, func(v *VDP) {}, "", 1, 1)
	s.NewVDP(tuple.New(1), 1, func(v *VDP) {}, "", 2, 0)
	s.Connect(tuple.New(0), 0, tuple.New(1), 0, 0, false)
	defer func() {
		if recover() == nil {
			t.Fatal("output slot reuse must panic")
		}
	}()
	s.Connect(tuple.New(0), 0, tuple.New(1), 1, 0, false)
}

// TestWavefrontIntegration runs a 2D systolic wavefront across several
// nodes and threads: VDP (i,j) receives a value from the left and one from
// the top, stores their sum plus one, and forwards it right and down. The
// bottom-right result equals the number of lattice paths weighted sum —
// verified against a sequential reference.
func TestWavefrontIntegration(t *testing.T) {
	const n = 8
	cfg := Config{
		Nodes: 3, ThreadsPerNode: 2,
		Map: func(tp tuple.Tuple) (int, int) {
			return (tp.At(0) + tp.At(1)) % 3, tp.At(1) % 2
		},
	}
	s := New(cfg)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s.NewVDP(tuple.New2(i, j), 1, func(v *VDP) {
				a := v.Pop(0).Data.([]float64)[0]
				b := v.Pop(1).Data.([]float64)[0]
				sum := a + b + 1
				v.Push(0, NewPacket([]float64{sum})) // right
				v.Push(1, NewPacket([]float64{sum})) // down
			}, "cell", 2, 2)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j+1 < n {
				s.Connect(tuple.New2(i, j), 0, tuple.New2(i, j+1), 0, 64, false)
			} else {
				s.Output(tuple.New2(i, j), 0, 64)
			}
			if i+1 < n {
				s.Connect(tuple.New2(i, j), 1, tuple.New2(i+1, j), 1, 64, false)
			} else {
				s.Output(tuple.New2(i, j), 1, 64)
			}
		}
	}
	// Boundary injections: zeros from the left and top.
	for i := 0; i < n; i++ {
		s.Input(tuple.New2(i, 0), 0, 64)
		s.Inject(tuple.New2(i, 0), 0, NewPacket([]float64{0}))
		s.Input(tuple.New2(0, i), 1, 64)
		s.Inject(tuple.New2(0, i), 1, NewPacket([]float64{0}))
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Sequential reference.
	ref := make([][]float64, n)
	for i := range ref {
		ref[i] = make([]float64, n)
		for j := range ref[i] {
			var a, b float64
			if j > 0 {
				a = ref[i][j-1]
			}
			if i > 0 {
				b = ref[i-1][j]
			}
			ref[i][j] = a + b + 1
		}
	}
	got := s.Collected(tuple.New2(n-1, n-1), 0)
	if len(got) != 1 {
		t.Fatalf("corner emitted %d packets", len(got))
	}
	if v := got[0].Data.([]float64)[0]; v != ref[n-1][n-1] {
		t.Fatalf("wavefront corner = %v, want %v", v, ref[n-1][n-1])
	}
	if s.Fired() != n*n {
		t.Fatalf("fired %d, want %d", s.Fired(), n*n)
	}
}

func TestInjectDuringRun(t *testing.T) {
	s := New(Config{Nodes: 1, ThreadsPerNode: 1})
	var got []int
	s.NewVDP(tuple.New(0), 3, func(v *VDP) {
		got = append(got, v.Pop(0).Data.([]int)[0])
	}, "", 1, 0)
	s.Input(tuple.New(0), 0, 0)
	go func() {
		for i := 0; i < 3; i++ {
			time.Sleep(10 * time.Millisecond)
			s.Inject(tuple.New(0), 0, NewPacket([]int{i}))
		}
	}()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestEmptyVSARuns(t *testing.T) {
	if err := New(Config{}).Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAggressiveDrainsBeforeMoving(t *testing.T) {
	// With one thread and aggressive scheduling, a VDP with several queued
	// packets fires repeatedly before its peer runs.
	var seq []string
	s := New(Config{Scheduling: Aggressive})
	s.NewVDP(tuple.New(0), 3, func(v *VDP) {
		v.Pop(0)
		seq = append(seq, "a")
	}, "", 1, 0)
	s.NewVDP(tuple.New(1), 1, func(v *VDP) {
		v.Pop(0)
		seq = append(seq, "b")
	}, "", 1, 0)
	s.Input(tuple.New(0), 0, 0)
	s.Input(tuple.New(1), 0, 0)
	for i := 0; i < 3; i++ {
		s.Inject(tuple.New(0), 0, NewPacket([]int{i}))
	}
	s.Inject(tuple.New(1), 0, NewPacket([]int{0}))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "a", "a", "b"}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("aggressive order = %v", seq)
		}
	}
}

// A re-armed array runs as it ran when built: every VDP fires its full
// count again, only the new run's packets are collected, a channel created
// disabled starts disabled again, and a run aborted with packets in its
// FIFOs leaves none of them behind. On a caller's pool shared with a second
// array, run after run, no sweep of an earlier run fires a re-armed VDP.
func TestRearmRunsTheBuiltArrayAgain(t *testing.T) {
	cfg := Config{
		Nodes: 3, ThreadsPerNode: 2,
		Map: func(tp tuple.Tuple) (int, int) { return tp.At(0) % 3, tp.At(0) % 2 },
	}
	check := func(s *VSA, base int) {
		t.Helper()
		for k := 0; k < 4; k++ {
			s.Inject(tuple.New(0), 0, NewPacket([]int{base + k}))
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		out := s.Collected(tuple.New(8), 0)
		if len(out) != 4 || s.Fired() != 36 {
			t.Fatalf("run from %d: %d packets collected and %d firings, want 4 and 36", base, len(out), s.Fired())
		}
		for k, p := range out {
			if got := p.Data.([]int); len(got) != 10 || got[0] != base+k || got[9] != 8 {
				t.Fatalf("run from %d: packet %d is %v", base, k, got)
			}
		}
	}
	s := buildChain(cfg, 9, 4)
	check(s, 0)
	s.Rearm(cfg)
	check(s, 100)

	// Abort once the chain's head has fired: its packets sit in the FIFOs.
	abort := cfg
	abort.FireHook = func(FireEvent) { s.Abort() }
	s.Rearm(abort)
	for k := 0; k < 4; k++ {
		s.Inject(tuple.New(0), 0, NewPacket([]int{k}))
	}
	if err := s.Run(); err != ErrAborted {
		t.Fatalf("an aborted run returned %v", err)
	}
	s.Rearm(cfg)
	check(s, 200)

	// The disabled hand-off again, re-armed: each run starts with the early
	// channel enabled and the late one disabled, as built.
	h := New(Config{})
	var got []int
	h.NewVDP(tuple.New(0), 1, func(v *VDP) { v.Push(0, NewPacket([]int{99})) }, "", 0, 1)
	h.NewVDP(tuple.New(1), 2, func(v *VDP) {
		if st, _ := v.Local().(int); st == 0 {
			got = append(got, v.Pop(0).Data.([]int)[0])
			v.DisableInput(0)
			v.EnableInput(1)
		} else {
			got = append(got, v.Pop(1).Data.([]int)[0])
		}
		v.SetLocal(v.Local().(int) + 1)
	}, "", 2, 0)
	h.Connect(tuple.New(0), 0, tuple.New(1), 1, 0, true)
	h.Input(tuple.New(1), 0, 0)
	for run := 0; run < 3; run++ {
		if run > 0 {
			h.Rearm(Config{})
		}
		h.VDPs()[1].SetLocal(0) // a VDP's local storage is its builder's to reset
		got = nil
		h.Inject(tuple.New(1), 0, NewPacket([]int{run}))
		if err := h.Run(); err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0] != run || got[1] != 99 {
			t.Fatalf("run %d: the hand-off consumed %v, want [%d 99]", run, got, run)
		}
	}

	pool := NewPool(3, nil)
	defer pool.Close()
	onPool := Config{Pool: pool}
	a, b := buildChain(onPool, 9, 4), buildChain(onPool, 9, 4)
	for run := 0; run < 50; run++ {
		if run > 0 {
			a.Rearm(onPool)
			b.Rearm(onPool)
		}
		var wg sync.WaitGroup
		for _, s := range []*VSA{a, b} {
			wg.Add(1)
			go func(s *VSA) {
				defer wg.Done()
				for k := 0; k < 4; k++ {
					s.Inject(tuple.New(0), 0, NewPacket([]int{k}))
				}
				if err := s.Run(); err != nil {
					t.Error(err)
				}
			}(s)
		}
		wg.Wait()
		if a.Fired() != 36 || b.Fired() != 36 {
			t.Fatalf("run %d on a shared pool: %d and %d firings, want 36 each", run, a.Fired(), b.Fired())
		}
	}
}

// A cleared array holds nothing of its last run: no collected packet, none
// of the run's hooks, endpoint or pool, no worker. It keeps how it is
// placed, and a re-armed run collects only its own packets.
func TestClearHoldsNothingOfTheRun(t *testing.T) {
	pool := NewPool(2, nil)
	defer pool.Close()
	cfg := Config{Pool: pool, FireHook: func(FireEvent) {}, Params: "run"}
	s := buildChain(cfg, 9, 4)
	for run := 0; run < 2; run++ {
		if run > 0 {
			s.Rearm(cfg)
		}
		for k := 0; k < 4; k++ {
			s.Inject(tuple.New(0), 0, NewPacket([]int{k}))
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if n := len(s.Collected(tuple.New(8), 0)); n != 4 {
			t.Fatalf("run %d collected %d packets, want 4", run, n)
		}
		s.Clear()
		if n := len(s.Collected(tuple.New(8), 0)); n != 0 {
			t.Fatalf("a cleared array holds %d collected packets", n)
		}
		if s.cfg.FireHook != nil || s.cfg.Pool != nil || s.params != nil || s.workers != nil {
			t.Fatalf("a cleared array holds its run's hooks, pool, params or workers: %+v", s.cfg)
		}
		if s.cfg.ThreadsPerNode != 2 || s.cfg.Nodes != 1 {
			t.Fatalf("a cleared array lost its placement: %d nodes of %d threads", s.cfg.Nodes, s.cfg.ThreadsPerNode)
		}
	}
}

// A worker's sweep may hold its list from before a run detached, and the
// array may be re-armed and seeded while that sweep is still under way: it
// must not fire the re-armed VDP, which only the next run attaches. One
// worker serves two arrays. Array a's one VDP fires and, from its hook,
// readies array b's, which blocks its worker until a has run, been re-armed
// and been seeded again; the sweep that blocked may list a's VDP after b's.
// a's second run must still fire that VDP itself, once. The sleeps only
// open that window in most rounds: the run is correct whatever the timing.
func TestRearmIgnoresAStaleSweep(t *testing.T) {
	pool := NewPool(1, nil)
	defer pool.Close()
	for it := 0; it < 20; it++ {
		gate := make(chan struct{})
		b := New(Config{Pool: pool})
		b.NewVDP(tuple.New(0), 1, func(v *VDP) { v.Pop(0); <-gate }, "", 1, 0)
		b.Input(tuple.New(0), 0, 0)
		bDone := make(chan error, 1)
		go func() { bDone <- b.Run() }()
		time.Sleep(time.Millisecond) // so that b's VDP goes on the worker's list first

		cfg := Config{Pool: pool, DeadlockTimeout: time.Second}
		first := cfg
		first.FireHook = func(FireEvent) { b.Inject(tuple.New(0), 0, NewPacket([]int{0})) }
		a := New(first)
		a.NewVDP(tuple.New(0), 1, func(v *VDP) { v.Pop(0) }, "", 1, 0)
		a.Input(tuple.New(0), 0, 0)
		a.Inject(tuple.New(0), 0, NewPacket([]int{1}))
		if err := a.Run(); err != nil {
			t.Fatal(err)
		}
		a.Rearm(cfg)
		a.Inject(tuple.New(0), 0, NewPacket([]int{2}))
		close(gate)
		if err := <-bDone; err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond) // so that a blocked sweep goes on past b's VDP
		if a.Fired() != 0 {
			t.Fatalf("round %d: a sweep of the last run fired the re-armed VDP", it)
		}
		if err := a.Run(); err != nil || a.Fired() != 1 {
			t.Fatalf("round %d: the re-armed run fired %d times and returned %v", it, a.Fired(), err)
		}
	}
}
