package pulsar

import (
	"sync"
	"testing"

	"pulsarqr/internal/transport"
	"pulsarqr/internal/tuple"
)

// WaitHook must see every worker's park intervals, on every in-process node
// and labelled with it: each worker parks at least once — at the latest when
// the run drains — and the intervals must be well-formed.
func TestWaitHookEvents(t *testing.T) {
	var mu sync.Mutex
	var waits []WaitEvent
	s := buildChain(Config{
		Nodes: 2, ThreadsPerNode: 2,
		WaitHook: func(e WaitEvent) {
			mu.Lock()
			waits = append(waits, e)
			mu.Unlock()
		},
	}, 5, 3)
	for k := 0; k < 3; k++ {
		s.Inject(tuple.New(0), 0, NewPacket([]int{k}))
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(waits) == 0 {
		t.Fatal("no wait events recorded")
	}
	seen := map[[2]int]bool{}
	for _, e := range waits {
		if e.Node < 0 || e.Node >= 2 || e.Thread < 0 || e.Thread >= 2 {
			t.Fatalf("bad lane: %+v", e)
		}
		if e.End.Before(e.Start) {
			t.Fatalf("negative interval: %+v", e)
		}
		seen[[2]int{e.Node, e.Thread}] = true
	}
	if len(seen) != 4 {
		t.Fatalf("wait events from (node, thread) lanes %v, want all four", seen)
	}
}

// CommHook must see the proxy's sends and recvs with the right peers and
// sizes, plus exactly one closing barrier per rank (the trace clock anchor).
func TestCommHookEvents(t *testing.T) {
	const (
		nodes   = 2
		nVDP    = 4
		packets = 2
	)
	lw := transport.NewLocal(nodes)
	comms := make([][]CommEvent, nodes)
	var mus [nodes]sync.Mutex
	arrays := make([]*VSA, nodes)
	var wg sync.WaitGroup
	errs := make([]error, nodes)
	for r := 0; r < nodes; r++ {
		r := r
		cfg := Config{
			Nodes: nodes, ThreadsPerNode: 2,
			Map:  func(tp tuple.Tuple) (int, int) { return tp.At(0) % nodes, 0 },
			Comm: lw.Endpoint(r),
			CommHook: func(e CommEvent) {
				mus[r].Lock()
				comms[r] = append(comms[r], e)
				mus[r].Unlock()
			},
		}
		arrays[r] = buildChain(cfg, nVDP, packets)
		if r == 0 {
			for k := 0; k < packets; k++ {
				arrays[r].Inject(tuple.New(0), 0, NewPacket([]int{k}))
			}
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = arrays[r].Run()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r := 0; r < nodes; r++ {
		var sends, recvs, barriers int
		for _, e := range comms[r] {
			if e.Node != r {
				t.Fatalf("rank %d event carries node %d", r, e.Node)
			}
			if e.End.Before(e.Start) {
				t.Fatalf("negative interval: %+v", e)
			}
			switch e.Kind {
			case CommSend:
				if e.Peer != 1-r || e.Bytes <= 0 {
					t.Fatalf("rank %d send: %+v", r, e)
				}
				sends++
			case CommRecv:
				if e.Peer != 1-r || e.Bytes <= 0 {
					t.Fatalf("rank %d recv: %+v", r, e)
				}
				recvs++
			case CommBarrier:
				if e.Peer != -1 {
					t.Fatalf("barrier with peer %d", e.Peer)
				}
				barriers++
			}
		}
		// The 0-1-0-1 chain crosses the boundary at every hop: both ranks
		// send and both receive.
		if sends == 0 || recvs == 0 {
			t.Fatalf("rank %d: %d sends, %d recvs", r, sends, recvs)
		}
		if barriers != 1 {
			t.Fatalf("rank %d: %d barrier events, want 1", r, barriers)
		}
		// The barrier is the run's last comm event — it anchors the merged
		// clock, so nothing may follow it.
		if last := comms[r][len(comms[r])-1]; last.Kind != CommBarrier {
			t.Fatalf("rank %d: last comm event is %v, want barrier", r, last.Kind)
		}
	}
}

// Pool.OnWait delivers a caller-owned pool's park intervals (Config.WaitHook
// is documented to be ignored on one).
func TestPoolOnWait(t *testing.T) {
	p := NewPool(2, nil)
	defer p.Close()
	var mu sync.Mutex
	var waits []WaitEvent
	p.OnWait(func(e WaitEvent) {
		mu.Lock()
		waits = append(waits, e)
		mu.Unlock()
	})
	s := buildChain(Config{Nodes: 1, ThreadsPerNode: 2, Pool: p}, 4, 2)
	for k := 0; k < 2; k++ {
		s.Inject(tuple.New(0), 0, NewPacket([]int{k}))
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	n := len(waits)
	mu.Unlock()
	if n == 0 {
		t.Fatal("no wait events from the pool")
	}
	// Uninstall. A worker parked across the uninstall emits one trailing
	// event with the old hook when it next wakes (the hook is re-read at
	// every park entry), so further runs may add at most one event per
	// worker — never more.
	p.OnWait(nil)
	for run := 0; run < 2; run++ {
		s2 := buildChain(Config{Nodes: 1, ThreadsPerNode: 2, Pool: p}, 4, 2)
		for k := 0; k < 2; k++ {
			s2.Inject(tuple.New(0), 0, NewPacket([]int{k}))
		}
		if err := s2.Run(); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(waits) > n+2 {
		t.Fatalf("OnWait(nil) did not uninstall: %d -> %d events", n, len(waits))
	}
}
