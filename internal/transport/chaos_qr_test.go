package transport_test

// End-to-end chaos tests: a full tree-based QR factorization running over a
// fault-injecting transport must produce bit-identical results to the
// sequential oracle. Chaos adds latency and cuts links; what makes the cuts
// invisible to the algorithm is the substrate — on TCP, the production
// redial-and-resume path. This lives in an external test package so it can
// import internal/qr without a cycle.

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/transport"
)

// chaosQRInputs mirrors the qr package's distributed-test inputs: every
// rank re-derives identical matrices from the same seed.
func chaosQRInputs() (d, b *matrix.Mat, o qr.Options) {
	rng := rand.New(rand.NewSource(42))
	d = matrix.NewRand(61, 17, rng)
	b = matrix.NewRand(61, 3, rng)
	o = qr.Options{NB: 8, IB: 4, Tree: qr.HierarchicalTree, H: 3}
	return d, b, o
}

func chaosQROracle(t *testing.T) *qr.Factorization {
	t.Helper()
	d, b, o := chaosQRInputs()
	seq, err := qr.Factorize(matrix.FromDense(d, o.NB), matrix.FromDense(b, o.NB), o)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// assertMatchesOracle checks the distributed result elementwise against the
// sequential factorization: identical goroutine-count-independent tile
// contents, not merely a small residual.
func assertMatchesOracle(t *testing.T, seq, got *qr.Factorization) {
	t.Helper()
	if got == nil {
		t.Fatal("rank 0 returned no factorization")
	}
	if d := matrix.MaxAbsDiff(seq.A.ToDense(), got.A.ToDense()); d != 0 {
		t.Fatalf("factored tiles differ from oracle by %v", d)
	}
	if (seq.QTB == nil) != (got.QTB == nil) {
		t.Fatal("QTB presence differs from oracle")
	}
	if seq.QTB != nil {
		if d := matrix.MaxAbsDiff(seq.QTB.ToDense(), got.QTB.ToDense()); d != 0 {
			t.Fatalf("Q^T B differs from oracle by %v", d)
		}
	}
}

// withChaos wraps eps[r] in sch with rank r's own sever list.
func withChaos(eps []transport.Endpoint, sch transport.Schedule, severs [][]transport.SeverEvent) []*transport.Chaos {
	cs := make([]*transport.Chaos, len(eps))
	for r, ep := range eps {
		rsch := sch
		rsch.Sever = severs[r]
		cs[r] = transport.NewChaos(ep, rsch)
	}
	return cs
}

// factorizeOnRanks runs FactorizeVSAIn on every rank concurrently with the
// same inputs (tiled at nb), closes every rank, and returns rank 0's result;
// any rank's error fails the test.
func factorizeOnRanks(t *testing.T, cs []*transport.Chaos, d, b *matrix.Mat, nb int, o qr.Options) *qr.Factorization {
	t.Helper()
	results := make([]*qr.Factorization, len(cs))
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for r := range cs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var bt *matrix.Tiled
			if b != nil {
				bt = matrix.FromDense(b, nb)
			}
			results[r], errs[r] = qr.FactorizeVSAIn(context.Background(), matrix.FromDense(d, nb), bt,
				o, qr.RunConfig{Threads: 2}, qr.Env{Endpoint: cs[r]})
		}(r)
	}
	wg.Wait()
	for _, c := range cs {
		c.Close()
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return results[0]
}

// assertSeversFired fails the test unless every sever scheduled on rank r
// appears in its fault log: one placed beyond its link's traffic never
// fires and tests nothing.
func assertSeversFired(t *testing.T, cs []*transport.Chaos, severs [][]transport.SeverEvent) {
	t.Helper()
	for r, c := range cs {
		if fired := strings.Count(c.FaultLog(), "!"); fired != len(severs[r]) {
			t.Fatalf("rank %d: %d of %d scheduled severs fired:\n%s", r, fired, len(severs[r]), c.FaultLog())
		}
	}
}

// chaosTCPMesh dials an in-process TCP mesh in reconnect mode; closing the
// chaos wrappers closes it.
func chaosTCPMesh(t *testing.T, n int, reconnect time.Duration) []transport.Endpoint {
	t.Helper()
	eps, err := transport.DialLoopback(n, func(cfg *transport.TCPConfig) {
		cfg.Reconnect = reconnect
		cfg.ReconnectBackoff = 2 * time.Millisecond
	})
	if err != nil {
		t.Fatal(err)
	}
	return eps
}

// TestChaosFactorizationMatchesOracle runs the full distributed QR through
// chaos wrappers injecting delays and link holds on the in-process
// transport; the result must match the sequential oracle elementwise.
func TestChaosFactorizationMatchesOracle(t *testing.T) {
	seq := chaosQROracle(t)
	l := transport.NewLocal(3)
	eps := []transport.Endpoint{l.Endpoint(0), l.Endpoint(1), l.Endpoint(2)}
	sch := transport.Schedule{Seed: 0x9121, DelayP50: 200 * time.Microsecond, DelayP95: time.Millisecond}
	// Links 0→1, 0→2, 1→0, 1→2 and 2→0 carry 10, 5, 20, 5 and 20 messages.
	hold := func(peer int, frame int64) transport.SeverEvent {
		return transport.SeverEvent{Peer: peer, AtFrame: frame, For: 5 * time.Millisecond}
	}
	severs := [][]transport.SeverEvent{
		{hold(1, 3), hold(1, 8), hold(2, 2)},
		{hold(0, 4), hold(0, 11), hold(0, 18), hold(2, 3)},
		{hold(0, 6), hold(0, 15)},
	}
	cs := withChaos(eps, sch, severs)
	d, b, o := chaosQRInputs()
	got := factorizeOnRanks(t, cs, d, b, o.NB, o)
	for r, c := range cs {
		t.Logf("rank %d:\n%s", r, c.FaultLog())
	}
	assertMatchesOracle(t, seq, got)
	assertSeversFired(t, cs, severs)
}

// TestChaosTCPFactorizationMatchesOracle is the headline resilience check
// (and the `make chaos-smoke` target): a factorization over real TCP with
// seeded chaos — 5ms p95 delay and eight mid-run severs spread over both
// links, each a real socket cut that the reconnect layer must repair —
// completes and matches the sequential oracle elementwise, deterministically
// across repeated runs.
func TestChaosTCPFactorizationMatchesOracle(t *testing.T) {
	seq := chaosQROracle(t)
	runs := 10
	if testing.Short() {
		runs = 2
	}
	d, b, o := chaosQRInputs()
	sch := transport.Schedule{Seed: 0xD15EA5E, DelayP50: 200 * time.Microsecond, DelayP95: 5 * time.Millisecond}
	// Rank 0 sends 13 messages to rank 1, rank 1 sends 33 back.
	severs := [][]transport.SeverEvent{
		{{Peer: 1, AtFrame: 3}, {Peer: 1, AtFrame: 7}, {Peer: 1, AtFrame: 11}},
		{{Peer: 0, AtFrame: 5}, {Peer: 0, AtFrame: 12}, {Peer: 0, AtFrame: 19}, {Peer: 0, AtFrame: 26}, {Peer: 0, AtFrame: 31}},
	}
	for run := 0; run < runs; run++ {
		cs := withChaos(chaosTCPMesh(t, 2, 2*time.Second), sch, severs)
		got := factorizeOnRanks(t, cs, d, b, o.NB, o)
		if run == 0 {
			for r, c := range cs {
				t.Logf("rank %d:\n%s", r, c.FaultLog())
			}
		}
		assertMatchesOracle(t, seq, got)
		assertSeversFired(t, cs, severs)
	}
}

// TestChaosTCPDefaultTileMatchesOracle is the default-path run of
// `make chaos-smoke`: nothing about the tile is specified, the ranks take
// qr.DefaultOptions (h derived: 5 tile rows over 2 ranks × 2 threads, h = 2)
// and the oracle the options they resolved, and the frames that cross the
// chaotic link — delayed, cut mid-stream on both links — are whole default
// tiles (hundreds of KB each, not the 8×8 tiles of the tests above).
func TestChaosTCPDefaultTileMatchesOracle(t *testing.T) {
	nb := qr.DefaultOptions().NB
	rng := rand.New(rand.NewSource(43))
	d := matrix.NewRand(4*nb+40, nb+30, rng)
	sch := transport.Schedule{Seed: 0xDEFA017, DelayP50: 200 * time.Microsecond, DelayP95: 5 * time.Millisecond}
	// Rank 0 sends 3 messages to rank 1, rank 1 sends 9 back.
	severs := [][]transport.SeverEvent{
		{{Peer: 1, AtFrame: 2}, {Peer: 1, AtFrame: 3}},
		{{Peer: 0, AtFrame: 3}, {Peer: 0, AtFrame: 8}},
	}
	cs := withChaos(chaosTCPMesh(t, 2, 2*time.Second), sch, severs)
	got := factorizeOnRanks(t, cs, d, nil, nb, qr.Options{})
	for r, c := range cs {
		t.Logf("rank %d:\n%s", r, c.FaultLog())
	}
	seq, err := qr.Factorize(matrix.FromDense(d, nb), nil, got.Opts)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesOracle(t, seq, got)
	assertSeversFired(t, cs, severs)
}

// TestChaosTCPKillRankYieldsPeerDeath: a chaos-scheduled rank kill at frame
// N crashes the real TCP endpoint, and the surviving rank's failure
// observer renders a PeerDeathError naming the dead rank.
func TestChaosTCPKillRankYieldsPeerDeath(t *testing.T) {
	eps := chaosTCPMesh(t, 2, 300*time.Millisecond)
	sch0 := transport.Schedule{Seed: 3}
	sch1 := transport.Schedule{Seed: 3, KillAtFrame: 20}
	c0 := transport.NewChaos(eps[0], sch0)
	c1 := transport.NewChaos(eps[1], sch1)
	defer func() {
		c0.Close()
		c1.Close()
		eps[0].Close()
		eps[1].Close()
	}()

	failed := make(chan error, 4)
	c0.OnPeerFailure(func(rank int, err error) { failed <- err })

	go func() {
		for i := 0; i < 100; i++ {
			c1.Isend([]byte{byte(i)}, 0, i)
		}
	}()

	select {
	case err := <-failed:
		var pde *transport.PeerDeathError
		if !errors.As(err, &pde) || pde.Rank != 1 {
			t.Fatalf("failure %v, want PeerDeathError for rank 1", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("kill-at-frame never produced a dead-peer verdict on the survivor")
	}
}
