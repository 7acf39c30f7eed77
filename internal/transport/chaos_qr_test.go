package transport_test

// End-to-end chaos tests: a full tree-based QR factorization running over a
// fault-injecting transport must produce bit-identical results to the
// sequential oracle — the ARQ layer makes drops, delays, duplicates and a
// mid-run link sever invisible to the algorithm. This lives in an external
// test package so it can import internal/qr without a cycle.

import (
	"context"
	"errors"
	"math/rand"
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

// runChaosFactorization runs FactorizeVSAIn on every endpoint concurrently
// and returns rank 0's result; any rank's error fails the test.
func runChaosFactorization(t *testing.T, eps []transport.Endpoint) *qr.Factorization {
	t.Helper()
	d, b, o := chaosQRInputs()
	results := make([]*qr.Factorization, len(eps))
	errs := make([]error, len(eps))
	var wg sync.WaitGroup
	for r := range eps {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = qr.FactorizeVSAIn(context.Background(),
				matrix.FromDense(d, o.NB), matrix.FromDense(b, o.NB),
				o, qr.RunConfig{Threads: 2}, qr.Env{Endpoint: eps[r]})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return results[0]
}

// chaosTCPMesh dials an in-process TCP mesh in reconnect mode; the caller
// closes it (under the chaos wrappers, in its own order).
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
// chaos wrappers injecting 1% frame drop plus delays on the in-process
// transport; the result must match the sequential oracle elementwise.
func TestChaosFactorizationMatchesOracle(t *testing.T) {
	seq := chaosQROracle(t)
	const ranks = 3
	sch := transport.Schedule{
		Seed:               0x9121,
		Drop:               0.01,
		DelayP50:           200 * time.Microsecond,
		DelayP95:           time.Millisecond,
		RetransmitInterval: 5 * time.Millisecond,
	}
	l := transport.NewLocal(ranks)
	eps := make([]transport.Endpoint, ranks)
	for r := 0; r < ranks; r++ {
		eps[r] = transport.NewChaos(l.Endpoint(r), sch)
	}
	got := runChaosFactorization(t, eps)
	for _, ep := range eps {
		ep.Close()
	}
	assertMatchesOracle(t, seq, got)
}

// TestChaosTCPFactorizationMatchesOracle is the headline resilience check
// (and the `make chaos-smoke` target): a factorization over real TCP with
// seeded chaos — 1% drop, 5ms p95 delay, and one mid-run link sever that
// the reconnect layer must repair — completes and matches the sequential
// oracle elementwise, deterministically across repeated runs.
func TestChaosTCPFactorizationMatchesOracle(t *testing.T) {
	seq := chaosQROracle(t)
	runs := 10
	if testing.Short() {
		runs = 2
	}
	for run := 0; run < runs; run++ {
		eps := chaosTCPMesh(t, 2, 2*time.Second)
		sch := transport.Schedule{
			Seed:               0xD15EA5E,
			Drop:               0.01,
			DelayP50:           200 * time.Microsecond,
			DelayP95:           5 * time.Millisecond,
			RetransmitInterval: 5 * time.Millisecond,
		}
		chaos := make([]transport.Endpoint, 2)
		for r := range chaos {
			rsch := sch
			if r == 0 {
				// One mid-run sever of the 0->1 link: the TCP substrate
				// implements LinkSeverer, so this cuts the real sockets and
				// exercises redial + unacked-window resend underneath the ARQ.
				rsch.Sever = []transport.SeverEvent{{Peer: 1, AtFrame: 30}}
			}
			chaos[r] = transport.NewChaos(eps[r], rsch)
		}
		got := runChaosFactorization(t, chaos)
		for r := range chaos {
			chaos[r].Close()
			eps[r].Close()
		}
		assertMatchesOracle(t, seq, got)
	}
}

// TestChaosTCPDefaultTileMatchesOracle is the default-path run of
// `make chaos-smoke`: nothing about the tile is specified, both the oracle
// and the ranks take qr.DefaultOptions, and the frames that cross the
// chaotic link — dropped, delayed, the link severed once — are whole default
// tiles (hundreds of KB each, not the 8×8 tiles of the tests above).
func TestChaosTCPDefaultTileMatchesOracle(t *testing.T) {
	nb := qr.DefaultOptions().NB
	rng := rand.New(rand.NewSource(43))
	d := matrix.NewRand(4*nb+40, nb+30, rng)
	seq, err := qr.Factorize(matrix.FromDense(d, nb), nil, qr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eps := chaosTCPMesh(t, 2, 2*time.Second)
	sch := transport.Schedule{
		Seed:               0xDEFA017,
		Drop:               0.01,
		DelayP50:           200 * time.Microsecond,
		DelayP95:           5 * time.Millisecond,
		RetransmitInterval: 5 * time.Millisecond,
	}
	chaos := make([]transport.Endpoint, 2)
	for r := range chaos {
		rsch := sch
		if r == 0 {
			rsch.Sever = []transport.SeverEvent{{Peer: 1, AtFrame: 4}}
		}
		chaos[r] = transport.NewChaos(eps[r], rsch)
	}
	results := make([]*qr.Factorization, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := range chaos {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = qr.FactorizeVSAIn(context.Background(), matrix.FromDense(d, nb), nil,
				qr.Options{}, qr.RunConfig{Threads: 2}, qr.Env{Endpoint: chaos[r]})
		}(r)
	}
	wg.Wait()
	for r := range chaos {
		chaos[r].Close()
		eps[r].Close()
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	assertMatchesOracle(t, seq, results[0])
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
