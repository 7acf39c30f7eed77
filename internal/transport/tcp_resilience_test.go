package transport

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// awaitFailure registers a FailureObserver callback on ep and returns a
// channel that delivers the first reported peer death.
func awaitFailure(t *testing.T, ep Endpoint) <-chan error {
	t.Helper()
	fo, ok := ep.(FailureObserver)
	if !ok {
		t.Fatalf("%T does not implement FailureObserver", ep)
	}
	ch := make(chan error, 4)
	fo.OnPeerFailure(func(rank int, err error) { ch <- err })
	return ch
}

// TestTCPReconnectResendsAfterSever severs both directions of a live link
// mid-conversation, then again mid-write, and asserts the reconnect layer
// repairs it invisibly:
// every message sent after the cut still arrives exactly once, in order,
// in both directions, with no failure verdict rendered.
func TestTCPReconnectResendsAfterSever(t *testing.T) {
	eps := newTCPMeshCfg(t, 2, func(cfg *TCPConfig) {
		cfg.Reconnect = 5 * time.Second
		cfg.ReconnectBackoff = 2 * time.Millisecond
	})

	// Prime the link so both directions carry established connections.
	eps[0].Isend([]byte("prime"), 1, 0)
	r := eps[1].Irecv(0, 0)
	r.Wait()
	if string(r.Data()) != "prime" {
		t.Fatalf("prime: %q", r.Data())
	}

	eps[0].(LinkSeverer).SeverLink(1)

	const msgs = 50
	for i := 0; i < msgs; i++ {
		eps[0].Isend(chaosPayload(i), 1, 100+i)
		eps[1].Isend(chaosPayload(2000+i), 0, 100+i)
	}
	for i := 0; i < msgs; i++ {
		r := eps[1].Irecv(0, 100+i)
		r.Wait()
		if r.Canceled() || !bytes.Equal(r.Data(), chaosPayload(i)) {
			t.Fatalf("0->1 message %d lost across sever (canceled=%v)", i, r.Canceled())
		}
		r = eps[0].Irecv(1, 100+i)
		r.Wait()
		if r.Canceled() || !bytes.Equal(r.Data(), chaosPayload(2000+i)) {
			t.Fatalf("1->0 message %d lost across sever (canceled=%v)", i, r.Canceled())
		}
	}

	// A sender cut while it is writing: the writer is still behind a 16 MB
	// queue when the sever closes its socket, so the failed write itself
	// must start the repair.
	big := make([]byte, 1<<20)
	for cut := 0; cut < 3; cut++ {
		for i := 0; i < 16; i++ {
			big[0] = byte(i)
			eps[0].Isend(big, 1, 200+i)
		}
		eps[0].(LinkSeverer).SeverLink(1)
		for i := 0; i < 16; i++ {
			r := eps[1].Irecv(0, 200+i)
			r.Wait()
			if r.Canceled() || r.GetCount() != len(big) || r.Data()[0] != byte(i) {
				t.Fatalf("cut %d: 0->1 frame %d of a stream cut mid-write lost (canceled=%v)", cut, i, r.Canceled())
			}
		}
	}

	for rank, ep := range eps {
		if err := ep.(FailureObserver).PeerFailure(); err != nil {
			t.Fatalf("rank %d rendered a failure verdict across a survivable sever: %v", rank, err)
		}
	}
	barErr := make(chan error, 1)
	go func() { barErr <- eps[1].Barrier() }()
	if err := eps[0].Barrier(); err != nil {
		t.Fatalf("barrier on repaired mesh: %v", err)
	}
	if err := <-barErr; err != nil {
		t.Fatalf("rank 1 barrier on repaired mesh: %v", err)
	}
}

// TestTCPIdleSenderRepairsSeveredLink: with Reconnect on and no heartbeat, a
// sender whose last frame was on the wire when its link was cut has nothing
// more to write, so no write can fail. The broken connection shows on its
// ack reader, which must start the repair, or the frame is lost and the
// receiver declares the sender dead once the reconnect budget runs out.
func TestTCPIdleSenderRepairsSeveredLink(t *testing.T) {
	const (
		trials = 20
		budget = 300 * time.Millisecond
	)
	payload := make([]byte, 256<<10)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	rng := rand.New(rand.NewSource(26))
	lost := 0
	for trial := 0; trial < trials; trial++ {
		eps := newTCPMeshCfg(t, 2, func(cfg *TCPConfig) {
			cfg.Reconnect = 1500 * time.Millisecond
			cfg.ReconnectBackoff = 2 * time.Millisecond
		})
		r := eps[0].Irecv(1, trial)
		eps[1].Isend(payload, 0, trial)
		time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
		eps[0].(LinkSeverer).SeverLink(1)

		ctx, cancel := context.WithTimeout(context.Background(), budget)
		err := Await(ctx, eps[0], r)
		cancel()
		if err != nil || !bytes.Equal(r.Data(), payload) {
			lost++
		}
		for _, ep := range eps {
			ep.Close()
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d trials: the frame in flight at the sever never arrived within %v", lost, trials, budget)
	}
}

// TestTCPByeCleanDeparture: a graceful Close announces itself with a bye
// frame, so the survivor departs the peer immediately instead of holding
// the dead-peer verdict open for the whole reconnect budget.
func TestTCPByeCleanDeparture(t *testing.T) {
	eps := newTCPMeshCfg(t, 2, func(cfg *TCPConfig) {
		cfg.Reconnect = 30 * time.Second // a budget the test must never wait out
	})
	failed := awaitFailure(t, eps[0])

	start := time.Now()
	eps[1].Close()
	select {
	case err := <-failed:
		var pde *PeerDeathError
		if !errors.As(err, &pde) || pde.Rank != 1 {
			t.Fatalf("departure error %v, want PeerDeathError for rank 1", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("bye did not shortcut the reconnect budget: no departure after 5s")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("departure verdict took %v, bye should make it immediate", waited)
	}
	// Receives naming the departed peer cancel rather than hang.
	r := eps[0].Irecv(1, 9)
	r.Wait()
	if !r.Canceled() {
		t.Fatal("recv from departed peer did not cancel")
	}
}

// TestTCPHeartbeatKeepsIdleLinkAlive then renders the dead verdict: an idle
// but healthy peer must never be declared dead (its heartbeats prove
// liveness), while a crashed one must be, within the reconnect budget.
func TestTCPHeartbeatKeepsIdleLinkAlive(t *testing.T) {
	eps := newTCPMeshCfg(t, 2, func(cfg *TCPConfig) {
		cfg.Reconnect = 250 * time.Millisecond
		cfg.ReconnectBackoff = 2 * time.Millisecond
		cfg.HeartbeatInterval = 20 * time.Millisecond
		cfg.HeartbeatTimeout = 120 * time.Millisecond
	})
	failed := awaitFailure(t, eps[0])

	// Phase 1: total silence above the transport, several multiples of the
	// heartbeat timeout long. Heartbeats alone must keep the link alive.
	time.Sleep(400 * time.Millisecond)
	if err := eps[0].(FailureObserver).PeerFailure(); err != nil {
		t.Fatalf("idle healthy peer declared dead: %v", err)
	}

	// Phase 2: the peer crashes without a goodbye; the survivor must notice.
	eps[1].(Crasher).Crash()
	select {
	case err := <-failed:
		var pde *PeerDeathError
		if !errors.As(err, &pde) || pde.Rank != 1 {
			t.Fatalf("crash verdict %v, want PeerDeathError for rank 1", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("crashed peer never declared dead")
	}
}

// TestTCPPeerLinkWindowAccounting unit-tests the unacked re-send window:
// bounded growth, cumulative pruning, and the exact unacked suffix that a
// resume must replay.
func TestTCPPeerLinkWindowAccounting(t *testing.T) {
	p := newPeerLink(nil)
	frame := func(i int) outFrame {
		return outFrame{data: EncodeFrame(Frame{Type: FrameData, Rank: 0, Tag: i})}
	}
	const window = 4
	for i := 0; i < window; i++ {
		if !p.recordWrite(frame(i), true, window) {
			t.Fatalf("write %d rejected inside the window", i)
		}
	}
	if p.recordWrite(frame(window), true, window) {
		t.Fatal("write beyond the window accepted with no acks")
	}
	// Cumulative ack for the first 3 frames frees room again.
	p.ackTo(3)
	if !p.recordWrite(frame(window+1), true, window) {
		t.Fatal("write rejected after ack pruned the window")
	}
	// An overflowing recordWrite still records its frame before reporting
	// the overflow, so the window now holds tags 3..5 — exactly the suffix
	// a resume must replay.
	un := p.unacked()
	want := 3
	if len(un) != want {
		t.Fatalf("unacked() returned %d frames, want %d", len(un), want)
	}
	for _, b := range un {
		f, _, err := DecodeFrame(b.data)
		if err != nil {
			t.Fatalf("unacked frame corrupt: %v", err)
		}
		if f.Tag < 3 {
			t.Fatalf("unacked window still holds acked frame tag %d", f.Tag)
		}
	}
	// A duplicate (stale) ack must be a no-op, not a panic or regression.
	p.ackTo(1)
	if got := len(p.unacked()); got != want {
		t.Fatalf("stale ack changed the window: %d -> %d", want, got)
	}
}

// TestTCPZeroConfigHasNoResilienceOverhead: with Reconnect off the endpoint
// keeps the pre-resilience wire behavior — a crash is an immediate
// departure, with no verdict-holding window.
func TestTCPZeroConfigHasNoResilienceOverhead(t *testing.T) {
	eps := newTCPMesh(t, 2)
	failed := awaitFailure(t, eps[0])
	eps[1].(Crasher).Crash()
	select {
	case err := <-failed:
		var pde *PeerDeathError
		if !errors.As(err, &pde) || pde.Rank != 1 {
			t.Fatalf("verdict %v, want PeerDeathError for rank 1", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no immediate departure without reconnect mode")
	}
}
