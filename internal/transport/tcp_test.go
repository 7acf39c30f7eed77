package transport

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTCPMesh brings up an n-rank TCP communicator on loopback, closed when
// the test ends.
func newTCPMesh(t *testing.T, n int) []Endpoint { return newTCPMeshCfg(t, n, nil) }

// newTCPMeshCfg is newTCPMesh with mod applied to every rank's config.
func newTCPMeshCfg(t *testing.T, n int, mod func(*TCPConfig)) []Endpoint {
	t.Helper()
	eps, err := DialLoopback(n, mod)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	return eps
}

func TestTCPSendRecvMatching(t *testing.T) {
	eps := newTCPMesh(t, 2)

	// Exact (source, tag) match, payload integrity, Source/Tag/GetCount.
	want := []byte("hello over the wire")
	eps[0].Isend(want, 1, 7)
	r := eps[1].Irecv(0, 7)
	r.Wait()
	if !r.Test() || r.Canceled() {
		t.Fatalf("recv state: done=%v canceled=%v", r.Test(), r.Canceled())
	}
	if string(r.Data()) != string(want) || r.GetCount() != len(want) {
		t.Fatalf("payload %q count %d", r.Data(), r.GetCount())
	}
	if r.Source() != 0 || r.Tag() != 7 {
		t.Fatalf("matched (%d,%d), want (0,7)", r.Source(), r.Tag())
	}

	// Zero-length payload.
	eps[1].Isend(nil, 0, 3)
	r = eps[0].Irecv(Any, Any)
	r.Wait()
	if r.GetCount() != 0 || r.Source() != 1 || r.Tag() != 3 {
		t.Fatalf("zero-length recv: count=%d src=%d tag=%d", r.GetCount(), r.Source(), r.Tag())
	}

	// Wildcard tag with a specific source; messages are non-overtaking.
	for i := 0; i < 10; i++ {
		eps[0].Isend([]byte{byte(i)}, 1, 100+i)
	}
	for i := 0; i < 10; i++ {
		r := eps[1].Irecv(0, Any)
		r.Wait()
		if r.Data()[0] != byte(i) || r.Tag() != 100+i {
			t.Fatalf("message %d out of order: got payload %d tag %d", i, r.Data()[0], r.Tag())
		}
	}

	// A posted receive completes on later arrival.
	r = eps[1].Irecv(0, 55)
	if r.Test() {
		t.Fatal("recv completed before send")
	}
	eps[0].Isend([]byte("late"), 1, 55)
	r.Wait()
	if string(r.Data()) != "late" {
		t.Fatalf("late recv: %q", r.Data())
	}
}

func TestTCPSelfSend(t *testing.T) {
	eps := newTCPMesh(t, 2)
	buf := []byte("to myself")
	eps[0].Isend(buf, 0, 9)
	buf[0] = 'X' // Isend copies: caller may clobber its buffer
	r := eps[0].Irecv(0, 9)
	r.Wait()
	if string(r.Data()) != "to myself" {
		t.Fatalf("self send: %q", r.Data())
	}
}

func TestTCPBarrier(t *testing.T) {
	const n = 3
	eps := newTCPMesh(t, n)
	// Several generations; a counter incremented strictly between barriers
	// observes every rank's presence.
	var wg sync.WaitGroup
	var mu sync.Mutex
	count := 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for g := 0; g < 5; g++ {
				mu.Lock()
				count++
				mu.Unlock()
				if err := eps[i].Barrier(); err != nil {
					t.Errorf("rank %d barrier gen %d: %v", i, g, err)
					return
				}
				mu.Lock()
				if count < (g+1)*n {
					t.Errorf("rank %d: barrier %d released early (count %d)", i, g, count)
				}
				mu.Unlock()
				if err := eps[i].Barrier(); err != nil { // second barrier separates generations
					t.Errorf("rank %d barrier: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestTCPStats(t *testing.T) {
	eps := newTCPMesh(t, 2)
	eps[0].Isend(make([]byte, 100), 1, 1)
	eps[0].Isend(make([]byte, 28), 1, 2)
	msgs, bytes := eps[0].Stats()
	if msgs != 2 || bytes != 128 {
		t.Fatalf("stats: %d msgs %d bytes, want 2/128", msgs, bytes)
	}
	if m, b := eps[1].Stats(); m != 0 || b != 0 {
		t.Fatalf("receiver stats: %d msgs %d bytes, want 0/0", m, b)
	}
}

// TestTCPDialFailureNoHang exercises the backoff-exhaustion path: the peer
// address never accepts, so DialTCP must return an error within the
// rendezvous budget instead of hanging.
func TestTCPDialFailureNoHang(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close() // nothing listens here any more: connection refused

	start := time.Now()
	ep, err := DialTCP(TCPConfig{
		Rank:              0,
		Peers:             []string{ln.Addr().String(), deadAddr},
		Listener:          ln,
		RendezvousTimeout: 500 * time.Millisecond,
		DialBackoff:       10 * time.Millisecond,
	})
	elapsed := time.Since(start)
	if err == nil {
		ep.Close()
		t.Fatal("DialTCP succeeded against a dead peer")
	}
	if !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("error does not identify the peer: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("dial failure took %v, backoff did not give up", elapsed)
	}
}

// TestTCPRendezvousTimeout exercises the inbound half: the peer's address
// accepts connections but the peer never dials back, so the hello wait must
// time out with an error naming the missing rank.
func TestTCPRendezvousTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	go func() { // accept and hold, never send hello, never dial back
		for {
			c, err := silent.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()

	ep, err := DialTCP(TCPConfig{
		Rank:              0,
		Peers:             []string{ln.Addr().String(), silent.Addr().String()},
		Listener:          ln,
		RendezvousTimeout: 300 * time.Millisecond,
	})
	if err == nil {
		ep.Close()
		t.Fatal("DialTCP succeeded without the peer's hello")
	}
	if !strings.Contains(err.Error(), "[1]") {
		t.Fatalf("error does not name the missing rank: %v", err)
	}
}

// TestTCPCancelInFlight cancels a posted Irecv while the peer is actively
// streaming unrelated bytes at us, then shows the link still works.
func TestTCPCancelInFlight(t *testing.T) {
	eps := newTCPMesh(t, 2)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		payload := make([]byte, 64<<10)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			eps[0].Isend(payload, 1, 7) // tag 7: never matches the canceled recv
		}
	}()

	r := eps[1].Irecv(0, 5) // tag 5: nothing ever sends this
	time.Sleep(20 * time.Millisecond)
	if !r.Cancel() {
		t.Fatal("Cancel of a pending recv returned false")
	}
	r.Wait() // must return immediately, not hang
	if !r.Canceled() || r.Test() {
		t.Fatalf("after cancel: canceled=%v done=%v", r.Canceled(), r.Test())
	}
	if r.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	close(stop)
	<-done

	// The transport survives: the in-flight tag-7 traffic is deliverable.
	r2 := eps[1].Irecv(0, 7)
	r2.Wait()
	if r2.GetCount() != 64<<10 {
		t.Fatalf("post-cancel recv got %d bytes", r2.GetCount())
	}
}

// TestTCPPeerDeathCancelsRecvs kills one endpoint and asserts the
// survivor's posted receive is canceled rather than hanging, and that
// Barrier reports the failure.
func TestTCPPeerDeathCancelsRecvs(t *testing.T) {
	eps := newTCPMesh(t, 2)
	r := eps[1].Irecv(0, 5)
	eps[0].Close()

	donech := make(chan struct{})
	go func() {
		r.Wait()
		close(donech)
	}()
	select {
	case <-donech:
	case <-time.After(5 * time.Second):
		t.Fatal("posted recv hung after peer death")
	}
	if !r.Canceled() {
		t.Fatal("recv not canceled after peer death")
	}
	if err := eps[1].Barrier(); err == nil {
		t.Fatal("Barrier succeeded on a dead communicator")
	}
	// Posting after failure yields an already-canceled request.
	if r := eps[1].Irecv(Any, Any); !r.Canceled() {
		t.Fatal("post-failure Irecv not canceled")
	}
}

func TestTCPLargeAndConcurrent(t *testing.T) {
	const n = 3
	eps := newTCPMesh(t, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			next := (i + 1) % n
			for k := 0; k < 20; k++ {
				payload := make([]byte, 1+(k*7919)%100000)
				for b := range payload {
					payload[b] = byte(k)
				}
				eps[i].Isend(payload, next, k)
			}
			prev := (i + n - 1) % n
			for k := 0; k < 20; k++ {
				r := eps[i].Irecv(prev, k)
				r.Wait()
				want := 1 + (k*7919)%100000
				if r.GetCount() != want {
					t.Errorf("rank %d msg %d: %d bytes, want %d", i, k, r.GetCount(), want)
					return
				}
				if d := r.Data(); d[0] != byte(k) || d[len(d)-1] != byte(k) {
					t.Errorf("rank %d msg %d corrupt", i, k)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	var bwg sync.WaitGroup
	for i := 0; i < n; i++ {
		bwg.Add(1)
		go func(i int) {
			defer bwg.Done()
			if err := eps[i].Barrier(); err != nil {
				t.Errorf("rank %d final barrier: %v", i, err)
			}
		}(i)
	}
	bwg.Wait()
}

func TestTCPConfigValidation(t *testing.T) {
	if _, err := DialTCP(TCPConfig{Rank: 0}); err == nil {
		t.Fatal("empty peer list accepted")
	}
	if _, err := DialTCP(TCPConfig{Rank: 2, Peers: []string{"a", "b"}}); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if _, err := DialTCP(TCPConfig{Rank: 0, Peers: []string{"256.0.0.1:bad"}}); err == nil {
		t.Fatal("unbindable address accepted")
	}
}

// DialLoopback is all or nothing: with one rank refused, the ranks that were
// waiting for it time out, nothing is returned, and every port is released.
func TestDialLoopbackAllOrNothing(t *testing.T) {
	var addrs []string
	eps, err := DialLoopback(3, func(cfg *TCPConfig) {
		addrs = cfg.Peers
		cfg.RendezvousTimeout = 200 * time.Millisecond
		if cfg.Rank == 1 {
			cfg.Rank = 7 // outside the world: DialTCP refuses before it listens
		}
	})
	if err == nil || eps != nil || !strings.Contains(err.Error(), "loopback rank") {
		t.Fatalf("DialLoopback with a refused rank: %v, %v", eps, err)
	}
	for _, addr := range addrs {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("%s still held after a failed DialLoopback: %v", addr, err)
		}
		ln.Close()
	}
}
