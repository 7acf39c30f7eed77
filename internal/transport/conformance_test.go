package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEndpointConformance holds every substrate to the one contract the
// Endpoint interface states: the in-process Local world, a loopback TCP
// mesh, the job endpoints of a Mux session, and Chaos over Local with seeded
// delay and a sever hold on 0→1. All four match receives in the same
// mailbox; what differs is how a message gets there — a copy on the
// sender's goroutine, a socket and a reader goroutine, a demultiplexing
// pump, a per-link delivery queue — so every case waits for arrival instead
// of assuming it.
func TestEndpointConformance(t *testing.T) {
	substrates := []struct {
		name string
		mesh func(t *testing.T, n int) []Endpoint
	}{
		{"local", func(t *testing.T, n int) []Endpoint {
			l := NewLocal(n)
			eps := make([]Endpoint, n)
			for r := range eps {
				eps[r] = l.Endpoint(r)
			}
			return eps
		}},
		{"tcp", newTCPMesh},
		{"mux", func(t *testing.T, n int) []Endpoint {
			l := NewLocal(n)
			eps := make([]Endpoint, n)
			for r := range eps {
				m := NewMux(l.Endpoint(r))
				t.Cleanup(func() { m.Close() })
				jep, err := m.Open(7)
				if err != nil {
					t.Fatalf("rank %d: open job session: %v", r, err)
				}
				eps[r] = jep
			}
			return eps
		}},
		{"chaos", func(t *testing.T, n int) []Endpoint {
			l := NewLocal(n)
			eps := make([]Endpoint, n)
			for r := range eps {
				sch := Schedule{Seed: int64(n), DelayP50: 100 * time.Microsecond, DelayP95: time.Millisecond}
				if r == 0 {
					sch.Sever = []SeverEvent{{Peer: 1, AtFrame: 2, For: 20 * time.Millisecond}}
				}
				c := NewChaos(l.Endpoint(r), sch)
				t.Cleanup(func() { c.Close() })
				eps[r] = c
			}
			return eps
		}},
	}
	cases := []struct {
		name  string
		ranks int
		run   func(t *testing.T, eps []Endpoint)
	}{
		{"basic send recv", 2, conformBasic},
		{"recv before send", 2, conformRecvBeforeSend},
		{"payload copied", 2, conformPayloadCopied},
		{"tag matching", 2, conformTagMatching},
		{"wildcard source and tag", 3, conformWildcard},
		{"non-overtaking same tag", 2, conformNonOvertaking},
		{"posted receives match in order", 2, conformPostedFIFO},
		{"cancel", 2, conformCancel},
		{"cancel wakes waiter", 2, conformCancelWakesWaiter},
		{"await", 2, conformAwait},
		{"barrier", 6, conformBarrier},
		{"barrier reusable", 4, conformBarrierReusable},
		{"on-arrival notify", 2, conformOnArrival},
		{"stats", 2, conformStats},
		{"concurrent stress", 5, conformStress},
	}
	for _, sub := range substrates {
		t.Run(sub.name, func(t *testing.T) {
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) { c.run(t, sub.mesh(t, c.ranks)) })
			}
		})
	}
}

// waitDone fails the test if ch does not close within the budget.
func waitDone(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal(what)
	}
}

func conformBasic(t *testing.T, eps []Endpoint) {
	s := eps[0].Isend([]byte("hello"), 1, 7)
	if !s.Test() {
		t.Fatal("send not eagerly complete")
	}
	r := eps[1].Irecv(0, 7)
	r.Wait()
	if !r.Test() || r.Canceled() || string(r.Data()) != "hello" || r.GetCount() != 5 {
		t.Fatalf("recv got %q (done %v, canceled %v, count %d)", r.Data(), r.Test(), r.Canceled(), r.GetCount())
	}
	if r.Source() != 0 || r.Tag() != 7 {
		t.Fatalf("source/tag = %d/%d", r.Source(), r.Tag())
	}
}

func conformRecvBeforeSend(t *testing.T, eps []Endpoint) {
	r := eps[1].Irecv(0, 3)
	if r.Test() {
		t.Fatal("recv must not complete before the send")
	}
	done := make(chan struct{})
	go func() {
		r.Wait()
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("Wait returned with nothing sent")
	default:
	}
	eps[0].Isend([]byte{1, 2}, 1, 3)
	waitDone(t, done, "Wait did not wake after the matching send")
	if r.Canceled() || r.GetCount() != 2 {
		t.Fatalf("wrong payload: canceled %v, %d bytes", r.Canceled(), r.GetCount())
	}
}

func conformPayloadCopied(t *testing.T, eps []Endpoint) {
	buf := []byte{1, 2, 3}
	eps[0].Isend(buf, 1, 0)
	buf[0] = 99 // the runtime's proxy recycles its buffer exactly this early
	r := eps[1].Irecv(0, 0)
	r.Wait()
	if d := r.Data(); len(d) != 3 || d[0] != 1 {
		t.Fatalf("Isend must copy the payload; received %v", d)
	}
}

func conformTagMatching(t *testing.T, eps []Endpoint) {
	eps[0].Isend([]byte("a"), 1, 1)
	eps[0].Isend([]byte("b"), 1, 2)
	rb := eps[1].Irecv(0, 2)
	ra := eps[1].Irecv(0, 1)
	ra.Wait()
	rb.Wait()
	if string(ra.Data()) != "a" || string(rb.Data()) != "b" {
		t.Fatalf("tag matching wrong: %q %q", ra.Data(), rb.Data())
	}
}

func conformWildcard(t *testing.T, eps []Endpoint) {
	eps[2].Isend([]byte("x"), 0, 9)
	r := eps[0].Irecv(Any, Any)
	r.Wait()
	if r.Source() != 2 || r.Tag() != 9 || string(r.Data()) != "x" {
		t.Fatalf("wildcard recv: %q from %d tag %d", r.Data(), r.Source(), r.Tag())
	}
}

func conformNonOvertaking(t *testing.T, eps []Endpoint) {
	for i := 0; i < 10; i++ {
		eps[0].Isend([]byte{byte(i)}, 1, 4)
	}
	for i := 0; i < 10; i++ {
		r := eps[1].Irecv(0, 4)
		r.Wait()
		if r.Data()[0] != byte(i) {
			t.Fatalf("message %d overtaken: got %d", i, r.Data()[0])
		}
	}
}

func conformPostedFIFO(t *testing.T, eps []Endpoint) {
	// Two posted receives with the same signature match sends in posting
	// order.
	r1 := eps[1].Irecv(0, 5)
	r2 := eps[1].Irecv(0, 5)
	eps[0].Isend([]byte("first"), 1, 5)
	eps[0].Isend([]byte("second"), 1, 5)
	r1.Wait()
	r2.Wait()
	if string(r1.Data()) != "first" || string(r2.Data()) != "second" {
		t.Fatalf("posted order violated: %q %q", r1.Data(), r2.Data())
	}
}

func conformCancel(t *testing.T, eps []Endpoint) {
	r := eps[1].Irecv(0, 1)
	if !r.Cancel() {
		t.Fatal("cancel of a pending recv must succeed")
	}
	if !r.Canceled() || r.Test() {
		t.Fatal("canceled request state wrong")
	}
	if r.Cancel() {
		t.Fatal("double cancel must fail")
	}
	// A message sent afterwards must not match the canceled request.
	eps[0].Isend([]byte("z"), 1, 1)
	r2 := eps[1].Irecv(0, 1)
	r2.Wait()
	if string(r2.Data()) != "z" || r.Test() {
		t.Fatal("canceled recv stole a message")
	}
	// A completed receive and an eager send are both past canceling.
	if r2.Cancel() {
		t.Fatal("cancel of a completed recv must report false")
	}
	if eps[0].Isend([]byte("q"), 1, 2).Cancel() {
		t.Fatal("send cancel must report false")
	}
}

func conformCancelWakesWaiter(t *testing.T, eps []Endpoint) {
	r := eps[1].Irecv(0, 1)
	done := make(chan struct{})
	go func() {
		r.Wait()
		close(done)
	}()
	time.Sleep(5 * time.Millisecond)
	r.Cancel()
	waitDone(t, done, "Wait did not wake on cancel")
}

// awaitWithin is Await held to the test's budget: a verdict that never comes
// fails the test instead of hanging it.
func awaitWithin(t *testing.T, ctx context.Context, ep Endpoint, req Request) error {
	t.Helper()
	verdict := make(chan error, 1)
	go func() { verdict <- Await(ctx, ep, req) }()
	select {
	case err := <-verdict:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Await did not return")
		return nil
	}
}

// conformAwait: Await says why a blocking receive ended — it completed, the
// context ended it (the cause, not the bare verdict), or the endpoint was
// closed under it.
func conformAwait(t *testing.T, eps []Endpoint) {
	bg := context.Background()
	eps[0].Isend([]byte("x"), 1, 2)
	r := eps[1].Irecv(0, 2)
	if err := awaitWithin(t, bg, eps[1], r); err != nil || string(r.Data()) != "x" {
		t.Fatalf("completed receive: err %v, data %q", err, r.Data())
	}

	gaveUp := errors.New("gave up")
	ctx, cancel := context.WithCancelCause(bg)
	time.AfterFunc(5*time.Millisecond, func() { cancel(gaveUp) })
	if err := awaitWithin(t, ctx, eps[1], eps[1].Irecv(0, 2)); err != gaveUp {
		t.Fatalf("canceled context: err %v, want its cause %v", err, gaveUp)
	}

	r = eps[1].Irecv(0, 2)
	time.AfterFunc(5*time.Millisecond, func() { eps[1].Close() })
	if err := awaitWithin(t, bg, eps[1], r); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed endpoint: err %v, want %v", err, ErrClosed)
	}
}

// TestAwaitNamesCrashedPeer: on the substrates that can lose a rank, a
// receive the death ended is reported as that death — the rank by name — on
// the TCP endpoint and on a job session multiplexed over it alike.
func TestAwaitNamesCrashedPeer(t *testing.T) {
	for _, sub := range []struct {
		name string
		on   func(t *testing.T, ep Endpoint) Endpoint
	}{
		{"tcp", func(t *testing.T, ep Endpoint) Endpoint { return ep }},
		{"mux", func(t *testing.T, ep Endpoint) Endpoint {
			m := NewMux(ep)
			t.Cleanup(func() { m.Close() })
			jep, err := m.Open(7)
			if err != nil {
				t.Fatal(err)
			}
			return jep
		}},
	} {
		t.Run(sub.name, func(t *testing.T) {
			// Three ranks, one death: the survivors' link keeps rank 0's
			// endpoint (and the mux pump) alive.
			eps := newTCPMesh(t, 3)
			ep := sub.on(t, eps[0])
			req := ep.Irecv(1, 3)
			eps[1].(Crasher).Crash()
			err := awaitWithin(t, context.Background(), ep, req)
			var pde *PeerDeathError
			if !errors.As(err, &pde) || pde.Rank != 1 {
				t.Fatalf("receive from the crashed rank: err %v, want a PeerDeathError naming rank 1", err)
			}
		})
	}
}

func conformBarrier(t *testing.T, eps []Endpoint) {
	n := int32(len(eps))
	var before, after atomic.Int32
	var wg sync.WaitGroup
	for rank, ep := range eps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			before.Add(1)
			if err := ep.Barrier(); err != nil {
				t.Errorf("rank %d: %v", rank, err)
			}
			if before.Load() != n {
				t.Errorf("rank %d passed the barrier before all arrived", rank)
			}
			after.Add(1)
		}()
	}
	wg.Wait()
	if after.Load() != n {
		t.Fatal("not all ranks passed")
	}
}

func conformBarrierReusable(t *testing.T, eps []Endpoint) {
	const rounds = 5
	// No rank may start round k+1 before every rank finished round k.
	var entered atomic.Int32
	var wg sync.WaitGroup
	for rank, ep := range eps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= rounds; i++ {
				entered.Add(1)
				if err := ep.Barrier(); err != nil {
					t.Errorf("rank %d round %d: %v", rank, i, err)
					return
				}
				if got := int(entered.Load()); got < i*len(eps) {
					t.Errorf("rank %d left round %d with %d entries, want at least %d", rank, i, got, i*len(eps))
				}
			}
		}()
	}
	ok := make(chan struct{})
	go func() { wg.Wait(); close(ok) }()
	waitDone(t, ok, "repeated barriers deadlocked")
}

func conformOnArrival(t *testing.T, eps []Endpoint) {
	var hits atomic.Int32
	eps[1].OnArrival(func() { hits.Add(1) })
	eps[0].Isend([]byte("a"), 1, 0)
	eps[0].Isend([]byte("b"), 1, 0)
	eps[1].Irecv(0, 0).Wait()
	eps[1].Irecv(0, 0).Wait()
	// The callback runs after the message is matchable, outside the
	// mailbox's lock: a receive can complete a moment before it.
	waitFor(t, func() bool { return hits.Load() == 2 }, fmt.Sprintf("notify hits = %d, want one per arrival", hits.Load()))
	eps[1].OnArrival(nil)
	eps[0].Isend([]byte("c"), 1, 0)
	eps[1].Irecv(0, 0).Wait()
	if hits.Load() != 2 {
		t.Fatalf("notify hits = %d after the callback was removed", hits.Load())
	}
}

func conformStats(t *testing.T, eps []Endpoint) {
	eps[0].Isend(make([]byte, 100), 1, 0)
	eps[1].Isend(make([]byte, 50), 0, 0)
	// Per-endpoint accounting of payload sent, whatever the framing below.
	if m, b := eps[0].Stats(); m != 1 || b != 100 {
		t.Fatalf("rank 0 stats = %d msgs %d bytes, want 1/100", m, b)
	}
	if m, b := eps[1].Stats(); m != 1 || b != 50 {
		t.Fatalf("rank 1 stats = %d msgs %d bytes, want 1/50", m, b)
	}
	r := eps[1].Irecv(0, 0)
	r.Wait()
	if r.GetCount() != 100 {
		t.Fatalf("rank 1 received %d bytes, want 100", r.GetCount())
	}
}

func conformStress(t *testing.T, eps []Endpoint) {
	// Every rank sends msgs tagged messages to every other rank while
	// receiving from all of them; each must arrive exactly once, in order,
	// with the right payload.
	const msgs = 200
	n := len(eps)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for rank, ep := range eps {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				for d := 0; d < n; d++ {
					if d != rank {
						ep.Isend([]byte(fmt.Sprintf("%d:%d", rank, i)), d, rank)
					}
				}
			}
		}()
		go func() {
			defer wg.Done()
			for src := 0; src < n; src++ {
				if src == rank {
					continue
				}
				for i := 0; i < msgs; i++ {
					req := ep.Irecv(src, src)
					req.Wait()
					if want := fmt.Sprintf("%d:%d", src, i); string(req.Data()) != want {
						errs <- fmt.Errorf("rank %d: got %q want %q (canceled %v)", rank, req.Data(), want, req.Canceled())
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
