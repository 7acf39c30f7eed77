package transport

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// chaosPayload derives a deterministic, length-varying payload for message i
// on one link, so delivery checks catch corruption as well as reordering.
func chaosPayload(i int) []byte {
	b := make([]byte, 1+i%61)
	for k := range b {
		b[k] = byte(i + k)
	}
	return b
}

// chaosLocal wraps every rank of a fresh in-process world in sch.
func chaosLocal(t *testing.T, n int, sch Schedule) []*Chaos {
	l := NewLocal(n)
	cs := make([]*Chaos, n)
	for r := range cs {
		cs[r] = NewChaos(l.Endpoint(r), sch)
		t.Cleanup(func() { cs[r].Close() })
	}
	return cs
}

// chaosScript drives one fixed conversation over a 2-rank world: rank 0
// sends forward messages, rank 1 echoes back count of its own, and both
// sides assert exactly-once in-order delivery. It returns both fault logs.
func chaosScript(t *testing.T, c0, c1 *Chaos, forward, back int) (string, string) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < forward; i++ {
			r := c1.Irecv(0, Any)
			r.Wait()
			if r.Canceled() {
				t.Errorf("forward recv %d canceled", i)
				return
			}
			if r.Tag() != i || !bytes.Equal(r.Data(), chaosPayload(i)) {
				t.Errorf("forward message %d: tag %d payload %v", i, r.Tag(), r.Data())
				return
			}
		}
		for i := 0; i < back; i++ {
			c1.Isend(chaosPayload(1000+i), 0, i)
		}
	}()

	for i := 0; i < forward; i++ {
		c0.Isend(chaosPayload(i), 1, i)
	}
	for i := 0; i < back; i++ {
		r := c0.Irecv(1, i)
		r.Wait()
		if r.Canceled() || !bytes.Equal(r.Data(), chaosPayload(1000+i)) {
			t.Fatalf("back message %d: canceled=%v payload %v", i, r.Canceled(), r.Data())
		}
	}
	<-done
	return c0.FaultLog(), c1.FaultLog()
}

// TestChaosDeterministicReplay is the core contract of the harness: the
// same seed and the same per-link send sequence reproduce the same fault
// sequence exactly, byte for byte, delays and severs included — whatever
// the goroutine scheduler did in between.
func TestChaosDeterministicReplay(t *testing.T) {
	sch := Schedule{
		Seed:     0xC0FFEE,
		DelayP50: 100 * time.Microsecond,
		DelayP95: 500 * time.Microsecond,
		Sever:    []SeverEvent{{Peer: 1, AtFrame: 100, For: 5 * time.Millisecond}},
	}
	play := func() (string, string) {
		cs := chaosLocal(t, 2, sch)
		return chaosScript(t, cs[0], cs[1], 300, 150)
	}
	log0a, log1a := play()
	log0b, log1b := play()
	if log0a != log0b {
		t.Fatalf("rank 0 fault log not reproducible:\nrun A:\n%srun B:\n%s", log0a, log0b)
	}
	if log1a != log1b {
		t.Fatalf("rank 1 fault log not reproducible:\nrun A:\n%srun B:\n%s", log1a, log1b)
	}
	// The schedule must actually have injected faults, or the test proves
	// nothing: a sever and at least one delay on the busy link.
	for _, mark := range []string{"!", "~"} {
		if !strings.Contains(log0a, mark) {
			t.Errorf("rank 0 fault log has no %q verdict:\n%s", mark, log0a)
		}
	}
	// A different seed must give a different fault sequence (the log is not
	// degenerate).
	sch.Seed = 0xBAD5EED
	log0c, _ := play()
	if log0c == log0a {
		t.Fatal("different seeds produced identical fault logs")
	}
}

// TestChaosExactlyOnceUnderFaults puts heavy delay and several severs on
// both directions of one link — held on the in-process world, real socket
// cuts repaired by redial and resume on TCP. The delivery assertions live
// in chaosScript: every message arrives exactly once, in order,
// bit-identical.
func TestChaosExactlyOnceUnderFaults(t *testing.T) {
	sch := Schedule{
		Seed:     7,
		DelayP50: 50 * time.Microsecond,
		DelayP95: 2 * time.Millisecond,
		Sever: []SeverEvent{
			{Peer: 1, AtFrame: 40, For: 2 * time.Millisecond},
			{Peer: 1, AtFrame: 250, For: 2 * time.Millisecond},
			{Peer: 1, AtFrame: 499, For: 2 * time.Millisecond},
			{Peer: 0, AtFrame: 1, For: 2 * time.Millisecond},
			{Peer: 0, AtFrame: 120, For: 2 * time.Millisecond},
		},
	}
	for _, sub := range []struct {
		name string
		mesh func(t *testing.T) []Endpoint
	}{
		{"local", func(t *testing.T) []Endpoint {
			l := NewLocal(2)
			return []Endpoint{l.Endpoint(0), l.Endpoint(1)}
		}},
		{"tcp", func(t *testing.T) []Endpoint {
			return newTCPMeshCfg(t, 2, func(cfg *TCPConfig) {
				cfg.Reconnect = 2 * time.Second
				cfg.ReconnectBackoff = 2 * time.Millisecond
			})
		}},
	} {
		t.Run(sub.name, func(t *testing.T) {
			eps := sub.mesh(t)
			c0, c1 := NewChaos(eps[0], sch), NewChaos(eps[1], sch)
			defer c1.Close()
			defer c0.Close()
			log0, log1 := chaosScript(t, c0, c1, 500, 200)
			if n := strings.Count(log0, "!") + strings.Count(log1, "!"); n != len(sch.Sever) {
				t.Fatalf("%d of %d severs fired:\n%s%s", n, len(sch.Sever), log0, log1)
			}
			for _, c := range []*Chaos{c0, c1} {
				if err := c.PeerFailure(); err != nil {
					t.Fatalf("rank %d rendered a failure verdict across survivable severs: %v", c.Rank(), err)
				}
			}
		})
	}
}

// TestChaosSelfSend: messages to the own rank cross no link, so no delay or
// sever touches them.
func TestChaosSelfSend(t *testing.T) {
	c := chaosLocal(t, 2, Schedule{
		Seed:     1,
		DelayP50: time.Hour,
		Sever:    []SeverEvent{{Peer: 0, AtFrame: 1, For: time.Hour}},
	})[0]
	c.Isend([]byte("to myself"), 0, 4)
	r := c.Irecv(0, 4)
	if !r.Test() || string(r.Data()) != "to myself" {
		t.Fatalf("self send through chaos was not delivered at once: %q", r.Data())
	}
	if log := c.FaultLog(); strings.ContainsAny(log, "~!") {
		t.Fatalf("self send consumed fault verdicts:\n%s", log)
	}
}

// TestChaosKillOverLocal: on an endpoint that cannot crash, a kill closes
// the rank — its posted receives cancel — and nothing it sends from the
// kill on leaves it.
func TestChaosKillOverLocal(t *testing.T) {
	cs := chaosLocal(t, 2, Schedule{Seed: 5, KillAtFrame: 3})
	pending := cs[0].Irecv(1, 0)
	for i := 0; i < 5; i++ {
		cs[0].Isend([]byte{byte(i)}, 1, i)
	}
	pending.Wait()
	if !pending.Canceled() {
		t.Fatal("the killed rank's posted receive did not cancel")
	}
	cs[0].Close() // delivers whatever left before the kill
	for tag := 2; tag < 5; tag++ {
		if r := cs[1].Irecv(0, tag); r.Test() {
			t.Fatalf("message %d, sent at or after the kill, arrived", tag)
		}
	}
}

// TestChaosConcurrentLinks: fault draws are per-link, so concurrent senders
// to different destinations do not perturb each other's verdict streams.
func TestChaosConcurrentLinks(t *testing.T) {
	const n, msgs = 4, 120
	sch := Schedule{Seed: 99, DelayP50: 20 * time.Microsecond, DelayP95: 200 * time.Microsecond}
	for p := 0; p < n; p++ {
		sch.Sever = append(sch.Sever, SeverEvent{Peer: p, AtFrame: 30 + 20*int64(p), For: time.Millisecond})
	}

	run := func() []string {
		cs := chaosLocal(t, n, sch)
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := 0; i < msgs; i++ {
					cs[r].Isend(chaosPayload(i), (r+1)%n, i)
				}
				for i := 0; i < msgs; i++ {
					req := cs[r].Irecv((r+n-1)%n, i)
					req.Wait()
					if req.Canceled() || !bytes.Equal(req.Data(), chaosPayload(i)) {
						t.Errorf("rank %d message %d corrupted", r, i)
						return
					}
				}
			}(r)
		}
		wg.Wait()
		logs := make([]string, n)
		for r := 0; r < n; r++ {
			logs[r] = cs[r].FaultLog()
			if strings.Count(logs[r], "!") != 1 {
				t.Errorf("rank %d: want one sever on its link:\n%s", r, logs[r])
			}
		}
		return logs
	}

	a, b := run(), run()
	for r := range a {
		if a[r] != b[r] {
			t.Fatalf("rank %d fault log differs across identical concurrent runs:\n%s\nvs\n%s", r, a[r], b[r])
		}
	}
}
