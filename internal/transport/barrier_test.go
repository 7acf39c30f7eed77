package transport

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// barrierFabric is the barrier protocol with the substrate taken away: n
// barrierStates whose send is a direct call of the receiver's handle, every
// phase byte logged.
type barrierFabric struct {
	states []*barrierState
	mu     sync.Mutex
	sent   []string
}

func newBarrierFabric(n int) *barrierFabric {
	f := &barrierFabric{}
	for r := 0; r < n; r++ {
		f.states = append(f.states, newBarrierState(r, n))
	}
	return f
}

func (f *barrierFabric) wait(rank int) error {
	return f.states[rank].wait(func(to, gen int, phase byte) {
		f.mu.Lock()
		f.sent = append(f.sent, fmt.Sprintf("%d->%d gen %d phase %d", rank, to, gen, phase))
		f.mu.Unlock()
		f.states[to].handle(rank, gen, phase)
	})
}

// TestBarrierProtocol drives barrierState.wait, the one body TCP and mux
// barriers run, through every exit it has.
func TestBarrierProtocol(t *testing.T) {
	death := errors.New("rank 2 fell over")
	for _, tc := range []struct {
		name string
		size int
		// before runs on the fabric before any rank waits; during, if set,
		// runs once every rank in waits has taken its generation.
		before, during func(f *barrierFabric)
		waits          []int // ranks that call wait, concurrently
		want           error // what every waiter's error must wrap; nil for success
		sends          int   // phase bytes sent in total
	}{
		{name: "completes", size: 3, waits: []int{0, 1, 2}, sends: 4},
		{name: "single rank needs no one", size: 1, waits: []int{0}},
		{
			name: "a member that departs before entering dooms the generation", size: 3, waits: []int{0, 1},
			during: func(f *barrierFabric) {
				// Every survivor's own failure detection sees the death; the
				// non-root one is only released from its wait by rank 0's abort.
				f.states[1].depart(2, death)
				f.states[0].depart(2, death)
			},
			want: death, sends: 3, // 1's enter, then an abort to 1 and to the dead 2
		},
		{
			name: "a release already received beats rank 0's departure", size: 2, waits: []int{1},
			before: func(f *barrierFabric) {
				f.states[1].handle(0, 0, BarrierRelease)
				f.states[1].depart(0, death)
			},
			sends: 1,
		},
		{
			name: "a generation everyone entered beats a later departure", size: 3, waits: []int{0},
			before: func(f *barrierFabric) {
				f.states[0].handle(1, 0, BarrierEnter)
				f.states[0].handle(2, 0, BarrierEnter)
				f.states[0].depart(2, death)
			},
			sends: 2,
		},
		{
			name: "rank 0 gone with no release", size: 2, waits: []int{1},
			during: func(f *barrierFabric) { f.states[1].depart(0, death) },
			want:   death, sends: 1,
		},
		{
			name: "failed communicator", size: 2, waits: []int{0, 1},
			before: func(f *barrierFabric) {
				f.states[0].fail(ErrClosed)
				f.states[1].fail(ErrClosed)
			},
			want: ErrClosed,
		},
		{
			name: "failure while waiting", size: 2, waits: []int{0},
			during: func(f *barrierFabric) { f.states[0].fail(ErrClosed) },
			want:   ErrClosed, sends: 1, // rank 0 still tells rank 1 the generation is dead
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newBarrierFabric(tc.size)
			if tc.before != nil {
				tc.before(f)
			}
			errs := make([]error, len(tc.waits))
			var wg sync.WaitGroup
			for i, r := range tc.waits {
				wg.Add(1)
				go func(i, r int) {
					defer wg.Done()
					errs[i] = f.wait(r)
				}(i, r)
			}
			if tc.during != nil {
				for _, r := range tc.waits { // until each waiter holds generation 0
					for b := f.states[r]; ; time.Sleep(100 * time.Microsecond) {
						b.mu.Lock()
						in := b.gen == 1
						b.mu.Unlock()
						if in {
							break
						}
					}
				}
				tc.during(f)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("a waiter never returned")
			}
			for i, err := range errs {
				if (tc.want == nil) != (err == nil) || !errors.Is(err, tc.want) {
					t.Errorf("rank %d: %v, want an error wrapping %v", tc.waits[i], err, tc.want)
				}
			}
			if len(f.sent) != tc.sends {
				t.Errorf("sent %d phase bytes %v, want %d", len(f.sent), f.sent, tc.sends)
			}
			for _, r := range tc.waits {
				b := f.states[r]
				if n := len(b.entered) + len(b.released) + len(b.aborted); n != 0 && tc.want == nil {
					t.Errorf("rank %d left %d generation records behind", r, n)
				}
			}
		})
	}
}

// TestFailureLogKeepsTheFirstDeath: with two ranks dead, Mux.PeerFailure
// reports the one that died first, every time — it used to return whichever
// a map iteration produced — and a session opened afterwards learns of the
// deaths in that same order.
func TestFailureLogKeepsTheFirstDeath(t *testing.T) {
	m := NewMux(NewLocal(4).Endpoint(0))
	defer m.Close()
	first, second := errors.New("rank 3 died first"), errors.New("rank 1 died second")
	var seen []int
	m.OnPeerFailure(func(rank int, err error) { seen = append(seen, rank) })
	m.peerFailed(3, first)
	m.peerFailed(1, second)
	m.peerFailed(3, errors.New("told twice"))
	for i := 0; i < 100; i++ {
		if err := m.PeerFailure(); err != first {
			t.Fatalf("read %d: PeerFailure() = %v, want %v", i, err, first)
		}
	}
	if dead := m.DeadPeers(); len(dead) != 2 || dead[0] != 1 || dead[1] != 3 {
		t.Fatalf("DeadPeers() = %v, want [1 3]", dead)
	}
	if len(seen) != 2 || seen[0] != 3 || seen[1] != 1 {
		t.Fatalf("observer saw %v, want [3 1]", seen)
	}
	jep, err := m.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	defer jep.Close()
	if err := jep.PeerFailure(); err != first {
		t.Fatalf("late session's PeerFailure() = %v, want %v", err, first)
	}
	m.OnPeerFailure(nil)
	m.peerFailed(2, errors.New("nobody listening"))
	if len(seen) != 2 || m.PeerFailure() != first {
		t.Fatalf("after unregistering: observer saw %v, PeerFailure() = %v", seen, m.PeerFailure())
	}
}
