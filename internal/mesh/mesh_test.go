package mesh

import (
	"context"
	"errors"
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"pulsarqr/internal/transport"
)

func parse(t *testing.T, args string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, "MESHTEST", "any")
	if err := fs.Parse(strings.Fields(args)); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestResolve(t *testing.T) {
	for _, tc := range []struct {
		args, envRank, envPeers string
		defRank                 int
		meshed                  bool
		rank                    int
		errHas                  string
	}{
		{args: "", defRank: -1, rank: -1},
		{args: "", envRank: "3", defRank: -1, rank: -1}, // a rank alone asks for nothing
		{args: "-rank 1 -peers a:1,b:1", defRank: -1, meshed: true, rank: 1},
		{args: "-peers a:1,b:1", defRank: 0, meshed: true, rank: 0},
		{args: "-peers a:1,b:1", defRank: -1, errHas: "rank -1 outside peer list of 2"},
		{args: "-peers a:1,b:1", envRank: "1", defRank: 0, meshed: true, rank: 1},
		{args: "-rank 0", envRank: "1", envPeers: "a:1,b:1", defRank: -1, meshed: true, rank: 0}, // a flag beats the environment
		{args: "", envRank: "1", envPeers: "a:1,b:1,c:1", defRank: -1, meshed: true, rank: 1},
		{args: "", envRank: "x", envPeers: "a:1", defRank: -1, errHas: "MESHTEST_RANK"},
		{args: "-rank 2 -peers a:1,b:1", defRank: -1, errHas: "rank 2 outside peer list of 2"},
		{args: "-rank 0", defRank: -1, errHas: "without a peer list"},
	} {
		t.Setenv("MESHTEST_RANK", tc.envRank)
		t.Setenv("MESHTEST_PEERS", tc.envPeers)
		f := parse(t, tc.args)
		meshed, err := f.Resolve(false, tc.defRank)
		if tc.errHas != "" {
			if err == nil || !strings.Contains(err.Error(), tc.errHas) {
				t.Errorf("%q env(%q,%q): err %v, want %q", tc.args, tc.envRank, tc.envPeers, err, tc.errHas)
			}
			continue
		}
		if err != nil || meshed != tc.meshed || f.Rank != tc.rank {
			t.Errorf("%q env(%q,%q): meshed %v rank %d err %v, want %v %d", tc.args, tc.envRank, tc.envPeers, meshed, f.Rank, err, tc.meshed, tc.rank)
		}
	}
}

// Dial on a pre-bound listener joins the mesh the flags describe, with the
// resilience settings on the endpoint; a canceled context abandons a
// rendezvous nobody is coming to, long before its timeout.
func TestDial(t *testing.T) {
	lns, peers, err := transport.ListenLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	list := strings.Join(peers, ",")
	eps := make(chan transport.Endpoint, 2)
	for rank, ln := range lns {
		go func() {
			f := parse(t, "-rank "+string(rune('0'+rank))+" -peers "+list+" -rendezvous 10s")
			if _, err := f.Resolve(false, -1); err != nil {
				t.Error(err)
			}
			f.ln = ln
			ep, err := f.Dial(context.Background(), t.Logf)
			if err != nil {
				t.Error(err)
			}
			eps <- ep
		}()
	}
	for range lns {
		if ep := <-eps; ep != nil {
			if ep.Size() != 2 {
				t.Errorf("mesh of %d", ep.Size())
			}
			defer ep.Close()
		}
	}

	lns, peers, err = transport.ListenLoopback(2)
	if err != nil {
		t.Fatal(err)
	}
	lns[1].Close() // rank 1 never comes
	f := parse(t, "-rank 0 -peers "+strings.Join(peers, ",")+" -rendezvous 1s")
	if _, err := f.Resolve(false, -1); err != nil {
		t.Fatal(err)
	}
	why := errors.New("a rank died")
	ctx, cancel := context.WithCancelCause(context.Background())
	time.AfterFunc(20*time.Millisecond, func() { cancel(why) })
	start := time.Now()
	f.ln = lns[0]
	if _, err := f.Dial(ctx, nil); !errors.Is(err, why) {
		t.Fatalf("abandoned Dial: %v, want the cause", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("Dial took %v to notice its context", d)
	}
}
