package transport

// Multi-process tests: the test binary re-executes itself as worker
// processes (one per rank), so a real TCP mesh between real OS processes is
// exercised without building any auxiliary binary.

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"
)

const (
	workerEnvRole  = "PULSARQR_TRANSPORT_WORKER"
	workerEnvRank  = "PULSARQR_TRANSPORT_RANK"
	workerEnvPeers = "PULSARQR_TRANSPORT_PEERS"
)

func TestMain(m *testing.M) {
	if os.Getenv(workerEnvRole) != "" {
		os.Exit(runWorker())
	}
	os.Exit(m.Run())
}

// runWorker is the body of one spawned rank: join the mesh, run several
// barrier generations interleaved with a ring token pass, and exit 0 only
// if every step checks out.
func runWorker() int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "worker: "+format+"\n", args...)
		return 1
	}
	rank, err := strconv.Atoi(os.Getenv(workerEnvRank))
	if err != nil {
		return fail("bad rank: %v", err)
	}
	peers := strings.Split(os.Getenv(workerEnvPeers), ",")
	ep, err := DialTCP(TCPConfig{
		Rank:              rank,
		Peers:             peers,
		RendezvousTimeout: 20 * time.Second,
	})
	if err != nil {
		return fail("dial: %v", err)
	}
	defer ep.Close()
	n := ep.Size()

	for gen := 0; gen < 3; gen++ {
		if err := ep.Barrier(); err != nil {
			return fail("barrier gen %d: %v", gen, err)
		}
		// Ring token pass: rank r sends (gen, r) to r+1 and expects
		// (gen, r-1) from r-1 — proves post-barrier data flow each round.
		next, prev := (rank+1)%n, (rank+n-1)%n
		ep.Isend([]byte{byte(gen), byte(rank)}, next, 40+gen)
		r := ep.Irecv(prev, 40+gen)
		r.Wait()
		if r.Canceled() {
			return fail("gen %d token recv canceled", gen)
		}
		d := r.Data()
		if len(d) != 2 || d[0] != byte(gen) || d[1] != byte(prev) {
			return fail("gen %d token %v from %d", gen, d, prev)
		}
	}
	if err := ep.Barrier(); err != nil {
		return fail("final barrier: %v", err)
	}
	fmt.Println("worker ok rank", rank)
	return 0
}

// freeLoopbackAddrs reserves n distinct loopback ports by binding and
// releasing them; the worker processes re-bind them immediately after.
func freeLoopbackAddrs(t *testing.T, n int) []string {
	t.Helper()
	lns, addrs, err := ListenLoopback(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// TestBarrierAcrossProcesses runs a 3-rank communicator as 3 real OS
// processes over TCP and asserts every rank's barriers and token passes
// complete — the satellite requirement "Barrier across 3 real processes".
func TestBarrierAcrossProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	addrs := freeLoopbackAddrs(t, n)
	peerList := strings.Join(addrs, ",")

	cmds := make([]*exec.Cmd, n)
	outs := make([]strings.Builder, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-test.run=^$")
		cmd.Env = append(os.Environ(),
			workerEnvRole+"=1",
			fmt.Sprintf("%s=%d", workerEnvRank, i),
			workerEnvPeers+"="+peerList,
		)
		cmd.Stdout = &outs[i]
		cmd.Stderr = &outs[i]
		if err := cmd.Start(); err != nil {
			t.Fatalf("start rank %d: %v", i, err)
		}
		cmds[i] = cmd
	}
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Errorf("rank %d failed: %v\n%s", i, err, outs[i].String())
		}
	}
	for i := range outs {
		if !strings.Contains(outs[i].String(), fmt.Sprintf("worker ok rank %d", i)) {
			t.Errorf("rank %d did not report success:\n%s", i, outs[i].String())
		}
	}
}
