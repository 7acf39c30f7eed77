package qr

// Distributed factorization tests. The first drives FactorizeVSAIn over
// the in-process transport (three ranks as goroutines); the second spawns
// real OS processes joined by a TCP mesh — the test binary re-executes
// itself in a worker role, so no auxiliary binary is built.

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/transport"
)

const (
	distEnvRole  = "PULSARQR_QR_WORKER"
	distEnvRank  = "PULSARQR_QR_RANK"
	distEnvPeers = "PULSARQR_QR_PEERS"
)

func TestMain(m *testing.M) {
	if os.Getenv(distEnvRole) != "" {
		os.Exit(runDistWorker())
	}
	os.Exit(m.Run())
}

// distInputs builds the (identical) worker inputs: every rank re-derives
// the same matrices from the same seed, mirroring how real distributed
// codes agree on input without shipping it. H is left unset, so every rank
// derives it (one domain per worker of the mesh: 8 tile rows, h = 2 on 3×2
// and on 2×2 workers) and the reference runs the h rank 0 resolved.
func distInputs() (d, b *matrix.Mat, o Options) {
	rng := rand.New(rand.NewSource(42))
	d = matrix.NewRand(61, 17, rng)
	b = matrix.NewRand(61, 3, rng)
	o = Options{NB: 8, IB: 4, Tree: HierarchicalTree}
	return d, b, o
}

func TestFactorizeVSADistMatchesSequential(t *testing.T) {
	d, b, o := distInputs()
	const ranks = 3
	lw := transport.NewLocal(ranks)
	results := make([]*Factorization, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = FactorizeVSAIn(context.Background(),
				matrix.FromDense(d, o.NB), matrix.FromDense(b, o.NB),
				o, RunConfig{Threads: 2}, Env{Endpoint: lw.Endpoint(r)})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r := 1; r < ranks; r++ {
		if results[r] != nil {
			t.Fatalf("rank %d returned a factorization; only rank 0 assembles", r)
		}
	}
	if h := results[0].Opts.H; h != 2 {
		t.Fatalf("3 ranks × 2 threads over 8 tile rows resolved h=%d, want 2", h)
	}
	seq, err := Factorize(matrix.FromDense(d, o.NB), matrix.FromDense(b, o.NB), results[0].Opts)
	if err != nil {
		t.Fatal(err)
	}
	assertFactorizationsEqual(t, seq, results[0])
	if res := results[0].Residual(d); res > 1e-13 {
		t.Fatalf("residual %v", res)
	}
	if results[0].Stats.Messages == 0 || results[0].Stats.Bytes == 0 {
		t.Fatal("distributed run reports no network traffic")
	}
}

// runDistWorker is one rank of the TCP factorization: rank 0 additionally
// checks the distributed result elementwise against the sequential
// reference and reports through its exit status and output.
func runDistWorker() int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(os.Stderr, "worker: "+format+"\n", args...)
		return 1
	}
	rank, err := strconv.Atoi(os.Getenv(distEnvRank))
	if err != nil {
		return fail("bad rank: %v", err)
	}
	peers := strings.Split(os.Getenv(distEnvPeers), ",")
	ep, err := transport.DialTCP(transport.TCPConfig{
		Rank:              rank,
		Peers:             peers,
		RendezvousTimeout: 20 * time.Second,
	})
	if err != nil {
		return fail("dial: %v", err)
	}
	defer ep.Close()

	d, b, o := distInputs()
	f, err := FactorizeVSAIn(context.Background(),
		matrix.FromDense(d, o.NB), matrix.FromDense(b, o.NB),
		o, RunConfig{Threads: 2}, Env{Endpoint: ep})
	if err != nil {
		return fail("factorize: %v", err)
	}
	if rank != 0 {
		fmt.Println("qr worker done rank", rank)
		return 0
	}
	seq, err := Factorize(matrix.FromDense(d, o.NB), matrix.FromDense(b, o.NB), f.Opts)
	if err != nil {
		return fail("sequential reference: %v", err)
	}
	if diff := matrix.MaxAbsDiff(seq.A.ToDense(), f.A.ToDense()); diff != 0 {
		return fail("factored tiles differ by %v", diff)
	}
	if diff := matrix.MaxAbsDiff(seq.QTB.ToDense(), f.QTB.ToDense()); diff != 0 {
		return fail("QtB differs by %v", diff)
	}
	if len(seq.log) != len(f.log) {
		return fail("logs: %d vs %d entries", len(seq.log), len(f.log))
	}
	if sq, fq := seq.Q(), f.Q(); !sameBits(sq, fq) {
		return fail("Q differs by %v", matrix.MaxAbsDiff(sq, fq))
	}
	if res := f.Residual(d); res > 1e-13 {
		return fail("residual %v", res)
	}
	fmt.Println("qr dist equal to sequential")
	return 0
}

// TestFactorizeVSADistOverTCPProcesses runs the factorization as 2 real OS
// processes over loopback TCP and asserts the result is elementwise equal
// to the sequential reference (checked inside the rank-0 process).
func TestFactorizeVSADistOverTCPProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	const n = 2
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	peerList := strings.Join(addrs, ",")

	cmds := make([]*exec.Cmd, n)
	outs := make([]strings.Builder, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-test.run=^$")
		cmd.Env = append(os.Environ(),
			distEnvRole+"=1",
			fmt.Sprintf("%s=%d", distEnvRank, i),
			distEnvPeers+"="+peerList,
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
	if !strings.Contains(outs[0].String(), "qr dist equal to sequential") {
		t.Errorf("rank 0 did not verify equality:\n%s", outs[0].String())
	}
}

// A matrix with no columns has no VDP to carry the rows of B rank 0 lacks,
// so across a mesh every rank refuses it, before any exchange.
func TestFactorizeVSADistRefusesZeroColumns(t *testing.T) {
	lw := transport.NewLocal(2)
	for r := 0; r < 2; r++ {
		a, b := matrix.FromDense(matrix.New(16, 0), 8), matrix.FromDense(matrix.New(16, 2), 8)
		f, err := FactorizeVSAIn(context.Background(), a, b, Options{NB: 8, IB: 4}, RunConfig{}, Env{Endpoint: lw.Endpoint(r)})
		if f != nil || err == nil || !strings.Contains(err.Error(), "16x0") {
			t.Fatalf("rank %d: %v, %v; want an error naming the 16x0 matrix", r, f, err)
		}
	}
}
