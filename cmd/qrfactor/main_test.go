package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// -launch re-executes os.Executable(), which under `go test` is this test
// binary: with the switch set — and inherited by every child — TestMain
// re-enters run, so a launched mesh is real processes running the real
// command with no binary built on the side.
const helperEnv = "QRFACTOR_TEST_IS_QRFACTOR"

func TestMain(m *testing.M) {
	if os.Getenv(helperEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Setenv(helperEnv, "1")
	os.Exit(m.Run())
}

// syncBuffer is an output the launcher's relays and run itself may share.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// qrfactor runs the command in-process and returns its exit code and its
// combined output.
func qrfactor(args ...string) (int, string) {
	var out syncBuffer
	code := run(args, &out, &out)
	return code, out.String()
}

const small = "-m 512 -n 64 -nb 32 -ib 8"

func TestLaunchChecksAgainstSequential(t *testing.T) {
	t.Parallel()
	code, out := qrfactor(strings.Fields("-launch 2 " + small + " -rhs 2 -check")...)
	if code != 0 || !strings.Contains(out, "check     result elementwise equal to sequential") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"[rank 1] qrfactor 1: done in", "nodes=2", "boundary=shifted", "lsq "} {
		if !strings.Contains(out, want) {
			t.Errorf("no %q in:\n%s", want, out)
		}
	}
}

// Every flag reaches every rank: -fixed changes the plan on all of them (a
// rank left on the shifted boundary would not pass the elementwise check
// against the fixed-boundary reference), -in is read by each, -out is written
// by rank 0.
func TestLaunchHandsEveryFlagToEveryRank(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	first, second := filepath.Join(dir, "r1.mtx"), filepath.Join(dir, "r2.mtx")
	code, out := qrfactor(strings.Fields("-launch 2 " + small + " -fixed -check -out " + first)...)
	if code != 0 || !strings.Contains(out, "boundary=fixed") || !strings.Contains(out, "check     result") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	// R is 64×64: feed it back in as the input of a second launched run.
	code, out = qrfactor("-launch", "2", "-nb", "32", "-ib", "8", "-in", first, "-out", second, "-check")
	if code != 0 || !strings.Contains(out, "factoring 64x64") {
		t.Fatalf("-in: exit %d:\n%s", code, out)
	}
	if st, err := os.Stat(second); err != nil || st.Size() == 0 {
		t.Fatalf("-out wrote nothing: %v", err)
	}
}

func TestFlagsAMeshCannotHonourAreRefused(t *testing.T) {
	t.Parallel()
	out2 := filepath.Join(t.TempDir(), "r.mtx")
	for _, tc := range []struct{ args, names string }{
		{"-launch 2 -engine quark -fixed -check -out " + out2, "-engine quark"},
		{"-launch 2 -engine sequential", "-engine sequential"},
		{"-launch 2 -nodes 2", "-nodes 2"},
		{"-rank 0 -peers 127.0.0.1:1,127.0.0.1:2 -nodes 3", "-nodes 3"},
		{"-rank 1 -peers 127.0.0.1:1,127.0.0.1:2 -engine quark", "-engine quark"},
		{"-rank 2 -peers 127.0.0.1:1,127.0.0.1:2", "rank 2 outside peer list of 2"},
		{"-rank 0", "without a peer list"},
		{"-rank 0 -peers=", "without a peer list"},
		{"-launch 2 stray", `unexpected argument "stray"`},
		{"-engine fpga", `unknown engine "fpga"`},
		{"-tree ternary", `unknown tree "ternary"`},
		{"-engine quark -trace x.jsonl", "-trace requires -engine systolic"},
	} {
		code, out := qrfactor(strings.Fields(tc.args)...)
		if code == 0 || !strings.Contains(out, tc.names) {
			t.Errorf("qrfactor %s: exit %d, want non-zero naming %q:\n%s", tc.args, code, tc.names, out)
		}
		if strings.Contains(out, "is pid") || strings.Contains(out, "factoring") {
			t.Errorf("qrfactor %s: started work before refusing:\n%s", tc.args, out)
		}
	}
	if _, err := os.Stat(out2); err == nil {
		t.Error("a refused run wrote -out")
	}
}

func TestRankAndPeersFallBackToEnvironment(t *testing.T) {
	t.Setenv("QRNODE_RANK", "5")
	t.Setenv("QRNODE_PEERS", "127.0.0.1:1,127.0.0.1:2")
	if code, out := qrfactor(); code == 0 || !strings.Contains(out, "rank 5 outside peer list of 2") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	t.Setenv("QRNODE_RANK", "one")
	if code, out := qrfactor(); code == 0 || !strings.Contains(out, "QRNODE_RANK") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
}

func TestLaunchGathersOneTraceShardPerRank(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "t.jsonl")
	code, out := qrfactor(strings.Fields("-launch 3 " + small + " -trace " + path)...)
	if code != 0 || !strings.Contains(out, "trace     3 shards") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte(`{"t":"shard"`)); n != 3 {
		t.Fatalf("%d shard headers in the trace, want 3", n)
	}
}

// One process, no mesh: the three engines, -check included, and the
// single-shard trace.
func TestSingleProcessEngines(t *testing.T) {
	t.Parallel()
	for _, engine := range []string{"systolic", "quark", "sequential"} {
		code, out := qrfactor(strings.Fields(small + " -nodes 2 -threads 2 -tree flat -check -engine " + engine)...)
		if code != 0 || !strings.Contains(out, "check     result") || !strings.Contains(out, "tree=flat") {
			t.Errorf("%s: exit %d:\n%s", engine, code, out)
		}
	}
	path := filepath.Join(t.TempDir(), "t.jsonl")
	if code, out := qrfactor(strings.Fields(small + " -trace " + path)...); code != 0 || !strings.Contains(out, "trace     1 shards") {
		t.Errorf("-trace: exit %d:\n%s", code, out)
	}
}

// An n = 0 factorization is exact: its residual reads 0 (not 0/0) and the
// command exits 0.
func TestEmptyMatrixPassesTheResidualGate(t *testing.T) {
	t.Parallel()
	code, out := qrfactor("-m", "16", "-n", "0")
	if code != 0 || !strings.Contains(out, "= 0.000e+00") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
}

// A NaN in the input makes the residual NaN, which fails the gate as a
// residual above tolerance does.
func TestNaNInputFailsTheResidualGate(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "nan.mtx")
	mtx := "%%MatrixMarket matrix array real general\n4 2\n1\n2\n3\n4\n5\nNaN\n7\n8\n"
	if err := os.WriteFile(path, []byte(mtx), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := qrfactor("-in", path)
	if code != 1 || !strings.Contains(out, "WARNING: residual above tolerance") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
}
