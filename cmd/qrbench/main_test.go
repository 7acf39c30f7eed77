package main

import (
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"pulsarqr/internal/service"
	"pulsarqr/internal/simulate"
)

// qrbench prints with fmt and exits through log.Fatal, so its tests run the
// real command: the test binary re-executes itself with this switch set, and
// TestMain hands the child to main.
const helperEnv = "QRBENCH_TEST_IS_QRBENCH"

func TestMain(m *testing.M) {
	if os.Getenv(helperEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// qrbench runs the command with args and returns its exit code and its
// combined output.
func qrbench(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), helperEnv+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), string(out)
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, string(out)
}

// The sweep holds the planner's invariant on every shape of its grid, and no
// line names a tile: the planner chooses tree, h and ranks only.
func TestPlanSweep(t *testing.T) {
	t.Parallel()
	code, out := qrbench(t, "-plan", "-plan-machine", "kraken:16", "-plan-sweep")
	if code != 0 || !strings.Contains(out, "sweep ok") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "nb=") {
			t.Errorf("line names a tile: %q", line)
		}
	}
}

func TestPlanMachineSpecs(t *testing.T) {
	t.Parallel()
	if code, out := qrbench(t, "-plan", "-plan-machine", "localhost:2,3"); code != 0 || !strings.Contains(out, "chosen:") {
		t.Errorf("localhost:2,3: exit %d:\n%s", code, out)
	}
	if code, out := qrbench(t, "-plan", "-plan-machine", "bogus"); code == 0 || !strings.Contains(out, `"bogus"`) {
		t.Errorf("bogus: exit %d, want non-zero naming the spec:\n%s", code, out)
	}
	// A model file is a bare machine object; a {"machine": …} envelope
	// reads as a machine of 0 nodes and is refused.
	data, err := json.Marshal(simulate.Kraken(2))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bare, envelope := filepath.Join(dir, "bare.json"), filepath.Join(dir, "envelope.json")
	if err := os.WriteFile(bare, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(envelope, []byte(`{"machine":`+string(data)+`}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := qrbench(t, "-plan", "-plan-machine", bare); code != 0 || !strings.Contains(out, "chosen:") {
		t.Errorf("model file: exit %d:\n%s", code, out)
	}
	if code, out := qrbench(t, "-plan", "-plan-machine", envelope); code == 0 || !strings.Contains(out, "machine has 0 nodes") {
		t.Errorf("envelope file: exit %d, want non-zero naming the refusal:\n%s", code, out)
	}
}

// figureRow matches a result row of any figure: a rate in GF or Gflop/s.
var figureRow = regexp.MustCompile(`(?m)^ .*\d (GF|Gflop/s)`)

var update = flag.Bool("update", false, "rewrite testdata/fig_*.txt from the current output")

// Every -fig value prints its header and at least one row. At -scale 8 the
// shortest rows of Figure 10 and of the weak-scaling sweep fall below n and
// are skipped with a note, not a panic; an unknown figure fails naming it.
// A simulated figure is deterministic, so each -scale 32 run must also print
// testdata/fig_<name>.txt byte for byte (go test -run TestFigures -update
// rewrites the files).
func TestFigures(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		args   []string
		header string
		note   string // a line the output must also hold
		slow   bool   // more than a second on a 2-core host
		golden string // the whole output, in testdata/fig_<golden>.txt
	}{
		{[]string{"-fig", "10", "-scale", "32"}, "Figure 10: asymptotic scaling", "", false, "10"},
		{[]string{"-fig", "11", "-scale", "32"}, "Figure 11: strong scaling", "", false, "11"},
		{[]string{"-fig", "baselines", "-scale", "32"}, "Section VI-A: baselines", "", false, "baselines"},
		{[]string{"-fig", "ablation", "-scale", "32"}, "Ablations at", "", false, "ablation"},
		{[]string{"-fig", "weak", "-scale", "32"}, "Weak scaling", "", false, "weak"},
		{[]string{"-fig", "real"}, "Real runs on this host", "", false, ""},
		{[]string{"-fig", "weak", "-scale", "8"}, "Weak scaling", "skipped: m=2880 < n=4608", false, ""},
		{[]string{"-fig", "10", "-scale", "8"}, "Figure 10: asymptotic scaling", "skipped: m=2880 < n=4608", true, ""},
	} {
		t.Run(strings.Join(tc.args, "_"), func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("about 3 s")
			}
			t.Parallel()
			code, out := qrbench(t, tc.args...)
			if code != 0 || !strings.HasPrefix(out, tc.header) || !figureRow.MatchString(out) {
				t.Fatalf("exit %d, want 0, the header %q and a row:\n%s", code, tc.header, out)
			}
			if !strings.Contains(out, tc.note) {
				t.Fatalf("output lacks %q:\n%s", tc.note, out)
			}
			if tc.golden == "" {
				return
			}
			path := filepath.Join("testdata", "fig_"+tc.golden+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to write it)", err)
			}
			if out != string(want) {
				t.Fatalf("output differs from %s:\n got:\n%s\nwant:\n%s", path, out, want)
			}
		})
	}
	t.Run("bogus", func(t *testing.T) {
		t.Parallel()
		if code, out := qrbench(t, "-fig", "bogus"); code == 0 || !strings.Contains(out, `"bogus"`) {
			t.Fatalf("exit %d, want non-zero naming the figure:\n%s", code, out)
		}
	})
}

// The session smoke client end to end against an in-process server: seed
// opens a session and streams the workload, verify finds it by the printed
// id and checks its R bitwise against a local Streamer replay, and a wrong
// id fails the command.
func TestSessionSeedVerify(t *testing.T) {
	t.Parallel()
	srv, err := service.NewServer(service.Config{Threads: 2, CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	common := []string{"-session", "-session-url", ts.URL, "-session-count", "11", "-session-n", "16", "-session-block", "20"}

	code, out := qrbench(t, append(common, "-session-act", "seed")...)
	if code != 0 || !strings.Contains(out, "session seeded: 11 appends, 220 rows") {
		t.Fatalf("seed: exit %d:\n%s", code, out)
	}
	var id string
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "session-id "); ok {
			id = rest
		}
	}
	if len(id) != 16 {
		t.Fatalf("seed printed no 16-hex-char session id:\n%s", out)
	}

	code, out = qrbench(t, append(common, "-session-act", "verify", "-session-id", id)...)
	if code != 0 || !strings.Contains(out, "session verify ok: 11 appends restored, R bitwise equal") {
		t.Fatalf("verify: exit %d:\n%s", code, out)
	}
	if code, out := qrbench(t, append(common, "-session-act", "verify", "-session-id", "0000000000000000")...); code == 0 {
		t.Fatalf("verify of an unknown session exited 0:\n%s", out)
	}
}

// The batch smoke client end to end against an in-process server: every
// result arrives and the trailer verifies; a server that is not there fails
// the command.
func TestBatchServe(t *testing.T) {
	t.Parallel()
	srv, err := service.NewServer(service.Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	args := []string{"-batch", "-batch-count", "300", "-batch-dim", "20", "-batch-url"}

	if code, out := qrbench(t, append(args, ts.URL)...); code != 0 || !strings.Contains(out, "batch ok: 300 matrices") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	if code, out := qrbench(t, append(args, gone.URL)...); code == 0 {
		t.Fatalf("batch against a closed server exited 0:\n%s", out)
	}
}
