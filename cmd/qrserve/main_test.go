package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// -launch re-executes os.Executable(), which under `go test` is this test
// binary: with the switch set — and inherited by every child — TestMain
// re-enters run, so a launched fleet is real processes running the real
// command with no binary built on the side.
const helperEnv = "QRSERVE_TEST_IS_QRSERVE"

func TestMain(m *testing.M) {
	if os.Getenv(helperEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Setenv(helperEnv, "1")
	os.Exit(m.Run())
}

// qrserve runs the command in-process — for the paths that return before
// anything is served — and returns its exit code and combined output.
func qrserve(args ...string) (int, string) {
	var out bytes.Buffer
	code := run(args, &out, &out)
	return code, out.String()
}

func TestBadFlagsFailCleanly(t *testing.T) {
	for _, tc := range []struct{ args, names string }{
		{"-rank 3 -peers 127.0.0.1:1,127.0.0.1:2", "rank 3 outside peer list of 2"},
		{"-rank 1", "without a peer list"},
		{"-log-format xml", `bad -log-format "xml"`},
		{"-rank 1 -peers 127.0.0.1:1,127.0.0.1:2 -log-level loud", `bad -log-level "loud"`},
		{"-launch 1 stray", `unexpected argument "stray"`},
		{"-listen 127.0.0.1:99999", "invalid port"},
	} {
		code, out := qrserve(strings.Fields(tc.args)...)
		if code == 0 || !strings.Contains(out, tc.names) {
			t.Errorf("qrserve %s: exit %d, want non-zero naming %q:\n%s", tc.args, code, tc.names, out)
		}
		if strings.Contains(out, "is pid") || strings.Contains(out, "serving on") {
			t.Errorf("qrserve %s: started work before refusing:\n%s", tc.args, out)
		}
	}
}

func TestRankAndPeersFallBackToEnvironment(t *testing.T) {
	t.Setenv("QRSERVE_RANK", "4")
	t.Setenv("QRSERVE_PEERS", "127.0.0.1:1,127.0.0.1:2")
	if code, out := qrserve(); code == 0 || !strings.Contains(out, "rank 4 outside peer list of 2") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
}
