package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/trace"
)

// The Figure 7 demo at a small shape runs both boundary policies and prints,
// for each, its options, the overlap statistics and the ASCII timeline of
// both worker threads.
func TestDemoPrintsBothTimelines(t *testing.T) {
	svg := filepath.Join(t.TempDir(), "fig7")
	var out, errb bytes.Buffer
	code := run([]string{"-m", "384", "-n", "64", "-nb", "32", "-ib", "8", "-threads", "2", "-width", "60", "-svg", svg}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{
		"=== fixed domain boundaries ===\noptions tree=hierarchical nb=32 ib=8 h=6 boundary=fixed inter=binary-inter\n",
		"=== shifted domain boundaries ===\noptions tree=hierarchical nb=32 ib=8 h=6 boundary=shifted inter=binary-inter\n",
		"panel overlap",
		"critical path: ",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	if n := strings.Count(got, "n00t00 |"); n != 2 {
		t.Errorf("%d timelines of thread 0, want one per boundary policy:\n%s", n, got)
	}
	if n := strings.Count(got, "n00t01 |"); n != 2 {
		t.Errorf("%d timelines of thread 1, want one per boundary policy:\n%s", n, got)
	}
	for _, bp := range []string{"fixed", "shifted"} {
		if _, err := os.Stat(svg + "-" + bp + ".svg"); err != nil {
			t.Error(err)
		}
	}
}

// -merge reads shards from several files, merges them into one timeline and
// reports its critical path and the per-rank breakdown. The shards are one
// traced two-node FactorizeVSA split by node, one file per rank, the way a
// two-process run gathers them.
func TestMergeReportsCriticalPathAndRanks(t *testing.T) {
	rec := trace.NewRecorder()
	a := matrix.FromDense(matrix.NewRand(256, 64, rand.New(rand.NewSource(3))), 32)
	opts := qr.Options{NB: 32, IB: 8, Tree: qr.HierarchicalTree, H: 2}
	rc := qr.RunConfig{Nodes: 2, Threads: 1, FireHook: rec.Hook(), WaitHook: rec.WaitHook(), CommHook: rec.CommHook()}
	if _, err := qr.FactorizeVSA(a, nil, opts, rc); err != nil {
		t.Fatal(err)
	}
	whole := rec.Shard(0)
	dir := t.TempDir()
	var files []string
	for rank := 0; rank < 2; rank++ {
		sh := trace.Shard{Rank: rank, Epoch: whole.Epoch}
		for _, e := range whole.Events {
			if e.Node == rank {
				sh.Events = append(sh.Events, e)
			}
		}
		if len(sh.Events) == 0 {
			t.Fatalf("node %d recorded no events", rank)
		}
		var buf bytes.Buffer
		if err := trace.WriteShards(&buf, sh); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("rank%d.jsonl", rank))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		files = append(files, path)
	}

	chrome := filepath.Join(dir, "merged.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-merge", strings.Join(files, ","), "-chrome", chrome}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	got := out.String()
	for _, want := range []string{"merged 2 shards", "  rank 0: ", "  rank 1: ", "busy by class:", "critical path: ", "  on the path:"} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	lines := strings.Split(got, "\n")
	header := -1
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "rank ") && strings.Contains(l, "recvd") {
			header = i
			break
		}
	}
	if header < 0 || header+2 >= len(lines) {
		t.Fatalf("no per-rank table:\n%s", got)
	}
	for rank, l := range lines[header+1 : header+3] {
		if f := strings.Fields(l); len(f) != 8 || f[0] != strconv.Itoa(rank) {
			t.Errorf("per-rank row %d is %q", rank, l)
		}
	}
	if fi, err := os.Stat(chrome); err != nil || fi.Size() == 0 {
		t.Errorf("chrome trace not written: %v", err)
	}
}

// A flag the command does not know is a usage error (exit 2); a -merge file
// that does not exist is a run error (exit 1) named on stderr.
func TestExitCodes(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	missing := filepath.Join(t.TempDir(), "missing.jsonl")
	errb.Reset()
	if code := run([]string{"-merge", missing}, &out, &errb); code != 1 {
		t.Errorf("missing -merge file: exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "qrtrace: ") || !strings.Contains(errb.String(), "missing.jsonl") {
		t.Errorf("stderr does not name the missing file: %q", errb.String())
	}
}
