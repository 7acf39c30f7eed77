package service

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"pulsarqr/internal/matrix"
)

// TestMetricsExpositionAndDocs scrapes a durable, observed 2-rank TCP fleet
// — the configuration in which every family is served — after a job, a
// batch and a session append, and holds /metrics to two things: the text
// exposition format's own rules, and the documentation, name for name in
// both directions.
func TestMetricsExpositionAndDocs(t *testing.T) {
	eps := resilientTCPMesh(t, 2)
	ag, err := NewAgent(eps[1], 2, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	agentDone := make(chan error, 1)
	go func() { agentDone <- ag.Run(context.Background()) }()
	s, err := NewServer(Config{Threads: 2, QueueCap: 4, MaxConcurrent: 1, Ep: eps[0], Logf: t.Logf,
		Obs: testObserver(), CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}
	if v, _, err := c.Submit(JobSpec{M: 256, N: 128, NB: 32, IB: 8, Seed: 41}, true); err != nil || v.Status != string(StateDone) {
		t.Fatalf("fleet job: status %s err %v", v.Status, err)
	}
	rng := rand.New(rand.NewSource(1))
	if _, err := c.Batch([]*matrix.Mat{matrix.NewRand(8, 8, rng), matrix.NewRand(16, 4, rng)}, nil); err != nil {
		t.Fatal(err)
	}
	info, err := c.OpenSession(SessionSpec{Tenant: "acme", N: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SessionAppend(info.ID, 8, []*matrix.Mat{matrix.NewRand(16, 8, rng)}, nil, nil); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := <-agentDone; err != nil {
		t.Errorf("agent: %v", err)
	}

	// (i) One HELP then one TYPE per family, before its samples; no family
	// twice; every sample under its own family; histogram buckets cumulative
	// and the +Inf bucket equal to _count.
	types := map[string]string{} // family → type
	var cur string
	lastBucket := map[string]float64{} // histogram series → latest cumulative bucket
	le := regexp.MustCompile(`,?le="([^"]*)"`)
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if _, dup := types[f[2]]; dup {
				t.Errorf("family %s announced twice", f[2])
			}
			cur, types[f[2]] = f[2], ""
		case strings.HasPrefix(line, "# TYPE "):
			if f[2] != cur || types[cur] != "" {
				t.Errorf("TYPE of %s does not follow its own HELP (in family %q)", f[2], cur)
			}
			types[cur] = f[3]
		default:
			name, labels, _ := strings.Cut(strings.TrimSuffix(f[0], "}"), "{")
			v, err := strconv.ParseFloat(f[len(f)-1], 64)
			if err != nil || len(f) != 2 {
				t.Errorf("unparseable sample %q", line)
			}
			suffix := ""
			if types[cur] == "histogram" {
				suffix = name[strings.LastIndex(name, "_"):]
			}
			if strings.TrimSuffix(name, suffix) != cur || types[cur] == "" {
				t.Errorf("sample %q outside its family (in %q, type %q)", line, cur, types[cur])
			}
			series := cur + "{" + le.ReplaceAllString(labels, "") + "}"
			switch suffix {
			case "_bucket":
				if v < lastBucket[series] {
					t.Errorf("%s: bucket %q holds %g after %g: not cumulative", series, labels, v, lastBucket[series])
				}
				lastBucket[series] = v
			case "_count":
				if v != lastBucket[series] {
					t.Errorf("%s: _count %g, +Inf bucket %g", series, v, lastBucket[series])
				}
			}
		}
	}
	if len(types) < 60 {
		t.Fatalf("only %d families served; the fleet scrape is not what this test thinks it is", len(types))
	}

	// (ii) Served and documented are the same set of names. A documented
	// name followed by * stands for a prefix; anything else must be a family
	// (or a histogram's series) spelt out in full.
	documented := map[string]bool{}
	for _, doc := range []string{"OBSERVABILITY.md", "SERVICE.md", "SESSIONS.md", "BATCH.md", "PLANNER.md"} {
		b, err := os.ReadFile(filepath.Join("..", "..", "docs", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range regexp.MustCompile(`qrserve_[a-z0-9_]+\*?`).FindAllString(string(b), -1) {
			name := strings.TrimSuffix(m, "*")
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(name, suffix); types[base] == "histogram" {
					name = base
				}
			}
			served := false
			for fam := range types {
				served = served || fam == name || name != m && strings.HasPrefix(fam, name)
			}
			if !served {
				t.Errorf("docs/%s names %s, which /metrics does not serve", doc, m)
			}
			documented[name] = true
		}
	}
	for fam := range types {
		if !documented[fam] {
			t.Errorf("/metrics serves %s, which none of docs/{OBSERVABILITY,SERVICE,SESSIONS,BATCH,PLANNER}.md spells out", fam)
		}
	}
}
