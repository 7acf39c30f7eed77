package service

// Fleet degradation end-to-end: kill one agent rank mid-job over a real TCP
// mesh and prove the job is requeued onto the survivors, completes with a
// correct result, and that the eviction shows up in /metrics and /healthz.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pulsarqr/internal/transport"
)

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return string(body)
}

// resilientTCPMesh dials an n-rank in-process TCP mesh with reconnect mode
// on, so a crashed rank is declared dead only after the redial budget.
func resilientTCPMesh(t *testing.T, n int) []transport.Endpoint {
	t.Helper()
	eps, err := transport.DialLoopback(n, func(cfg *transport.TCPConfig) {
		cfg.Reconnect = 200 * time.Millisecond
		cfg.ReconnectBackoff = 2 * time.Millisecond
	})
	if err != nil {
		t.Fatal(err)
	}
	// An endpoint left open pins its unacked-frame window, and through its
	// goroutines everything the test's server and agent retained; under
	// -count=N that is hundreds of megabytes of live heap by the tenth run,
	// and the later runs time GC assists instead of jobs.
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	return eps
}

// TestServerFleetSurvivesAgentDeath kills one of two agents while a job is
// running. The job's session dies with the rank; the server must evict the
// rank, requeue the job within its retry budget, and finish it on the
// surviving agent — with the whole story visible in metrics and health.
func TestServerFleetSurvivesAgentDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet chaos test skipped in -short mode")
	}
	eps := resilientTCPMesh(t, 3)

	agents := make([]*Agent, 2)
	agentDone := make([]chan error, 2)
	for i := 0; i < 2; i++ {
		ag, err := NewAgent(eps[1+i], 2, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = ag
		agentDone[i] = make(chan error, 1)
		go func(i int) { agentDone[i] <- agents[i].Run(context.Background()) }(i)
	}

	s, err := NewServer(Config{Threads: 2, QueueCap: 8, MaxConcurrent: 2, Ep: eps[0], Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}

	spec := JobSpec{M: 1024, N: 512, NB: 32, IB: 8, Seed: 61, MaxRetries: 2, RetryBackoffMS: 5}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Crash agent rank 2 the moment the job starts running, so its session
	// spans the dead rank and must be retried on the survivors.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if state, _ := j.State(); state == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(time.Millisecond)
	}
	eps[2].(transport.Crasher).Crash()

	select {
	case <-j.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("job did not finish after the agent death")
	}
	state, msg := j.State()
	if state != StateDone {
		t.Fatalf("job state = %s (%s), want done on the surviving ranks", state, msg)
	}
	if !j.Result().OK {
		t.Fatalf("retried job residual %g", j.Result().Residual)
	}
	checkResultR(t, "survivor", j.Result().R, oracleR(t, s, spec))
	if j.Attempts() < 1 {
		t.Fatal("job completed with zero retries; the test never exercised requeue")
	}

	// The eviction and the requeue are both visible in the counters.
	if got := s.Metrics().Evicted.Load(); got < 1 {
		t.Errorf("evictions = %d, want >= 1", got)
	}
	if got := s.Metrics().Requeued.Load(); got < 1 {
		t.Errorf("requeued = %d, want >= 1", got)
	}
	if !s.Degraded() {
		t.Error("fleet not marked degraded after losing a rank")
	}
	if got := s.AgentsLive(); got != 2 {
		t.Errorf("AgentsLive = %d, want 2 (server + surviving agent)", got)
	}

	// The same story through the HTTP surface.
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body := httpGet(t, srv.URL+"/metrics")
	for _, want := range []string{"qrserve_agent_evictions_total", "qrserve_jobs_requeued_total", "qrserve_fleet_degraded 1"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	var health struct {
		OK        bool `json:"ok"`
		Ranks     int  `json:"ranks"`
		RanksLive int  `json:"ranks_live"`
		Degraded  bool `json:"degraded"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, srv.URL+"/healthz")), &health); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if !health.Degraded || health.RanksLive != 2 || health.Ranks != 3 {
		t.Errorf("healthz = %+v, want degraded with 2 of 3 ranks live", health)
	}

	s.Close()
	// The surviving agent drains on the shutdown broadcast; the crashed
	// one's Run can only end in an error, which is not this test's concern.
	select {
	case err := <-agentDone[0]:
		if err != nil {
			t.Errorf("surviving agent exited with %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("surviving agent did not exit after shutdown broadcast")
	}
	agents[0].Close()
	for _, ep := range eps {
		ep.Close()
	}
}
