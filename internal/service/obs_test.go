package service

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pulsarqr/internal/obs"
)

// testObserver builds an Observer with no slog sink: events land only in
// the flight ring, which is what these tests inspect.
func testObserver() *obs.Observer {
	return obs.New(obs.Options{})
}

// A completed job's lifecycle spans must telescope: queue wait + dispatch +
// run + gather equals the submitted→terminal total, and the total cannot
// exceed the wall time the client measured around the blocking submit.
func TestJobSpansTelescopeE2E(t *testing.T) {
	s, err := NewServer(Config{Threads: 2, QueueCap: 4, MaxConcurrent: 2, Obs: testObserver()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}

	start := time.Now()
	v, code, err := c.Submit(JobSpec{M: 128, N: 64, NB: 32, IB: 8, Seed: 31}, true)
	wall := time.Since(start)
	if err != nil || code != http.StatusOK {
		t.Fatalf("submit: code %d err %v", code, err)
	}
	got, err := c.Job(v.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	sp := got.Spans
	if sp == nil {
		t.Fatal("completed job carries no spans")
	}
	if sp.Phase != "terminal" {
		t.Errorf("span phase = %q, want terminal", sp.Phase)
	}
	sum := sp.QueueWaitMS + sp.DispatchMS + sp.RunMS + sp.GatherMS
	if d := math.Abs(sum - sp.TotalMS); d > 0.01 {
		t.Errorf("span sum %.4fms != total %.4fms (off by %.4fms)", sum, sp.TotalMS, d)
	}
	if sp.TotalMS <= 0 {
		t.Errorf("total span %.4fms, want > 0", sp.TotalMS)
	}
	wallMS := float64(wall) / float64(time.Millisecond)
	if sp.TotalMS > wallMS+1 {
		t.Errorf("span total %.2fms exceeds client wall time %.2fms", sp.TotalMS, wallMS)
	}
	if sp.RunMS <= 0 {
		t.Errorf("run span %.4fms, want > 0 for a completed factorization", sp.RunMS)
	}
	// A healthy terminal carries no flight tail.
	if len(got.Flight) != 0 {
		t.Errorf("done job carries %d flight events, want none", len(got.Flight))
	}
}

// A job that ends in failure must carry a non-empty flight-recorder tail of
// its own events on GET /v1/jobs/{id}.
func TestFailedJobCarriesFlightTail(t *testing.T) {
	s, err := NewServer(Config{
		Threads: 1, QueueCap: 4, MaxConcurrent: 1, DeadlockTimeout: -1, Obs: testObserver(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Wedge the single slot so the victim stays queued and cannot race its
	// injected failure with a real run.
	if _, err := s.Submit(JobSpec{M: 256, N: 256, NB: 8, IB: 4, Tree: "flat", Seed: 3}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return s.metrics.Running.Load() == 1 })

	victim, err := s.Submit(JobSpec{M: 64, N: 32, NB: 32, IB: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !victim.finish(StateFailed, "injected fault", nil) {
		t.Fatal("victim already terminal before the injected failure")
	}

	var view JobView
	if err := json.Unmarshal([]byte(httpGet(t, ts.URL+"/v1/jobs/"+itoa(victim.ID))), &view); err != nil {
		t.Fatal(err)
	}
	if view.Status != string(StateFailed) {
		t.Fatalf("status = %s, want failed", view.Status)
	}
	if len(view.Flight) == 0 {
		t.Fatal("failed job carries no flight-recorder tail")
	}
	for _, e := range view.Flight {
		if e.Job != victim.ID {
			t.Errorf("flight tail leaked event for job %d into job %d", e.Job, victim.ID)
		}
	}
	// The tail must include the terminal event with its detail.
	found := false
	for _, e := range view.Flight {
		if e.Kind == obs.EvFailed && strings.Contains(e.Detail, "injected fault") {
			found = true
		}
	}
	if !found {
		t.Errorf("flight tail missing the job_failed event: %+v", view.Flight)
	}
}

func itoa(id uint32) string {
	var b [10]byte
	i := len(b)
	for {
		i--
		b[i] = byte('0' + id%10)
		id /= 10
		if id == 0 {
			return string(b[i:])
		}
	}
}

// /v1/status stays consistent under concurrent readers while jobs churn —
// run with -race this is the data-race guard for the snapshot path.
func TestStatusEndpointConcurrent(t *testing.T) {
	s, err := NewServer(Config{Threads: 2, QueueCap: 8, MaxConcurrent: 2, Obs: testObserver()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				c.Submit(JobSpec{M: 64, N: 32, NB: 32, IB: 8, Seed: seed*10 + int64(i), Tenant: "hammer"}, true)
			}
		}(int64(g))
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				body := httpGet(t, ts.URL+"/v1/status?events=8")
				var st StatusView
				if err := json.Unmarshal([]byte(body), &st); err != nil {
					t.Errorf("status decode: %v", err)
					return
				}
				if st.Build.Kernel == "" || st.Build.GoVersion == "" {
					t.Errorf("status build info incomplete: %+v", st.Build)
					return
				}
				if _, ok := st.Classes["jobs"]; !ok {
					t.Error("status missing jobs class")
					return
				}
			}
		}()
	}
	wg.Wait()

	var st StatusView
	if err := json.Unmarshal([]byte(httpGet(t, ts.URL+"/v1/status")), &st); err != nil {
		t.Fatal(err)
	}
	if st.Events == 0 {
		t.Error("no structured events after 16 jobs")
	}
	found := false
	for _, tn := range st.Tenants {
		if tn.Tenant == "hammer" {
			found = true
		}
	}
	if !found && len(st.Tenants) > 0 {
		t.Errorf("tenant tally missing 'hammer': %+v", st.Tenants)
	}

	// Build identity and event counters surface on /metrics too.
	metrics := httpGet(t, ts.URL+"/metrics")
	for _, want := range []string{
		"qrserve_build_info{", "qrserve_obs_events_total",
		"qrserve_queue_wait_seconds_bucket", "qrserve_run_seconds_sum",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// A shed 429 emits a structured shed event carrying the admission class and
// the Retry-After hint that went out on the wire.
func TestShedEmitsStructuredEvent(t *testing.T) {
	s, err := NewServer(Config{
		Threads: 1, QueueCap: 1, MaxConcurrent: 1, DeadlockTimeout: -1, Obs: testObserver(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	slow := JobSpec{M: 256, N: 256, NB: 8, IB: 4, Tree: "flat", Seed: 7}
	if _, err := s.Submit(slow); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return s.metrics.Running.Load() == 1 })
	if _, err := s.Submit(slow); err != nil {
		t.Fatal(err)
	}

	resp, err := ts.Client().Post(ts.URL+"/v1/factorize", "application/json",
		strings.NewReader(`{"m":64,"n":32,"nb":32,"ib":8,"tree":"flat","seed":9,"tenant":"shedme"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit on full queue: status %d, want 429", resp.StatusCode)
	}

	var shed *obs.Event
	for _, e := range s.obs.Tail(64) {
		if e.Kind == obs.EvShed {
			ev := e
			shed = &ev
		}
	}
	if shed == nil {
		t.Fatal("no shed event in the flight ring after a 429")
	}
	if shed.Class != "job" || shed.Tenant != "shedme" || shed.RetryS <= 0 {
		t.Errorf("shed event = %+v, want class=job tenant=shedme retry>0", shed)
	}
}
