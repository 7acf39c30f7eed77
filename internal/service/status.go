package service

import (
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"time"

	"fmt"
	"io"

	"pulsarqr/internal/blas"
	"pulsarqr/internal/obs"
)

// Version identifies the build on /healthz, /v1/status and the
// qrserve_build_info metric; release builds override it via
// -ldflags "-X pulsarqr/internal/service.Version=...".
var Version = "dev"

// BuildInfo names the build and the compute path it runs on — enough for an
// operator to tell from one status call whether this process is using the
// kernel they think it is.
type BuildInfo struct {
	Version     string `json:"version"`
	GoVersion   string `json:"go_version"`
	Kernel      string `json:"kernel"`       // active BLAS micro-kernel
	CPUFeatures string `json:"cpu_features"` // instruction-set level selected
	Threads     int    `json:"threads"`      // pool workers
}

func buildInfo(threads int) BuildInfo {
	return BuildInfo{
		Version:     Version,
		GoVersion:   runtime.Version(),
		Kernel:      blas.MicroKernelName(),
		CPUFeatures: blas.CPUFeatures(),
		Threads:     threads,
	}
}

// ClassStatus is one admission class's live occupancy on /v1/status.
type ClassStatus struct {
	Depth    int   `json:"depth"`    // admitted work waiting (streams queue nothing)
	Capacity int   `json:"capacity"` // admission bound
	Active   int64 `json:"active"`   // work executing now
	Slots    int   `json:"slots"`    // drain parallelism
}

// TenantStatus is one tenant's live footprint.
type TenantStatus struct {
	Tenant   string `json:"tenant"`
	Jobs     int    `json:"jobs"` // resident jobs (queued, running or retained)
	Running  int    `json:"running"`
	Sessions int    `json:"sessions"`
}

// FleetStatus is the fleet membership view.
type FleetStatus struct {
	Ranks    int   `json:"ranks"`
	Live     int   `json:"live"`
	Evicted  []int `json:"evicted,omitempty"`
	Degraded bool  `json:"degraded"`
}

// StatusView is the GET /v1/status snapshot: one JSON object a dashboard (or
// cmd/qrstat) polls instead of scraping and joining a dozen metric series.
type StatusView struct {
	Now        time.Time              `json:"now"`
	UptimeS    float64                `json:"uptime_s"`
	Build      BuildInfo              `json:"build"`
	Fleet      FleetStatus            `json:"fleet"`
	Classes    map[string]ClassStatus `json:"classes"`
	Tenants    []TenantStatus         `json:"tenants,omitempty"`
	Events     int64                  `json:"events"`      // structured events emitted since boot
	EventDrops int64                  `json:"event_drops"` // flight-ring overwrites (honest loss count)
	Flight     []obs.Event            `json:"flight,omitempty"`
}

// handleStatus serves GET /v1/status. ?events=N sizes the flight tail
// (default 16, 0 disables, capped at 256).
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	tailN := 16
	if q := r.URL.Query().Get("events"); q != "" {
		if n, err := strconv.Atoi(q); err == nil && n >= 0 {
			tailN = min(n, 256)
		}
	}

	s.mu.Lock()
	evicted := make([]int, 0, len(s.deadRanks))
	for rank := range s.deadRanks {
		evicted = append(evicted, rank)
	}
	resident := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		resident = append(resident, j)
	}
	s.mu.Unlock()
	sort.Ints(evicted)

	type tally struct{ jobs, running int }
	byTenant := map[string]*tally{}
	for _, j := range resident {
		t := byTenant[j.Spec.Tenant]
		if t == nil {
			t = &tally{}
			byTenant[j.Spec.Tenant] = t
		}
		t.jobs++
		if st, _ := j.State(); st == StateRunning {
			t.running++
		}
	}
	sessTenants := s.sessions.Stats().PerTenant
	names := make(map[string]bool, len(byTenant)+len(sessTenants))
	for tn := range byTenant {
		names[tn] = true
	}
	for tn := range sessTenants {
		names[tn] = true
	}
	tenants := make([]TenantStatus, 0, len(names))
	for tn := range names {
		ts := TenantStatus{Tenant: tn, Sessions: sessTenants[tn]}
		if t := byTenant[tn]; t != nil {
			ts.Jobs, ts.Running = t.jobs, t.running
		}
		tenants = append(tenants, ts)
	}
	sort.Slice(tenants, func(a, b int) bool { return tenants[a].Tenant < tenants[b].Tenant })

	events, drops := s.obs.Stats()
	writeJSON(w, http.StatusOK, StatusView{
		Now:     time.Now(),
		UptimeS: time.Since(s.started).Seconds(),
		Build:   buildInfo(s.cfg.Threads),
		Fleet: FleetStatus{
			Ranks:    s.Ranks(),
			Live:     s.AgentsLive(),
			Evicted:  evicted,
			Degraded: s.Degraded(),
		},
		Classes: map[string]ClassStatus{
			"jobs": {
				Depth:    s.mgr.Depth(),
				Capacity: s.cfg.QueueCap,
				Active:   s.metrics.Running.Load(),
				Slots:    s.cfg.MaxConcurrent,
			},
			"batch": {
				Capacity: s.cfg.BatchStreams,
				Active:   s.metrics.BatchActive.Load(),
				Slots:    s.cfg.BatchStreams,
			},
			"session_appends": {
				Capacity: s.cfg.SessionStreams,
				Active:   s.metrics.AppendActive.Load(),
				Slots:    s.cfg.SessionStreams,
			},
		},
		Tenants:    tenants,
		Events:     events,
		EventDrops: drops,
		Flight:     s.obs.Tail(tailN),
	})
}

// writeObsProm renders the observability layer's own metrics after the
// transport block on /metrics: build identity and event-log volume and loss.
func (s *Server) writeObsProm(w io.Writer) {
	p := promWriter{w}
	bi := buildInfo(s.cfg.Threads)
	p.family("qrserve_build_info", "Build and compute-path identity (value is always 1).", "gauge")
	p.sample("qrserve_build_info", fmt.Sprintf("version=%q,kernel=%q,goversion=%q", bi.Version, bi.Kernel, bi.GoVersion), 1)
	if !s.obs.Enabled() {
		return
	}
	events, drops := s.obs.Stats()
	p.counter("qrserve_obs_events_total", "Structured events emitted.", events)
	p.counter("qrserve_obs_event_drops_total", "Flight-recorder ring overwrites (oldest events lost).", drops)
}
