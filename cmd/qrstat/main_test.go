package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pulsarqr/internal/service"
)

// statusFixture is a degraded two-agent fleet.
func statusFixture() service.StatusView {
	return service.StatusView{
		UptimeS: 3725,
		Build: service.BuildInfo{
			Version: "v1.2", GoVersion: "go1.x", Kernel: "avx512-12x8",
			CPUFeatures: "avx2+fma", Threads: 4,
		},
		Fleet: service.FleetStatus{Ranks: 3, Live: 2, Evicted: []int{2}, Degraded: true},
		Classes: map[string]service.ClassStatus{
			"session_appends": {Capacity: 2, Slots: 2},
			"jobs":            {Depth: 3, Capacity: 32, Active: 4, Slots: 4},
			"batch":           {Capacity: 2, Active: 1, Slots: 2},
		},
		Events: 40, EventDrops: 1,
	}
}

// serve answers GET /v1/status with the fixture, or with code when it is
// not 200, and records the query each request carried.
func serve(t *testing.T, code int, queries *[]string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/status" {
			http.NotFound(w, r)
			return
		}
		*queries = append(*queries, r.URL.RawQuery)
		if code != http.StatusOK {
			http.Error(w, "unavailable", code)
			return
		}
		json.NewEncoder(w).Encode(statusFixture())
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestFetchAndRender(t *testing.T) {
	var queries []string
	srv := serve(t, http.StatusOK, &queries)
	st, err := fetch(&http.Client{Timeout: 5 * time.Second}, srv.URL+"/", 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) != 1 || queries[0] != "events=7" {
		t.Fatalf("requests carried %q, want one with events=7", queries)
	}
	var buf bytes.Buffer
	render(&buf, st)
	out := buf.String()
	lines := strings.Split(out, "\n")

	if want := "qrserve v1.2 (go1.x)  kernel=avx512-12x8 cpu=avx2+fma threads=4  up 1h2m5s"; lines[0] != want {
		t.Errorf("header\n got %q\nwant %q", lines[0], want)
	}
	if want := "fleet: 2/3 ranks live  DEGRADED (evicted [2])"; lines[1] != want {
		t.Errorf("fleet line\n got %q\nwant %q", lines[1], want)
	}
	// The class table follows a blank line and its header, sorted by name.
	if len(lines) < 7 || !strings.HasPrefix(lines[3], "class ") {
		t.Fatalf("no class table header on line 4:\n%s", out)
	}
	for i, want := range []string{
		"batch                0         2       1      2",
		"jobs                 3        32       4      4",
		"session_appends      0         2       0      2",
	} {
		if lines[4+i] != want {
			t.Errorf("class row %d\n got %q\nwant %q", i, lines[4+i], want)
		}
	}
	for _, want := range []string{
		"events: 40 emitted, 1 dropped from the flight ring\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestFetchRejectsNon200(t *testing.T) {
	var queries []string
	srv := serve(t, http.StatusServiceUnavailable, &queries)
	st, err := fetch(&http.Client{Timeout: 5 * time.Second}, srv.URL, 12)
	if err == nil || st != nil {
		t.Fatalf("fetch on a 503 = (%v, %v), want an error", st, err)
	}
	if !strings.Contains(err.Error(), "503") {
		t.Errorf("error %q does not name the status", err)
	}
}
