// Command qrstat is a qrtop-style terminal view of a running qrserve: it
// polls GET /v1/status and renders fleet membership, admission-class
// occupancy, per-tenant footprints, and the flight recorder's recent events.
//
// One snapshot:
//
//	qrstat -url http://127.0.0.1:7311
//
// Live view, redrawn every 2 seconds:
//
//	qrstat -url http://127.0.0.1:7311 -watch
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"pulsarqr/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qrstat: ")
	var (
		url      = flag.String("url", "http://127.0.0.1:7311", "qrserve base URL")
		events   = flag.Int("events", 12, "flight-recorder events to show")
		watch    = flag.Bool("watch", false, "redraw continuously instead of printing one snapshot")
		interval = flag.Duration("interval", 2*time.Second, "refresh interval with -watch")
	)
	flag.Parse()

	client := &http.Client{Timeout: 10 * time.Second}
	for {
		st, err := fetch(client, *url, *events)
		if err != nil {
			log.Fatal(err)
		}
		if *watch {
			fmt.Print("\033[H\033[2J") // clear and home, full redraw
		}
		render(os.Stdout, st)
		if !*watch {
			return
		}
		time.Sleep(*interval)
	}
}

func fetch(client *http.Client, base string, events int) (*service.StatusView, error) {
	resp, err := client.Get(fmt.Sprintf("%s/v1/status?events=%d", strings.TrimRight(base, "/"), events))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/status: %s", resp.Status)
	}
	var st service.StatusView
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decode status: %w", err)
	}
	return &st, nil
}

func render(w io.Writer, st *service.StatusView) {
	up := time.Duration(st.UptimeS * float64(time.Second)).Round(time.Second)
	fmt.Fprintf(w, "qrserve %s (%s)  kernel=%s cpu=%s threads=%d  up %s\n",
		st.Build.Version, st.Build.GoVersion, st.Build.Kernel, st.Build.CPUFeatures,
		st.Build.Threads, up)
	fleet := fmt.Sprintf("fleet: %d/%d ranks live", st.Fleet.Live, st.Fleet.Ranks)
	if st.Fleet.Degraded {
		fleet += fmt.Sprintf("  DEGRADED (evicted %v)", st.Fleet.Evicted)
	}
	fmt.Fprintln(w, fleet)

	fmt.Fprintln(w, "\nclass            depth  capacity  active  slots")
	classes := make([]string, 0, len(st.Classes))
	for c := range st.Classes {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		cs := st.Classes[c]
		fmt.Fprintf(w, "%-15s %6d %9d %7d %6d\n", c, cs.Depth, cs.Capacity, cs.Active, cs.Slots)
	}

	if len(st.Tenants) > 0 {
		fmt.Fprintln(w, "\ntenant                jobs  running  sessions")
		for _, t := range st.Tenants {
			name := t.Tenant
			if name == "" {
				name = "(anonymous)"
			}
			fmt.Fprintf(w, "%-20s %5d %8d %9d\n", name, t.Jobs, t.Running, t.Sessions)
		}
	}

	if st.Planner.Plans > 0 || st.Planner.Enabled {
		mode := "per-job opt-in"
		if st.Planner.Enabled {
			mode = "fleet-wide"
		}
		fmt.Fprintf(w, "\nplanner (%s): %d planned, %d cache hits, epoch %d\n",
			mode, st.Planner.Plans, st.Planner.CacheHits, st.Planner.Epoch)
		if st.Planner.LastConfig != "" {
			line := fmt.Sprintf("  last: job %d  %s  predicted %.1fms",
				st.Planner.LastJob, st.Planner.LastConfig, st.Planner.LastPredictedMS)
			if st.Planner.LastActualMS > 0 {
				line += fmt.Sprintf("  actual %.1fms (%.2fx)",
					st.Planner.LastActualMS, st.Planner.LastActualMS/st.Planner.LastPredictedMS)
			}
			fmt.Fprintln(w, line)
		}
	}

	fmt.Fprintf(w, "\nevents: %d emitted, %d dropped from the flight ring\n", st.Events, st.EventDrops)
	for _, e := range st.Flight {
		line := fmt.Sprintf("  %s  %-14s", e.At.Format("15:04:05.000"), e.Kind)
		if e.Job != 0 {
			line += fmt.Sprintf(" job=%d", e.Job)
		}
		if e.Session != "" {
			line += " session=" + e.Session
		}
		if e.Tenant != "" {
			line += " tenant=" + e.Tenant
		}
		if e.Attempt != 0 {
			line += fmt.Sprintf(" attempt=%d", e.Attempt)
		}
		if e.Rank != 0 {
			line += fmt.Sprintf(" rank=%d", e.Rank)
		}
		if e.DurMS != 0 {
			line += fmt.Sprintf(" %.1fms", e.DurMS)
		}
		if e.Detail != "" {
			line += " " + e.Detail
		}
		fmt.Fprintln(w, line)
	}
}
