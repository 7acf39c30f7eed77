// Command qrtrace reproduces the paper's Figure 7: execution traces of the
// hierarchical QR with fixed versus shifted domain boundaries, rendered as
// ASCII timelines (and optionally SVG or Chrome trace JSON), plus the
// overlap statistics that quantify the pipelining benefit of shifting.
//
// With -merge it becomes the analysis half of distributed tracing: it reads
// the per-rank trace shards a run gathered (qrfactor -trace, in one process
// or across a mesh, or GET /v1/jobs/{id}/trace on qrserve), aligns their
// clocks on the post-run barrier, and reports the merged timeline — critical
// path, per-class overlap, and a per-rank busy/idle/comm breakdown.
//
//	qrfactor -launch 2 -m 4096 -n 512 -trace shards.jsonl
//	qrtrace -merge shards.jsonl -chrome fleet.json
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/simulate"
	"pulsarqr/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qrtrace: ")
	def := qr.DefaultOptions()
	var (
		m         = flag.Int("m", 4096, "rows")
		n         = flag.Int("n", 256, "columns")
		nb        = flag.Int("nb", def.NB, "tile size")
		ib        = flag.Int("ib", def.IB, "inner block size")
		h         = flag.Int("h", def.H, "tiles per domain; 0 = one domain per worker")
		threads   = flag.Int("threads", 4, "worker threads")
		width     = flag.Int("width", 100, "ASCII timeline width")
		svgOut    = flag.String("svg", "", "write SVG traces to <prefix>-{fixed,shifted}.svg (with -merge: the SVG path itself)")
		chromeOut = flag.String("chrome", "", "write Chrome trace JSON to <prefix>-{fixed,shifted}.json (with -merge: the JSON path itself)")
		simNodes  = flag.Int("sim", 0, "simulate on this many Kraken nodes instead of running locally")
		merge     = flag.String("merge", "", "analyze gathered trace shards (comma-separated JSONL files) instead of running the Figure 7 demo")
	)
	flag.Parse()

	if *merge != "" {
		runMerge(*merge, *width, *svgOut, *chromeOut)
		return
	}

	// An unset -h is one domain per worker of the run: the simulated
	// machine's, or -threads.
	workers := *threads
	if *simNodes > 0 {
		workers = *simNodes * simulate.Kraken(*simNodes).Workers()
	}
	for _, bp := range []qr.BoundaryPolicy{qr.FixedBoundary, qr.ShiftedBoundary} {
		opts := qr.Options{NB: *nb, IB: *ib, Tree: qr.HierarchicalTree, H: *h, Boundary: bp}
		opts = opts.Resolve((*m+opts.NB-1)/opts.NB, workers)
		var tl *trace.Timeline
		var drops int64
		if *simNodes > 0 {
			mach := simulate.Kraken(*simNodes)
			_, events := simulate.RunTraced(simulate.Workload{M: *m, N: *n, Opts: opts},
				mach, simulate.SystolicProfile, mach.Workers()*min(*simNodes, 4))
			tl = trace.Build(events)
		} else {
			rec := trace.NewRecorder()
			a := matrix.FromDense(matrix.NewRand(*m, *n, rand.New(rand.NewSource(11))), *nb)
			rc := qr.RunConfig{Nodes: 1, Threads: *threads,
				FireHook: rec.Hook(), WaitHook: rec.WaitHook(), CommHook: rec.CommHook()}
			if _, err := qr.FactorizeVSA(a, nil, opts, rc); err != nil {
				log.Fatal(err)
			}
			tl = trace.Build(rec.Events())
			drops = rec.Drops()
		}
		fmt.Printf("=== %v domain boundaries ===\n", bp)
		fmt.Printf("options %v\n", opts)
		fmt.Printf("makespan %v, utilization %.2f, panel overlap %.1f%%\n",
			tl.Makespan, tl.Utilization(), 100*tl.PanelOverlap(nil))
		if drops > 0 {
			fmt.Printf("WARNING: recorder dropped %d events; timeline is incomplete\n", drops)
		}
		printCriticalPath(tl)
		fmt.Printf("legend: P panel (red), u update (orange), B binary, b binary-update (blue), ~ wait\n")
		fmt.Print(tl.ASCII(*width))
		if *svgOut != "" {
			path := fmt.Sprintf("%s-%v.svg", *svgOut, bp)
			if err := os.WriteFile(path, []byte(tl.SVG(1200, 14)), 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s\n", path)
		}
		if *chromeOut != "" {
			writeChrome(tl, fmt.Sprintf("%s-%v.json", *chromeOut, bp))
		}
		fmt.Println()
	}
}

// runMerge merges gathered per-rank shards into one aligned timeline and
// reports it: the Fig. 7 rendering plus critical-path and per-rank
// busy/idle/comm breakdowns.
func runMerge(files string, width int, svgOut, chromeOut string) {
	var shards []trace.Shard
	for _, path := range strings.Split(files, ",") {
		fh, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		sh, err := trace.ReadShards(fh)
		fh.Close()
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		shards = append(shards, sh...)
	}
	if len(shards) == 0 {
		log.Fatal("no shards found")
	}
	events, drops := trace.Merge(shards)
	tl := trace.Build(events)

	fmt.Printf("merged %d shards, %d events\n", len(shards), len(events))
	for _, sh := range shards {
		fmt.Printf("  rank %d: %d events, %d dropped\n", sh.Rank, len(sh.Events), sh.Drops)
	}
	if drops > 0 {
		fmt.Printf("WARNING: recorders dropped %d events; timeline is incomplete\n", drops)
	}
	fmt.Printf("makespan %v, worker utilization %.2f, panel overlap %.1f%%\n",
		tl.Makespan, tl.Utilization(), 100*tl.PanelOverlap(nil))
	printBusyByClass(tl)
	printCriticalPath(tl)
	printByRank(tl)
	fmt.Printf("legend: P panel, u update, B binary, b binary-update, ~ wait, > send, < recv, = barrier\n")
	fmt.Print(tl.ASCII(width))
	if svgOut != "" {
		if err := os.WriteFile(svgOut, []byte(tl.SVG(1200, 14)), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", svgOut)
	}
	if chromeOut != "" {
		writeChrome(tl, chromeOut)
	}
}

func printBusyByClass(tl *trace.Timeline) {
	classes := make([]string, 0, len(tl.BusyByClass))
	for c := range tl.BusyByClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	fmt.Printf("busy by class:")
	for _, c := range classes {
		fmt.Printf(" %s=%v", c, tl.BusyByClass[c].Round(time.Microsecond))
	}
	fmt.Println()
}

func printCriticalPath(tl *trace.Timeline) {
	cp := tl.CriticalPath()
	if len(cp.Events) == 0 {
		return
	}
	pct := 0.0
	if tl.Makespan > 0 {
		pct = 100 * float64(cp.Work) / float64(tl.Makespan)
	}
	fmt.Printf("critical path: %d tasks, %v work (%.1f%% of makespan)\n",
		len(cp.Events), cp.Work.Round(time.Microsecond), pct)
	classes := make([]string, 0, len(cp.ByClass))
	for c := range cp.ByClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	fmt.Printf("  on the path:")
	for _, c := range classes {
		fmt.Printf(" %s=%v", c, cp.ByClass[c].Round(time.Microsecond))
	}
	fmt.Println()
}

func printByRank(tl *trace.Timeline) {
	ranks := tl.ByRank()
	if len(ranks) < 2 {
		return
	}
	fmt.Printf("%6s %12s %12s %12s %8s %12s %8s %12s\n",
		"rank", "busy", "wait", "barrier", "sends", "sent", "recvs", "recvd")
	for _, r := range ranks {
		fmt.Printf("%6d %12v %12v %12v %8d %12d %8d %12d\n",
			r.Node, r.Busy.Round(time.Microsecond), r.Wait.Round(time.Microsecond),
			r.Barrier.Round(time.Microsecond), r.Sends, r.SentBytes, r.Recvs, r.RecvBytes)
	}
}

func writeChrome(tl *trace.Timeline, path string) {
	fh, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := tl.ChromeTrace(fh); err != nil {
		log.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (open in chrome://tracing or Perfetto)\n", path)
}
