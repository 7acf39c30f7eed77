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
	"errors"
	"flag"
	"fmt"
	"io"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command, returning its exit code, so that tests can drive
// it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	logger := log.New(stderr, "qrtrace: ", 0)
	fs := flag.NewFlagSet("qrtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := qr.DefaultOptions()
	var (
		m         = fs.Int("m", 4096, "rows")
		n         = fs.Int("n", 256, "columns")
		nb        = fs.Int("nb", def.NB, "tile size")
		ib        = fs.Int("ib", def.IB, "inner block size")
		h         = fs.Int("h", def.H, "tiles per domain; 0 = one domain per worker")
		threads   = fs.Int("threads", 4, "worker threads")
		width     = fs.Int("width", 100, "ASCII timeline width")
		svgOut    = fs.String("svg", "", "write SVG traces to <prefix>-{fixed,shifted}.svg (with -merge: the SVG path itself)")
		chromeOut = fs.String("chrome", "", "write Chrome trace JSON to <prefix>-{fixed,shifted}.json (with -merge: the JSON path itself)")
		simNodes  = fs.Int("sim", 0, "simulate on this many Kraken nodes instead of running locally")
		merge     = fs.String("merge", "", "analyze gathered trace shards (comma-separated JSONL files) instead of running the Figure 7 demo")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	fail := func(err error) int {
		logger.Print(err)
		return 1
	}
	if *merge != "" {
		if err := runMerge(stdout, *merge, *width, *svgOut, *chromeOut); err != nil {
			return fail(err)
		}
		return 0
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
				return fail(err)
			}
			tl = trace.Build(rec.Events())
			drops = rec.Drops()
		}
		fmt.Fprintf(stdout, "=== %v domain boundaries ===\n", bp)
		fmt.Fprintf(stdout, "options %v\n", opts)
		fmt.Fprintf(stdout, "makespan %v, utilization %.2f, panel overlap %.1f%%\n",
			tl.Makespan, tl.Utilization(), 100*tl.PanelOverlap(nil))
		if drops > 0 {
			fmt.Fprintf(stdout, "WARNING: recorder dropped %d events; timeline is incomplete\n", drops)
		}
		printCriticalPath(stdout, tl)
		fmt.Fprintf(stdout, "legend: P panel (red), u update (orange), B binary, b binary-update (blue), ~ wait\n")
		fmt.Fprint(stdout, tl.ASCII(*width))
		if *svgOut != "" {
			path := fmt.Sprintf("%s-%v.svg", *svgOut, bp)
			if err := os.WriteFile(path, []byte(tl.SVG(1200, 14)), 0o644); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "wrote %s\n", path)
		}
		if *chromeOut != "" {
			if err := writeChrome(stdout, tl, fmt.Sprintf("%s-%v.json", *chromeOut, bp)); err != nil {
				return fail(err)
			}
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

// runMerge merges gathered per-rank shards into one aligned timeline and
// reports it: the Fig. 7 rendering plus critical-path and per-rank
// busy/idle/comm breakdowns.
func runMerge(w io.Writer, files string, width int, svgOut, chromeOut string) error {
	var shards []trace.Shard
	for _, path := range strings.Split(files, ",") {
		fh, err := os.Open(path)
		if err != nil {
			return err
		}
		sh, err := trace.ReadShards(fh)
		fh.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		shards = append(shards, sh...)
	}
	if len(shards) == 0 {
		return errors.New("no shards found")
	}
	events, drops := trace.Merge(shards)
	tl := trace.Build(events)

	fmt.Fprintf(w, "merged %d shards, %d events\n", len(shards), len(events))
	for _, sh := range shards {
		fmt.Fprintf(w, "  rank %d: %d events, %d dropped\n", sh.Rank, len(sh.Events), sh.Drops)
	}
	if drops > 0 {
		fmt.Fprintf(w, "WARNING: recorders dropped %d events; timeline is incomplete\n", drops)
	}
	fmt.Fprintf(w, "makespan %v, worker utilization %.2f, panel overlap %.1f%%\n",
		tl.Makespan, tl.Utilization(), 100*tl.PanelOverlap(nil))
	printBusyByClass(w, tl)
	printCriticalPath(w, tl)
	printByRank(w, tl)
	fmt.Fprintf(w, "legend: P panel, u update, B binary, b binary-update, ~ wait, > send, < recv, = barrier\n")
	fmt.Fprint(w, tl.ASCII(width))
	if svgOut != "" {
		if err := os.WriteFile(svgOut, []byte(tl.SVG(1200, 14)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", svgOut)
	}
	if chromeOut != "" {
		return writeChrome(w, tl, chromeOut)
	}
	return nil
}

func printBusyByClass(w io.Writer, tl *trace.Timeline) {
	classes := make([]string, 0, len(tl.BusyByClass))
	for c := range tl.BusyByClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	fmt.Fprintf(w, "busy by class:")
	for _, c := range classes {
		fmt.Fprintf(w, " %s=%v", c, tl.BusyByClass[c].Round(time.Microsecond))
	}
	fmt.Fprintln(w)
}

func printCriticalPath(w io.Writer, tl *trace.Timeline) {
	cp := tl.CriticalPath()
	if len(cp.Events) == 0 {
		return
	}
	pct := 0.0
	if tl.Makespan > 0 {
		pct = 100 * float64(cp.Work) / float64(tl.Makespan)
	}
	fmt.Fprintf(w, "critical path: %d tasks, %v work (%.1f%% of makespan)\n",
		len(cp.Events), cp.Work.Round(time.Microsecond), pct)
	classes := make([]string, 0, len(cp.ByClass))
	for c := range cp.ByClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	fmt.Fprintf(w, "  on the path:")
	for _, c := range classes {
		fmt.Fprintf(w, " %s=%v", c, cp.ByClass[c].Round(time.Microsecond))
	}
	fmt.Fprintln(w)
}

func printByRank(w io.Writer, tl *trace.Timeline) {
	ranks := tl.ByRank()
	if len(ranks) < 2 {
		return
	}
	fmt.Fprintf(w, "%6s %12s %12s %12s %8s %12s %8s %12s\n",
		"rank", "busy", "wait", "barrier", "sends", "sent", "recvs", "recvd")
	for _, r := range ranks {
		fmt.Fprintf(w, "%6d %12v %12v %12v %8d %12d %8d %12d\n",
			r.Node, r.Busy.Round(time.Microsecond), r.Wait.Round(time.Microsecond),
			r.Barrier.Round(time.Microsecond), r.Sends, r.SentBytes, r.Recvs, r.RecvBytes)
	}
}

func writeChrome(w io.Writer, tl *trace.Timeline, path string) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tl.ChromeTrace(fh); err != nil {
		fh.Close()
		return err
	}
	if err := fh.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (open in chrome://tracing or Perfetto)\n", path)
	return nil
}
