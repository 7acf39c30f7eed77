// Command qrserve is the factorization service: a long-running process that
// accepts QR jobs over HTTP and multiplexes them onto a warm VSA runtime —
// a persistent worker pool and, in fleet mode, persistent TCP sessions to a
// set of agents, one factorization job per mux channel. The agents are
// qrserve too: rank 0 of a fleet serves HTTP, and a process given a rank of 1
// or more joins the mesh once, keeps a warm pool, and executes its share of
// every job the server dispatches until the server broadcasts shutdown, the
// connection drops, or it receives SIGINT/SIGTERM.
//
// Standalone:
//
//	qrserve -listen 127.0.0.1:7311 -threads 4
//
// Fleet of three processes on one machine (the server, and two agents it
// launches as copies of itself with its own flags and supervises as a group):
//
//	qrserve -listen 127.0.0.1:7311 -launch 2
//
// Fleet across machines, one process per host (-rank and -peers fall back to
// the QRSERVE_RANK and QRSERVE_PEERS environment variables):
//
//	qrserve -rank 0 -peers hostA:9000,hostB:9000 -listen :7311
//	qrserve -rank 1 -peers hostA:9000,hostB:9000
//
// Submit work:
//
//	curl -s http://127.0.0.1:7311/v1/factorize \
//	     -d '{"m":2048,"n":512,"seed":7,"wait":true}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof-addr serves the default mux
	"os"
	"os/signal"
	"syscall"
	"time"

	"pulsarqr/internal/mesh"
	"pulsarqr/internal/obs"
	"pulsarqr/internal/service"
	"pulsarqr/internal/transport"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command, returning its exit code, so that the deferred
// group kill and closes fire on every path and tests can drive it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	logger := log.New(stderr, "qrserve: ", 0)
	fail := func(err error) int {
		logger.Print(err)
		return 1
	}
	fs := flag.NewFlagSet("qrserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg service.Config
	var (
		listen   = fs.String("listen", "127.0.0.1:7311", "HTTP listen address (use :0 for an ephemeral port)")
		portfile = fs.String("portfile", "", "write the bound HTTP address to this file (for scripts using -listen :0)")
		launch   = fs.Int("launch", 0, "serve as rank 0 of a fleet with this many agents, launched on loopback as copies of this process with its flags")
		pprof    = fs.String("pprof-addr", "", "serve net/http/pprof on this address (off when empty; launched agents inherit it, so give -launch a port of 0)")
		logLvl   = fs.String("log-level", "info", "structured event log level: debug, info, warn, error (debug includes per-job lifecycle chatter)")
		logFmt   = fs.String("log-format", "text", "log format: text, or json — the whole log structured, an agent's lines stamped with its rank")
		fcap     = fs.Int("flight-cap", 0, "flight-recorder ring capacity (0 = default 1024; overflow drops oldest)")
	)
	fs.IntVar(&cfg.Threads, "threads", 4, "worker threads in the persistent pool")
	fs.IntVar(&cfg.QueueCap, "queue", 32, "admission queue capacity (submits beyond it get 429)")
	fs.IntVar(&cfg.MaxConcurrent, "maxjobs", 4, "jobs factorizing concurrently")
	fs.IntVar(&cfg.ResultCap, "results", 64, "terminal jobs kept queryable before eviction")
	fs.IntVar(&cfg.TraceCap, "tracecap", 0, "per-traced-job event recorder capacity (0 = default; overflow drops oldest events)")
	fs.IntVar(&cfg.BatchStreams, "batch-streams", 0, "POST /v1/batch streams admitted concurrently (0 = default 2; arrivals beyond it get 429)")
	fs.StringVar(&cfg.CheckpointDir, "checkpoint-dir", "", "durable streaming-session checkpoints (QSC1) live here; sessions survive restarts (empty = memory-only sessions)")
	fs.IntVar(&cfg.SessionStreams, "session-streams", 0, "session append streams admitted concurrently (0 = default 2; arrivals beyond it get 429)")
	fs.IntVar(&cfg.MaxSessions, "max-sessions", 0, "streaming sessions registered at once (0 = default 64)")
	fs.IntVar(&cfg.MaxSessionsPerTenant, "tenant-sessions", 0, "streaming sessions one tenant may hold (0 = default 8)")
	fs.DurationVar(&cfg.SessionIdle, "session-idle", 0, "unload (durable) or evict (memory-only) sessions idle this long (0 = default 10m; negative disables)")
	fs.IntVar(&cfg.CheckpointEvery, "checkpoint-every", 0, "appends between durable checkpoint writes (0 = every append)")
	mf := mesh.Register(fs, "QRSERVE", "0, the default, serves HTTP; 1 and up are fleet agents")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	meshed, err := mf.Resolve(*launch > 0, 0)
	if err != nil {
		return fail(err)
	}
	agent := *launch == 0 && mf.Rank > 0
	if agent {
		logger.SetPrefix(fmt.Sprintf("qrserve %d: ", mf.Rank))
	}
	events, err := buildLogger(*logLvl, *logFmt, stderr)
	if err != nil {
		return fail(err)
	}
	logf := logger.Printf
	if *logFmt == "json" {
		// JSON mode turns the whole log structured, not just the event
		// stream — mixed plain/JSON lines would defeat log shippers.
		if agent {
			events = events.With(slog.Int("rank", mf.Rank))
		}
		logf = func(format string, args ...any) { events.Info(fmt.Sprintf(format, args...)) }
	}
	startPprof(*pprof, logger)

	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()

	stopAgents := func(time.Duration) int { return 0 }
	if *launch > 0 {
		// No failure callback: a fleet outlives an agent — the server evicts
		// the rank and requeues its jobs on the survivors.
		if stopAgents, err = mf.Launch(*launch+1, args, stdout, logger.Printf, nil); err != nil {
			return fail(err)
		}
		defer stopAgents(0) // no orphaned agents on any exit path
	}
	var ep transport.Endpoint
	if meshed {
		if ep, err = mf.Dial(ctx, logf); err != nil {
			return fail(err)
		}
		defer ep.Close()
	}

	if agent {
		logf("fleet of %d ranks up, %d worker threads warm", ep.Size(), cfg.Threads)
		a, err := service.NewAgent(ep, cfg.Threads, logf)
		if err != nil {
			return fail(err)
		}
		err = a.Run(ctx)
		a.Close()
		switch {
		case err == nil:
			logger.Print("shutdown received, exiting")
			return 0
		case errors.Is(err, context.Canceled):
			logger.Print("interrupted, exiting")
			return 130
		}
		return fail(err)
	}

	cfg.Logf, cfg.Ep = logf, ep
	cfg.Obs = obs.New(obs.Options{Logger: events, FlightCap: *fcap})
	srv, err := service.NewServer(cfg)
	if err != nil {
		return fail(err)
	}
	hln, err := net.Listen("tcp", *listen)
	if err == nil && *portfile != "" {
		if err = os.WriteFile(*portfile, []byte(hln.Addr().String()+"\n"), 0o644); err != nil {
			hln.Close()
		}
	}
	if err != nil {
		srv.Close()
		return fail(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	httpDone := make(chan error, 1)
	go func() { httpDone <- hs.Serve(hln) }()
	logger.Printf("serving on http://%s (%d ranks, %d threads, queue %d, %d concurrent jobs)",
		hln.Addr(), srv.Ranks(), cfg.Threads, cfg.QueueCap, cfg.MaxConcurrent)
	if cfg.CheckpointDir != "" {
		logger.Printf("durable sessions: checkpoints in %s", cfg.CheckpointDir)
	}

	select {
	case <-ctx.Done():
		logger.Print("shutting down")
	case err := <-httpDone:
		logger.Printf("http server: %v", err)
	}
	stopSig()

	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	hs.Shutdown(shutCtx)
	cancel()
	srv.Close() // cancels jobs, broadcasts agent shutdown, drains the pool
	// Give launched agents a moment to exit on the shutdown broadcast, then
	// make sure nothing is left behind.
	stopAgents(5 * time.Second)
	return 0
}

// buildLogger constructs the structured event logger from the -log-level and
// -log-format flags.
func buildLogger(level, format string, w io.Writer) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
}

// startPprof serves the net/http/pprof handlers on their own listener; the
// profiling surface never rides the public job API and is off by default.
func startPprof(addr string, logger *log.Logger) {
	if addr == "" {
		return
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		logger.Printf("pprof: %v", err)
		return
	}
	logger.Printf("pprof on http://%s/debug/pprof/", ln.Addr())
	go func() { logger.Printf("pprof: %v", http.Serve(ln, nil)) }()
}
