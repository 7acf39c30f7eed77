// Command qrfactor factors a tall-skinny matrix (random, or read with -in)
// with the tree-based tile QR and reports correctness metrics and the
// achieved rate.
//
// In one process, the distributed-memory nodes simulated:
//
//	qrfactor -m 4096 -n 512 -nb 192 -ib 24 -tree hierarchical -h 4 \
//	         -engine systolic -nodes 2 -threads 4
//
// As one rank of N real OS processes over TCP: every rank builds the same 3D
// virtual systolic array and executes its own share of the VDPs, rank 0
// gathers the result, reports, and with -check verifies the factored tiles
// elementwise against the sequential reference. Every rank derives the same
// input from -seed (or reads the same -in file), so no matrix data is
// distributed out of band.
//
//	qrfactor -rank 0 -peers 127.0.0.1:9001,127.0.0.1:9002 -m 4096 -n 512 &
//	qrfactor -rank 1 -peers 127.0.0.1:9001,127.0.0.1:9002 -m 4096 -n 512
//
// -rank and -peers fall back to the QRNODE_RANK and QRNODE_PEERS environment
// variables. With -launch N qrfactor is rank 0 itself and starts N-1 copies
// of itself, with its own argument list, as the other ranks on loopback:
//
//	qrfactor -launch 2 -m 4096 -n 512 -check
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pulsarqr"
	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/mesh"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/trace"
	"pulsarqr/internal/transport"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command, returning its exit code, so that deferred
// teardown fires on every path and tests can drive it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	logger := log.New(stderr, "qrfactor: ", 0)
	fail := func(format string, a ...any) int {
		logger.Printf(format, a...)
		return 1
	}
	fs := flag.NewFlagSet("qrfactor", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := qr.DefaultOptions()
	var (
		m       = fs.Int("m", 4096, "rows")
		n       = fs.Int("n", 256, "columns")
		nb      = fs.Int("nb", def.NB, "tile size")
		ib      = fs.Int("ib", def.IB, "inner block size")
		tree    = fs.String("tree", "hierarchical", "reduction tree: hierarchical|flat|binary")
		h       = fs.Int("h", def.H, "tiles per flat-tree domain (hierarchical); 0 = one domain per worker, ⌈tile rows / (nodes × threads)⌉")
		fixed   = fs.Bool("fixed", false, "use fixed domain boundaries instead of shifted")
		engine  = fs.String("engine", "systolic", "engine: systolic|quark|sequential (a process mesh runs systolic only)")
		nodes   = fs.Int("nodes", 1, "distributed-memory nodes simulated inside this process (a process mesh takes its size from the peer list)")
		threads = fs.Int("threads", 4, "worker threads per node")
		lazy    = fs.Bool("lazy", true, "lazy VDP scheduling (false = aggressive)")
		seed    = fs.Int64("seed", 42, "matrix seed (identical on every rank)")
		rhs     = fs.Int("rhs", 0, "ride-along right-hand-side columns")
		inFile  = fs.String("in", "", "read A from a MatrixMarket array file instead of random (every rank reads it)")
		outFile = fs.String("out", "", "write the R factor to a MatrixMarket array file (rank 0 writes it)")
		launch  = fs.Int("launch", 0, "run as rank 0 of this many OS processes over loopback TCP, the others launched as copies of this one")
		check   = fs.Bool("check", false, "verify the factored tiles elementwise against the sequential reference (rank 0)")
		trFile  = fs.String("trace", "", "record an execution trace to this JSONL file (systolic engine; rank 0 gathers every rank's shard)")
	)
	mf := mesh.Register(fs, "QRNODE", "0 gathers and reports")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	opts := qr.Options{NB: *nb, IB: *ib, H: *h}
	var err error
	if opts.Tree, err = qr.ParseTree(*tree); err != nil {
		return fail("%v", err)
	}
	if *fixed {
		opts.Boundary = qr.FixedBoundary
	}
	rc := qr.RunConfig{Nodes: *nodes, Threads: *threads}
	if !*lazy {
		rc.Scheduling = pulsarqr.Aggressive
	}
	systolic := *engine == "systolic"
	if *engine != "quark" && *engine != "sequential" && !systolic {
		return fail("unknown engine %q", *engine)
	}
	var rec *trace.Recorder
	if *trFile != "" {
		if !systolic {
			return fail("-trace requires -engine systolic, got %q", *engine)
		}
		rec = trace.NewRecorder()
		rc.FireHook, rc.WaitHook, rc.CommHook = rec.Hook(), rec.WaitHook(), rec.CommHook()
	}

	meshed, err := mf.Resolve(*launch > 0, -1)
	if err != nil {
		return fail("%v", err)
	}
	if meshed {
		// Refused, not dropped: a mesh that silently ran something else would
		// report numbers for a configuration nobody asked for.
		if !systolic {
			return fail("-engine %s cannot run across a process mesh (-launch, -peers): only the systolic engine is distributed", *engine)
		}
		if *nodes != 1 {
			return fail("-nodes %d with -launch or -peers: a process mesh has as many nodes as it has ranks", *nodes)
		}
	}

	// SIGINT/SIGTERM cancel a systolic run: in-flight kernels drain, the
	// runtime aborts, and the process exits instead of lingering in the mesh.
	// (The other engines cannot be canceled and keep the default handling.)
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	if systolic {
		var stopSig context.CancelFunc
		ctx, stopSig = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stopSig()
	}

	var stopRanks func(grace time.Duration) int
	if *launch > 0 {
		// A rank that dies takes the run with it: the launcher kills the
		// others, and cancel unwinds rank 0 here with the reason.
		if stopRanks, err = mf.Launch(*launch, args, stdout, logger.Printf, cancel); err != nil {
			return fail("%v", err)
		}
		defer stopRanks(0) // no orphaned ranks holding ports on any exit path
	}
	var ep transport.Endpoint
	rank := 0
	if meshed {
		logger.SetPrefix(fmt.Sprintf("qrfactor %d: ", mf.Rank))
		if ep, err = mf.Dial(ctx, logger.Printf); err != nil {
			return fail("%v", err)
		}
		defer ep.Close()
		logger.Printf("mesh of %d ranks up", ep.Size())
		rank, rc.Nodes = mf.Rank, ep.Size()
	}

	var a *matrix.Mat
	if *inFile != "" {
		fh, err := os.Open(*inFile)
		if err != nil {
			return fail("%v", err)
		}
		a, err = matrix.ReadMatrixMarket(fh)
		fh.Close()
		if err != nil {
			return fail("%s: %v", *inFile, err)
		}
		*m, *n = a.Rows, a.Cols
	} else {
		a = pulsarqr.RandomMatrix(*m, *n, *seed)
	}
	var b *matrix.Mat
	if *rhs > 0 {
		b = pulsarqr.RandomMatrix(*m, *rhs, *seed+1)
	}
	// An unset -h is resolved once, from the requested workers (a mesh's
	// ranks × -threads), so every engine, every rank and the -check
	// reference run one tree.
	opts = opts.Resolve((*m+opts.NB-1)/opts.NB, rc.Nodes*rc.Threads)
	// The engines consume their tiles, so each run gets its own copy.
	tiled := func(d *matrix.Mat) *matrix.Tiled {
		if d == nil {
			return nil
		}
		return matrix.FromDense(d, opts.NB)
	}

	if rank == 0 {
		fmt.Fprintf(stdout, "factoring %dx%d, engine=%s nodes=%d threads=%d\n", *m, *n, *engine, rc.Nodes, rc.Threads)
	}
	start := time.Now()
	var f *qr.Factorization
	switch *engine {
	case "systolic":
		f, err = qr.FactorizeVSAIn(ctx, tiled(a), tiled(b), opts, rc, qr.Env{Endpoint: ep})
	case "quark":
		f, err = qr.FactorizeQuark(tiled(a), tiled(b), opts, max(rc.Nodes*rc.Threads, 1))
	default:
		f, err = qr.Factorize(tiled(a), tiled(b), opts)
	}
	if err != nil {
		logger.Print(err)
		if errors.Is(err, context.Canceled) {
			return 130
		}
		return 1
	}
	elapsed := time.Since(start)
	if rec != nil {
		// Rank 0 collects every rank's shard (a single process has just its
		// own) and writes them as JSONL, ready for qrtrace -merge.
		gctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		shards, err := trace.GatherShards(gctx, ep, rec.Shard(rank))
		cancel()
		if err == nil && shards != nil {
			if err = writeFile(*trFile, func(w io.Writer) error { return trace.WriteShards(w, shards...) }); err == nil {
				fmt.Fprintf(stdout, "trace     %d shards written to %s\n", len(shards), *trFile)
			}
		}
		if err != nil {
			return fail("trace: %v", err)
		}
	}
	if f == nil { // a rank other than 0: its share went to rank 0 in the gather
		msgs, bytes := ep.Stats()
		logger.Printf("done in %v (sent %d messages, %d payload bytes)", elapsed, msgs, bytes)
		return 0
	}

	fmt.Fprintf(stdout, "options   %v\n", f.Opts)
	fmt.Fprintf(stdout, "time      %v\n", elapsed)
	fmt.Fprintf(stdout, "rate      %.3f Gflop/s (conventional 2n²(m−n/3) count)\n",
		kernels.FlopsQR(*m, *n)/1e9/elapsed.Seconds())
	if ep != nil {
		msgs, bytes := ep.Stats()
		fmt.Fprintf(stdout, "network   %d messages, %d payload bytes sent by rank 0 (run: %d msgs, %d bytes)\n",
			msgs, bytes, f.Stats.Messages, f.Stats.Bytes)
	}
	res := f.Residual(a)
	fmt.Fprintf(stdout, "residual  ‖AᵀA − RᵀR‖/‖AᵀA‖ = %.3e\n", res)
	if b != nil {
		r := a.Mul(f.SolveFromQTB()).Sub(b)
		fmt.Fprintf(stdout, "lsq       ‖Ax − b‖_F = %.6e (gradient ‖Aᵀ(Ax−b)‖_max = %.3e)\n",
			r.FrobNorm(), a.Transpose().Mul(r).MaxAbs())
	}
	if *check {
		seq, err := qr.Factorize(tiled(a), tiled(b), opts)
		if err != nil {
			return fail("sequential reference: %v", err)
		}
		if d := matrix.MaxAbsDiff(seq.A.ToDense(), f.A.ToDense()); d != 0 {
			return fail("check failed: factored tiles differ by %v", d)
		}
		if b != nil {
			if d := matrix.MaxAbsDiff(seq.QTB.ToDense(), f.QTB.ToDense()); d != 0 {
				return fail("check failed: QᵀB differs by %v", d)
			}
		}
		fmt.Fprintln(stdout, "check     result elementwise equal to sequential")
	}
	if *outFile != "" {
		if err := writeFile(*outFile, func(w io.Writer) error { return matrix.WriteMatrixMarket(w, f.R()) }); err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stdout, "wrote R to %s\n", *outFile)
	}
	if !(res <= 1e-12) { // a NaN residual fails too
		return fail("WARNING: residual above tolerance")
	}
	if stopRanks != nil {
		// The other ranks leave on their own after the closing barrier.
		return stopRanks(10 * time.Second)
	}
	return 0
}

// writeFile creates path and fills it with write; Close's error counts.
func writeFile(path string, write func(io.Writer) error) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(fh); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}
