// Command qrfactor factors a random tall-skinny matrix with the tree-based
// tile QR and reports correctness metrics and the achieved rate.
//
// Example:
//
//	qrfactor -m 4096 -n 512 -nb 192 -ib 24 -tree hierarchical -h 4 \
//	         -engine systolic -nodes 2 -threads 4
//
// With -launch N the nodes become real OS processes: qrfactor reserves N
// loopback ports, spawns one qrnode per rank, and relays their output.
//
//	qrfactor -launch 2 -m 4096 -n 512 -check
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"pulsarqr"
	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/procgroup"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qrfactor: ")
	def := qr.DefaultOptions()
	var (
		m       = flag.Int("m", 4096, "rows")
		n       = flag.Int("n", 256, "columns")
		nb      = flag.Int("nb", def.NB, "tile size")
		ib      = flag.Int("ib", def.IB, "inner block size")
		tree    = flag.String("tree", "hierarchical", "reduction tree: hierarchical|flat|binary")
		h       = flag.Int("h", def.H, "tiles per flat-tree domain (hierarchical)")
		fixed   = flag.Bool("fixed", false, "use fixed domain boundaries instead of shifted")
		engine  = flag.String("engine", "systolic", "engine: systolic|quark|sequential")
		nodes   = flag.Int("nodes", 1, "simulated distributed-memory nodes")
		threads = flag.Int("threads", 4, "worker threads per node")
		lazy    = flag.Bool("lazy", true, "lazy VDP scheduling (false = aggressive)")
		seed    = flag.Int64("seed", 42, "matrix seed")
		rhs     = flag.Int("rhs", 0, "ride-along right-hand-side columns")
		inFile  = flag.String("in", "", "read A from a MatrixMarket array file instead of random")
		outFile = flag.String("out", "", "write the R factor to a MatrixMarket array file")
		launch  = flag.Int("launch", 0, "spawn this many qrnode processes over local TCP instead of simulating nodes in-process")
		nodeBin = flag.String("qrnode", "", "path to the qrnode binary (default: next to qrfactor, then $PATH)")
		check   = flag.Bool("check", false, "with -launch: rank 0 verifies elementwise against the sequential reference")
		trFile  = flag.String("trace", "", "record an execution trace to this JSONL file (systolic engine; with -launch, rank 0 gathers every rank's shard)")
	)
	flag.Parse()

	if *launch > 0 {
		args := []string{
			"-m", fmt.Sprint(*m), "-n", fmt.Sprint(*n),
			"-nb", fmt.Sprint(*nb), "-ib", fmt.Sprint(*ib),
			"-tree", *tree, "-h", fmt.Sprint(*h),
			"-threads", fmt.Sprint(*threads),
			"-lazy=" + fmt.Sprint(*lazy),
			"-seed", fmt.Sprint(*seed), "-rhs", fmt.Sprint(*rhs),
			"-check=" + fmt.Sprint(*check),
		}
		if *trFile != "" {
			args = append(args, "-trace", *trFile)
		}
		os.Exit(launchNodes(*launch, *nodeBin, args))
	}

	opts := pulsarqr.Options{
		NB: *nb, IB: *ib, H: *h,
		Nodes: *nodes, Threads: *threads,
	}
	switch *tree {
	case "hierarchical":
		opts.Tree = pulsarqr.Hierarchical
	case "flat":
		opts.Tree = pulsarqr.Flat
	case "binary":
		opts.Tree = pulsarqr.Binary
	default:
		log.Fatalf("unknown tree %q", *tree)
	}
	if *fixed {
		opts.Boundary = pulsarqr.Fixed
	}
	switch *engine {
	case "systolic":
		opts.Engine = pulsarqr.Systolic
	case "quark":
		opts.Engine = pulsarqr.TaskSuperscalar
	case "sequential":
		opts.Engine = pulsarqr.Sequential
	default:
		log.Fatalf("unknown engine %q", *engine)
	}
	if !*lazy {
		opts.Scheduling = pulsarqr.Aggressive
	}

	var a *pulsarqr.Matrix
	if *inFile != "" {
		fh, err := os.Open(*inFile)
		if err != nil {
			log.Fatal(err)
		}
		a, err = matrix.ReadMatrixMarket(fh)
		fh.Close()
		if err != nil {
			log.Fatalf("%s: %v", *inFile, err)
		}
		*m, *n = a.Rows, a.Cols
	} else {
		a = pulsarqr.RandomMatrix(*m, *n, *seed)
	}
	var b *pulsarqr.Matrix
	if *rhs > 0 {
		b = pulsarqr.RandomMatrix(*m, *rhs, *seed+1)
	}

	fmt.Printf("factoring %dx%d, nb=%d ib=%d tree=%s h=%d engine=%s nodes=%d threads=%d\n",
		*m, *n, *nb, *ib, *tree, *h, *engine, *nodes, *threads)
	start := time.Now()
	var f *pulsarqr.Factorization
	var err error
	if *trFile != "" {
		if opts.Engine != pulsarqr.Systolic {
			log.Fatalf("-trace requires -engine systolic, got %q", *engine)
		}
		f, err = factorTraced(a, b, opts, *trFile)
	} else if b != nil {
		f, err = pulsarqr.FactorWithRHS(a, b, opts)
	} else {
		f, err = pulsarqr.Factor(a, opts)
	}
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	gf := kernels.FlopsQR(*m, *n) / 1e9 / elapsed.Seconds()
	fmt.Printf("time      %v\n", elapsed)
	fmt.Printf("rate      %.3f Gflop/s (conventional 2n²(m−n/3) count)\n", gf)
	res := f.Residual(a)
	fmt.Printf("residual  ‖AᵀA − RᵀR‖/‖AᵀA‖ = %.3e\n", res)
	if b != nil {
		x := f.SolveFromQTB()
		r := a.Mul(x).Sub(b)
		fmt.Printf("lsq       ‖Ax − b‖_F = %.6e (gradient ‖Aᵀ(Ax−b)‖_max = %.3e)\n",
			r.FrobNorm(), a.Transpose().Mul(r).MaxAbs())
	}
	if *outFile != "" {
		fh, err := os.Create(*outFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := matrix.WriteMatrixMarket(fh, f.R()); err != nil {
			log.Fatal(err)
		}
		if err := fh.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote R to %s\n", *outFile)
	}
	if res > 1e-12 {
		fmt.Fprintln(os.Stderr, "WARNING: residual above tolerance")
		os.Exit(1)
	}
}

// factorTraced runs the systolic engine through the internal qr layer with
// a trace recorder installed, then writes the single-process shard as JSONL
// for qrtrace -merge.
func factorTraced(a, b *pulsarqr.Matrix, opts pulsarqr.Options, path string) (*pulsarqr.Factorization, error) {
	rec := trace.NewRecorder()
	io := qr.Options{NB: opts.NB, IB: opts.IB, Tree: opts.Tree, H: opts.H, Boundary: opts.Boundary, Inter: opts.Inter}
	rc := qr.RunConfig{
		Nodes: opts.Nodes, Threads: opts.Threads, Scheduling: opts.Scheduling,
		FireHook: rec.Hook(), WaitHook: rec.WaitHook(), CommHook: rec.CommHook(),
	}
	ta := matrix.FromDense(a, io.NB)
	var tb *matrix.Tiled
	if b != nil {
		tb = matrix.FromDense(b, io.NB)
	}
	f, err := qr.FactorizeVSA(ta, tb, io, rc)
	if err != nil {
		return nil, err
	}
	fh, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	sh := rec.Shard(0)
	if err := trace.WriteShards(fh, sh); err != nil {
		fh.Close()
		return nil, err
	}
	if err := fh.Close(); err != nil {
		return nil, err
	}
	fmt.Printf("trace     %d events written to %s (dropped %d)\n", len(sh.Events), path, sh.Drops)
	return f, nil
}

// launchNodes runs an N-process factorization: it reserves N loopback
// ports, starts one qrnode per rank with the shared peer list, relays each
// child's output under a [rank] prefix, and returns the worst exit code.
// The children form one supervised group: a signal to qrfactor, a failed
// rank, or any early return tears the whole mesh down — no orphaned qrnode
// processes holding ports.
func launchNodes(n int, nodeBin string, args []string) int {
	bin, err := findQrnode(nodeBin)
	if err != nil {
		log.Print(err)
		return 1
	}

	// Reserve ports by binding and releasing; the children re-bind them
	// immediately, so collisions with other processes are unlikely.
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Printf("reserve port: %v", err)
			return 1
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	peers := strings.Join(addrs, ",")
	log.Printf("launching %d qrnode processes (%s)", n, bin)

	group := procgroup.New()
	defer group.Kill() // covers every exit path, error returns included
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	type exit struct {
		rank, code int
		err        error
	}
	exits := make(chan exit, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(bin, append([]string{
			"-rank", fmt.Sprint(i), "-peers", peers,
		}, args...)...)
		out, err := cmd.StdoutPipe()
		if err != nil {
			log.Printf("rank %d: %v", i, err)
			return 1
		}
		cmd.Stderr = cmd.Stdout // merged: one ordered stream per child
		if err := group.Start(cmd); err != nil {
			log.Printf("start rank %d: %v", i, err)
			return 1
		}
		go func(i int, cmd *exec.Cmd, sc *bufio.Scanner) {
			for sc.Scan() {
				fmt.Printf("[rank %d] %s\n", i, sc.Text())
			}
			err := cmd.Wait()
			code := 0
			if err != nil {
				if code = cmd.ProcessState.ExitCode(); code <= 0 {
					code = 1
				}
			}
			exits <- exit{i, code, err}
		}(i, cmd, bufio.NewScanner(out))
	}

	code := 0
	for done := 0; done < n; {
		select {
		case sig := <-sigc:
			log.Printf("received %v, stopping nodes", sig)
			group.Kill()
			if code == 0 {
				code = 130
			}
		case e := <-exits:
			done++
			if e.code != 0 {
				if !group.Killed() {
					log.Printf("rank %d: %v", e.rank, e.err)
					// One dead rank would leave the rest blocked in the
					// mesh until their deadlock timeout; fail fast instead.
					group.Kill()
				}
				if e.code > code {
					code = e.code
				}
			}
		}
	}
	return code
}

// findQrnode locates the qrnode binary: explicit flag, then the directory
// qrfactor itself runs from, then $PATH.
func findQrnode(nodeBin string) (string, error) {
	if nodeBin != "" {
		return nodeBin, nil
	}
	if exe, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(exe), "qrnode")
		if st, err := os.Stat(cand); err == nil && !st.IsDir() {
			return cand, nil
		}
	}
	if p, err := exec.LookPath("qrnode"); err == nil {
		return p, nil
	}
	return "", fmt.Errorf("qrnode binary not found: build it (go build ./cmd/qrnode) next to qrfactor, put it on $PATH, or pass -qrnode")
}
