// Command qrbench regenerates the paper's evaluation (Figures 10 and 11,
// the §VI-A baseline comparisons, and the parameter ablations) on the
// calibrated Kraken machine model, plus a real-hardware cross-check on
// this host. See EXPERIMENTS.md for the recorded outputs.
//
//	qrbench -fig 10         # asymptotic scaling, n=4608, 9216 cores
//	qrbench -fig 11         # strong scaling, m=368640 n=4608
//	qrbench -fig baselines  # ScaLAPACK model + generic-runtime profile
//	qrbench -fig ablation   # nb / h / scheduling sweeps
//	qrbench -fig real       # real multicore runs on this host
//
// -batch -batch-url and -session -session-url are the smoke scripts' clients
// for the two binary protocols of a running qrserve; the benchmarks of those
// paths are `go run ./bench -workload batch_small|session_append`.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pulsarqr"
	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/simulate"
	"pulsarqr/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qrbench: ")
	fig := flag.String("fig", "10", "which experiment: 10|11|baselines|ablation|real")
	scale := flag.Float64("scale", 1, "shrink factor for quicker runs (divides m and cores)")
	nodes := flag.Int("nodes", 1, "runtime nodes for -fig real (inter-node traffic is reported per run)")
	trFile := flag.String("trace", "", "with -fig real: record each run's execution trace to <file>-<tree>.jsonl")
	batchRun := flag.Bool("batch", false, "with -batch-url: stream one verified batch through a running qrserve's POST /v1/batch (ignores -fig)")
	batchCount := flag.Int("batch-count", 10000, "with -batch: matrices in the batch")
	batchDim := flag.Int("batch-dim", 32, "with -batch: matrix dimension (dim x dim)")
	batchURL := flag.String("batch-url", "", "with -batch: base URL of the running qrserve")
	sessRun := flag.Bool("session", false, "with -session-url: run a streaming-session smoke action against a running qrserve (ignores -fig)")
	sessCount := flag.Int("session-count", 64, "with -session: appended row blocks")
	sessN := flag.Int("session-n", 64, "with -session: session column count")
	sessBlock := flag.Int("session-block", 64, "with -session: rows per appended block")
	sessURL := flag.String("session-url", "", "with -session: base URL of the running qrserve")
	sessAct := flag.String("session-act", "seed", "with -session-url: seed (open a durable session and stream blocks) or verify (check the restored session's R bitwise)")
	sessID := flag.String("session-id", "", "with -session-act verify: the session id printed by seed")
	planRun := flag.Bool("plan", false, "run the trace-driven planner offline: plan a job shape against a machine model and print the decision vs the hand-default (ignores -fig)")
	planM := flag.Int("plan-m", 16384, "with -plan: matrix rows")
	planN := flag.Int("plan-n", 512, "with -plan: matrix columns")
	planMach := flag.String("plan-machine", "kraken:16", "with -plan: machine model — kraken:<nodes>, localhost:<nodes>,<cores>, or a model JSON file")
	planTarget := flag.Float64("plan-target-ms", 0, "with -plan: completion target in ms; the planner then picks the fewest ranks that meet it")
	planSweep := flag.Bool("plan-sweep", false, "with -plan: also sweep a grid of shapes and assert the planned config never simulates slower than the default")
	flag.Parse()

	if *planRun {
		planMain(*planM, *planN, *planMach, *planTarget, *planSweep)
		return
	}
	if *sessRun {
		switch {
		case *sessURL != "" && *sessAct == "seed":
			sessionSeed(*sessURL, *sessCount, *sessN, *sessBlock)
		case *sessURL != "" && *sessAct == "verify":
			if *sessID == "" {
				log.Fatal("-session-act verify needs -session-id")
			}
			sessionVerify(*sessURL, *sessID, *sessCount, *sessN, *sessBlock)
		case *sessURL != "":
			log.Fatalf("unknown -session-act %q", *sessAct)
		default:
			log.Fatal("-session needs -session-url; the session benchmark is: go run ./bench -workload session_append")
		}
		return
	}
	if *batchRun {
		if *batchURL == "" {
			log.Fatal("-batch needs -batch-url; the batch benchmark is: go run ./bench -workload batch_small")
		}
		batchServe(*batchURL, *batchCount, *batchDim)
		return
	}
	switch *fig {
	case "10":
		fig10(*scale)
	case "11":
		fig11(*scale)
	case "baselines":
		baselines(*scale)
	case "ablation":
		ablation(*scale)
	case "weak":
		weak(*scale)
	case "real":
		real(*nodes, *trFile)
	default:
		log.Fatalf("unknown figure %q", *fig)
	}
}

// weak runs the weak-scaling regime §II motivates: rows grow with the
// machine (48 rows per core) at fixed n.
func weak(scale float64) {
	n := 4608
	fmt.Printf("Weak scaling: m = 48·cores, n=%d (simulated)\n", n)
	fmt.Printf("%10s %12s %12s %14s %14s\n", "cores", "m", "rate", "per-core", "generic gap")
	for _, cores := range []int{480, 1920, 3840, 7680, 15360} {
		cores := int(float64(cores) / scale)
		m := 48 * cores
		mach := simulate.Kraken(max(cores/12, 1))
		if skipShort(mach.TotalCores(), m, n) {
			continue
		}
		o := qr.Options{NB: 192, IB: 48, Tree: qr.HierarchicalTree, H: 12}
		w := simulate.Workload{M: m, N: n, Opts: o}
		r := simulate.Run(w, mach, simulate.SystolicProfile)
		g := simulate.Run(w, mach, simulate.GenericProfile)
		fmt.Printf("%10d %12d %9.0f GF %8.2f GF/c %13.1f%%\n",
			mach.TotalCores(), m, r.Gflops, r.Gflops/float64(mach.TotalCores()),
			100*(r.Gflops-g.Gflops)/r.Gflops)
	}
}

// skipShort reports whether a row scaled down to m < n, which simulate.Run
// refuses, and if so prints a one-line note under the row's label instead.
func skipShort(label, m, n int) bool {
	if m >= n {
		return false
	}
	fmt.Printf("%10d skipped: m=%d < n=%d at this -scale\n", label, m, n)
	return true
}

// bestOf runs the paper's parameter sweep — nb ∈ {192, 240}, ib = 48 and,
// for the hierarchical tree, h ∈ {6, 12} — and reports the best rate, as
// §VI does ("we report the best performance obtained using these setups").
func bestOf(m, n int, tree qr.TreeKind, mach simulate.Machine) simulate.Result {
	var best simulate.Result
	hs := []int{1}
	if tree == qr.HierarchicalTree {
		hs = []int{6, 12}
	}
	for _, nb := range []int{192, 240} {
		for _, h := range hs {
			w := simulate.Workload{M: m, N: n,
				Opts: qr.Options{NB: nb, IB: 48, Tree: tree, H: h}}
			r := simulate.Run(w, mach, simulate.SystolicProfile)
			if r.Gflops > best.Gflops {
				best = r
			}
		}
	}
	return best
}

func fig10(scale float64) {
	n := 4608
	nodes := int(768 / scale)
	mach := simulate.Kraken(nodes)
	fmt.Printf("Figure 10: asymptotic scaling, n=%d, %d cores (simulated Cray XT5)\n",
		n, mach.TotalCores())
	fmt.Printf("%10s %14s %14s %14s\n", "m", "hierarchical", "binary", "flat")
	for _, m := range []int{23040, 92160, 184320, 368640, 737280} {
		m := int(float64(m) / scale)
		if skipShort(m, m, n) {
			continue
		}
		h := bestOf(m, n, qr.HierarchicalTree, mach)
		b := bestOf(m, n, qr.BinaryTree, mach)
		f := bestOf(m, n, qr.FlatTree, mach)
		fmt.Printf("%10d %11.0f GF %11.0f GF %11.0f GF\n", m, h.Gflops, b.Gflops, f.Gflops)
	}
}

func fig11(scale float64) {
	m, n := int(368640/scale), 4608
	fmt.Printf("Figure 11: strong scaling, m=%d n=%d (simulated Cray XT5)\n", m, n)
	fmt.Printf("%10s %14s %14s %14s\n", "cores", "hierarchical", "binary", "flat")
	for _, cores := range []int{480, 1920, 3840, 7680, 15360} {
		cores := int(float64(cores) / scale)
		mach := simulate.Kraken(max(cores/12, 1))
		h := bestOf(m, n, qr.HierarchicalTree, mach)
		b := bestOf(m, n, qr.BinaryTree, mach)
		f := bestOf(m, n, qr.FlatTree, mach)
		fmt.Printf("%10d %11.0f GF %11.0f GF %11.0f GF\n", mach.TotalCores(), h.Gflops, b.Gflops, f.Gflops)
	}
}

func baselines(scale float64) {
	m, n := int(368640/scale), 4608
	fmt.Printf("Section VI-A: baselines, m=%d n=%d (simulated)\n", m, n)
	fmt.Printf("%10s %12s %12s %8s %12s %8s\n",
		"cores", "tree QR", "generic-rt", "gap", "scalapack", "ratio")
	for _, cores := range []int{480, 1920, 3840, 7680, 15360} {
		cores := int(float64(cores) / scale)
		mach := simulate.Kraken(max(cores/12, 1))
		w := simulate.Workload{M: m, N: n,
			Opts: qr.Options{NB: 192, IB: 48, Tree: qr.HierarchicalTree, H: 12}}
		sys := simulate.Run(w, mach, simulate.SystolicProfile)
		gen := simulate.Run(w, mach, simulate.GenericProfile)
		sc := simulate.DefaultScaLAPACK().Gflops(mach, m, n)
		fmt.Printf("%10d %9.0f GF %9.0f GF %7.1f%% %9.0f GF %7.1fx\n",
			mach.TotalCores(), sys.Gflops, gen.Gflops,
			100*(sys.Gflops-gen.Gflops)/sys.Gflops, sc, sys.Gflops/sc)
	}
}

func ablation(scale float64) {
	m, n := int(368640/scale), 4608
	mach := simulate.Kraken(int(768 / scale))
	fmt.Printf("Ablations at m=%d n=%d, %d cores (simulated)\n", m, n, mach.TotalCores())
	fmt.Println("-- tile size nb / domain size h (hierarchical tree) --")
	for _, nb := range []int{192, 240} {
		for _, h := range []int{6, 12} {
			w := simulate.Workload{M: m, N: n,
				Opts: qr.Options{NB: nb, IB: 48, Tree: qr.HierarchicalTree, H: h}}
			r := simulate.Run(w, mach, simulate.SystolicProfile)
			fmt.Printf("  nb=%3d h=%2d: %8.0f GF (util %.2f)\n", nb, h, r.Gflops, r.Utilization)
		}
	}
	fmt.Println("-- boundary policy --")
	for _, bp := range []qr.BoundaryPolicy{qr.ShiftedBoundary, qr.FixedBoundary} {
		w := simulate.Workload{M: m, N: n,
			Opts: qr.Options{NB: 192, IB: 48, Tree: qr.HierarchicalTree, H: 12, Boundary: bp}}
		r := simulate.Run(w, mach, simulate.SystolicProfile)
		fmt.Printf("  %-8v: %8.0f GF\n", bp, r.Gflops)
	}
	fmt.Println("-- second-level (inter-domain) tree --")
	for _, it := range []qr.InterTree{qr.BinaryInter, qr.FlatInter} {
		w := simulate.Workload{M: m, N: n,
			Opts: qr.Options{NB: 192, IB: 48, Tree: qr.HierarchicalTree, H: 12, Inter: it}}
		r := simulate.Run(w, mach, simulate.SystolicProfile)
		fmt.Printf("  %-12v: %8.0f GF\n", it, r.Gflops)
	}
}

// kernelFlops tallies the floating-point work the tile algorithm actually
// performs — each kernel call of the listing, priced by the kernels.Flops*
// models. It exceeds the 2n²(m−n/3) Householder count of FlopsQR because
// the tree reduction redundantly re-triangularizes domain tops.
func kernelFlops(m, n, nb, ib int, tree qr.TreeKind, h int) float64 {
	mt, nt := (m+nb-1)/nb, (n+nb-1)/nb
	o := qr.Options{NB: nb, IB: ib, Tree: tree, H: h}.Resolve(mt, 1)
	var fl float64
	qr.List(mt, nt, 0, o, func(c qr.Call) { fl += c.Flops(m, n, nb) })
	return fl
}

// real runs small factorizations on this host's cores, cross-checking that
// the simulated tree ordering holds on real hardware for tall-skinny
// shapes. Each run reports two rates: "QR" prices the run at the classical
// 2n²(m−n/3) Householder count (comparable across algorithms), "kernel"
// at the flops the tile kernels actually executed (achieved kernel
// throughput). Each run also reports the traffic the transport layer moved
// between the runtime's nodes (zero when nodes == 1: everything is
// intra-node).
func real(nodes int, trFile string) {
	if nodes < 1 {
		nodes = 1
	}
	threads := runtime.GOMAXPROCS(0) / nodes
	if threads < 1 {
		threads = 1
	}
	m, n, nb, ib := 6144, 512, 128, 32
	fmt.Printf("Real runs on this host: m=%d n=%d nb=%d ib=%d nodes=%d threads=%d\n",
		m, n, nb, ib, nodes, threads)
	for _, tc := range []struct {
		name string
		tree pulsarqr.Tree
		h    int
	}{
		{"hierarchical", pulsarqr.Hierarchical, 6},
		{"binary", pulsarqr.Binary, 1},
		{"flat", pulsarqr.Flat, 1},
	} {
		a := pulsarqr.RandomMatrix(m, n, 7)
		var f *pulsarqr.Factorization
		var err error
		start := time.Now()
		if trFile != "" {
			f, err = factorTraced(a, qr.Options{NB: nb, IB: ib, Tree: tc.tree, H: tc.h},
				qr.RunConfig{Nodes: nodes, Threads: threads}, traceName(trFile, tc.name))
		} else {
			opts := pulsarqr.Options{NB: nb, IB: ib, Tree: tc.tree, H: tc.h,
				Nodes: nodes, Threads: threads}
			f, err = pulsarqr.Factor(a, opts)
		}
		if err != nil {
			log.Fatal(err)
		}
		el := time.Since(start)
		fmt.Printf("  %-13s %8.3fs  QR %7.3f Gflop/s  kernel %7.3f Gflop/s  residual %.2e  %6d msgs %9d bytes\n",
			tc.name, el.Seconds(), kernels.FlopsQR(m, n)/1e9/el.Seconds(),
			kernelFlops(m, n, nb, ib, tc.tree, tc.h)/1e9/el.Seconds(), f.Residual(a),
			f.Stats.Messages, f.Stats.Bytes)
	}
}

// traceName derives one run's shard path from the -trace base name:
// "out.jsonl" + "flat" -> "out-flat.jsonl".
func traceName(base, tree string) string {
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "-" + tree + ext
}

// factorTraced runs one factorization through the internal qr layer with a
// trace recorder installed and writes its shard as JSONL.
func factorTraced(a *pulsarqr.Matrix, o qr.Options, rc qr.RunConfig, path string) (*pulsarqr.Factorization, error) {
	rec := trace.NewRecorder()
	rc.FireHook = rec.Hook()
	rc.WaitHook = rec.WaitHook()
	rc.CommHook = rec.CommHook()
	f, err := qr.FactorizeVSA(matrix.FromDense(a, o.NB), nil, o, rc)
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
	fmt.Printf("  %-13s trace: %d events -> %s (dropped %d)\n", "", len(sh.Events), path, sh.Drops)
	return f, nil
}
