package pulsarqr

// The benchmark harness regenerates every figure of the paper's evaluation
// (§VI) and the ablations DESIGN.md calls out. Large-scale numbers come
// from the discrete-event simulator on the calibrated Cray XT5 model
// (Kraken); real-hardware cross-checks run the actual systolic runtime on
// this host. Custom metrics carry the quantities the paper plots:
// Gflop/s per configuration, overlap percentages, and baseline ratios.
//
//	go test -bench=Fig10 .        # paper Figure 10
//	go test -bench=Fig11 .        # paper Figure 11
//	go test -bench=Fig7 .         # paper Figure 7
//	go test -bench=SectionVIA .   # §VI-A baseline comparison
//	go test -bench=Ablation .     # nb/h/scheduling ablations
//	go test -bench=Real .         # real runs on this host
//	make profile-factor           # CPU profile of the factor_* workloads' op

import (
	"fmt"
	"testing"

	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/pulsar"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/simulate"
	"pulsarqr/internal/trace"
)

// simBench runs one simulated configuration and reports its rate.
func simBench(b *testing.B, m, n int, o qr.Options, mach simulate.Machine, p simulate.Profile) simulate.Result {
	b.Helper()
	var r simulate.Result
	for i := 0; i < b.N; i++ {
		r = simulate.Run(simulate.Workload{M: m, N: n, Opts: o}, mach, p)
	}
	b.ReportMetric(r.Gflops, "Gflop/s")
	b.ReportMetric(r.Seconds, "model-s")
	b.ReportMetric(r.Utilization*100, "util-%")
	return r
}

// BenchmarkFig10AsymptoticScaling regenerates paper Figure 10: Gflop/s of
// the three reduction trees at n = 4608 on 9216 cores while the row count
// grows from 23K to 737K.
func BenchmarkFig10AsymptoticScaling(b *testing.B) {
	mach := simulate.Kraken(768) // 9216 cores
	n := 4608
	for _, m := range []int{23040, 92160, 184320, 368640, 737280} {
		for _, tree := range []qr.TreeKind{qr.HierarchicalTree, qr.BinaryTree, qr.FlatTree} {
			o := qr.Options{NB: 192, IB: 48, Tree: tree, H: 12}
			b.Run(fmt.Sprintf("m=%d/%v", m, tree), func(b *testing.B) {
				simBench(b, m, n, o, mach, simulate.SystolicProfile)
			})
		}
	}
}

// BenchmarkFig11StrongScaling regenerates paper Figure 11: strong scaling
// of the three trees at m×n = 368640×4608 from 480 to 15360 cores.
func BenchmarkFig11StrongScaling(b *testing.B) {
	m, n := 368640, 4608
	for _, cores := range []int{480, 1920, 3840, 7680, 15360} {
		mach := simulate.Kraken(cores / 12)
		for _, tree := range []qr.TreeKind{qr.HierarchicalTree, qr.BinaryTree, qr.FlatTree} {
			o := qr.Options{NB: 192, IB: 48, Tree: tree, H: 12}
			b.Run(fmt.Sprintf("cores=%d/%v", cores, tree), func(b *testing.B) {
				simBench(b, m, n, o, mach, simulate.SystolicProfile)
			})
		}
	}
}

// BenchmarkFig7DomainOverlap regenerates paper Figure 7 quantitatively:
// real systolic runs on this host with fixed versus shifted domain
// boundaries, reporting the fraction of the makespan during which work of
// two or more panels overlaps (the pipelining the shifted policy buys).
func BenchmarkFig7DomainOverlap(b *testing.B) {
	threads := benchWorkers()
	for _, bp := range []qr.BoundaryPolicy{qr.FixedBoundary, qr.ShiftedBoundary} {
		b.Run(bp.String(), func(b *testing.B) {
			var overlap, util float64
			for i := 0; i < b.N; i++ {
				rec := trace.NewRecorder()
				a := matrix.FromDense(RandomMatrix(3072, 384, 17), 64)
				o := qr.Options{NB: 64, IB: 16, Tree: qr.HierarchicalTree, H: 4, Boundary: bp}
				rc := qr.RunConfig{Nodes: 1, Threads: threads, FireHook: rec.Hook()}
				if _, err := qr.FactorizeVSA(a, nil, o, rc); err != nil {
					b.Fatal(err)
				}
				tl := trace.Build(rec.Events())
				overlap = 100 * tl.PanelOverlap(nil)
				util = 100 * tl.Utilization()
			}
			b.ReportMetric(overlap, "overlap-%")
			b.ReportMetric(util, "util-%")
		})
	}
}

// BenchmarkSectionVIABaselines regenerates the §VI-A comparison: the tree
// QR against the ScaLAPACK/LibSci analytic model (paper: ≥3× slower) and
// against a generic task-superscalar runtime profile (paper: ≥10 % slower
// in strong scaling).
func BenchmarkSectionVIABaselines(b *testing.B) {
	m, n := 368640, 4608
	o := qr.Options{NB: 192, IB: 48, Tree: qr.HierarchicalTree, H: 12}
	for _, cores := range []int{480, 1920, 7680} {
		mach := simulate.Kraken(cores / 12)
		b.Run(fmt.Sprintf("cores=%d/systolic", cores), func(b *testing.B) {
			r := simBench(b, m, n, o, mach, simulate.SystolicProfile)
			sc := simulate.DefaultScaLAPACK().Gflops(mach, m, n)
			b.ReportMetric(r.Gflops/sc, "vs-scalapack-x")
		})
		b.Run(fmt.Sprintf("cores=%d/generic-runtime", cores), func(b *testing.B) {
			rg := simBench(b, m, n, o, mach, simulate.GenericProfile)
			rs := simulate.Run(simulate.Workload{M: m, N: n, Opts: o}, mach, simulate.SystolicProfile)
			b.ReportMetric(100*(rs.Gflops-rg.Gflops)/rs.Gflops, "gap-%")
		})
		b.Run(fmt.Sprintf("cores=%d/scalapack-model", cores), func(b *testing.B) {
			var gf float64
			for i := 0; i < b.N; i++ {
				gf = simulate.DefaultScaLAPACK().Gflops(mach, m, n)
			}
			b.ReportMetric(gf, "Gflop/s")
		})
	}
}

// BenchmarkWeakScaling runs the weak-scaling regime §II motivates (fixed
// rows per core, growing machine): m = 48·cores at n = 4608 sweeps the
// same matrix sizes as Figure 10. The paper reports generic runtimes lose
// ≥20 % here; the gap-% metric tracks our modeled equivalent.
func BenchmarkWeakScaling(b *testing.B) {
	n := 4608
	o := qr.Options{NB: 192, IB: 48, Tree: qr.HierarchicalTree, H: 12}
	for _, cores := range []int{480, 1920, 7680, 15360} {
		m := 48 * cores
		mach := simulate.Kraken(cores / 12)
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			r := simBench(b, m, n, o, mach, simulate.SystolicProfile)
			g := simulate.Run(simulate.Workload{M: m, N: n, Opts: o}, mach, simulate.GenericProfile)
			b.ReportMetric(r.Gflops/float64(mach.TotalCores()), "Gflop/s/core")
			b.ReportMetric(100*(r.Gflops-g.Gflops)/r.Gflops, "generic-gap-%")
		})
	}
}

// BenchmarkDominoVsFlat3D checks the paper's §VI claim that the 3D array's
// flat-tree configuration performs equivalently to the original 2D domino
// design (the extra binary-tree hand-off hop is insignificant).
func BenchmarkDominoVsFlat3D(b *testing.B) {
	threads := benchWorkers()
	m, n := 4096, 256
	run := func(b *testing.B, f func(*matrix.Tiled) (*qr.Factorization, error)) {
		var gf float64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			a := matrix.FromDense(RandomMatrix(m, n, 29), 128)
			b.StartTimer()
			start := testingClock()
			if _, err := f(a); err != nil {
				b.Fatal(err)
			}
			gf = kernels.FlopsQR(m, n) / 1e9 / secondsSince(start)
		}
		b.ReportMetric(gf, "Gflop/s")
	}
	o := qr.Options{NB: 128, IB: 32, Tree: qr.FlatTree}
	rc := qr.RunConfig{Nodes: 1, Threads: threads}
	b.Run("domino-2d", func(b *testing.B) {
		run(b, func(a *matrix.Tiled) (*qr.Factorization, error) {
			return qr.FactorizeDomino(a, nil, o, rc)
		})
	})
	b.Run("flat-3d", func(b *testing.B) {
		run(b, func(a *matrix.Tiled) (*qr.Factorization, error) {
			return qr.FactorizeVSA(a, nil, o, rc)
		})
	})
}

// BenchmarkAblationParameters sweeps the paper's tunables (§VI: nb ∈
// {192, 240}, h ∈ {6, 12}) on the simulated machine.
func BenchmarkAblationParameters(b *testing.B) {
	mach := simulate.Kraken(640)
	m, n := 368640, 4608
	for _, nb := range []int{192, 240} {
		for _, h := range []int{6, 12} {
			o := qr.Options{NB: nb, IB: 48, Tree: qr.HierarchicalTree, H: h}
			b.Run(fmt.Sprintf("nb=%d/h=%d", nb, h), func(b *testing.B) {
				simBench(b, m, n, o, mach, simulate.SystolicProfile)
			})
		}
	}
}

// BenchmarkAblationInterTree compares second-level reduction trees over
// the domain tops: the paper's binary tree versus a flat chain. The flat
// chain serializes the merges, reverting much of the hierarchical tree's
// advantage — the reason the paper picks binary-on-flat.
func BenchmarkAblationInterTree(b *testing.B) {
	mach := simulate.Kraken(640)
	m, n := 368640, 4608
	for _, it := range []qr.InterTree{qr.BinaryInter, qr.FlatInter} {
		o := qr.Options{NB: 192, IB: 48, Tree: qr.HierarchicalTree, H: 12, Inter: it}
		b.Run(it.String(), func(b *testing.B) {
			simBench(b, m, n, o, mach, simulate.SystolicProfile)
		})
	}
}

// BenchmarkAblationScheduling compares the lazy and aggressive worker
// schemes on real runs (§V-D: lazy utilizes cores better through
// lookahead).
func BenchmarkAblationScheduling(b *testing.B) {
	threads := benchWorkers()
	for _, sched := range []pulsar.Scheduling{pulsar.Lazy, pulsar.Aggressive} {
		b.Run(sched.String(), func(b *testing.B) {
			var gf float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a := matrix.FromDense(RandomMatrix(3072, 384, 5), 64)
				o := qr.Options{NB: 64, IB: 16, Tree: qr.HierarchicalTree, H: 4}
				rc := qr.RunConfig{Nodes: 1, Threads: threads, Scheduling: sched}
				b.StartTimer()
				start := testingClock()
				if _, err := qr.FactorizeVSA(a, nil, o, rc); err != nil {
					b.Fatal(err)
				}
				gf = kernels.FlopsQR(3072, 384) / 1e9 / secondsSince(start)
			}
			b.ReportMetric(gf, "Gflop/s")
		})
	}
}

// BenchmarkRealTreeComparison cross-checks the headline ordering on real
// hardware: the three trees factor the same tall-skinny matrix on this
// host's cores through the actual systolic runtime.
func BenchmarkRealTreeComparison(b *testing.B) {
	threads := benchWorkers()
	m, n := 6144, 384
	for _, tc := range []struct {
		name string
		tree qr.TreeKind
		h    int
	}{
		{"hierarchical", qr.HierarchicalTree, 6},
		{"binary", qr.BinaryTree, 1},
		{"flat", qr.FlatTree, 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var gf float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				o := qr.DefaultOptions()
				o.Tree, o.H = tc.tree, tc.h
				a := matrix.FromDense(RandomMatrix(m, n, 23), o.NB)
				rc := qr.RunConfig{Nodes: 1, Threads: threads}
				b.StartTimer()
				start := testingClock()
				if _, err := qr.FactorizeVSA(a, nil, o, rc); err != nil {
					b.Fatal(err)
				}
				gf = kernels.FlopsQR(m, n) / 1e9 / secondsSince(start)
			}
			b.ReportMetric(gf, "Gflop/s")
		})
	}
}

// BenchmarkEngines compares the three execution engines through the public
// API on identical inputs.
func BenchmarkEngines(b *testing.B) {
	threads := benchWorkers()
	for _, e := range []Engine{Sequential, Systolic, TaskSuperscalar} {
		b.Run(e.String(), func(b *testing.B) {
			a := RandomMatrix(4096, 256, 3)
			opts := DefaultOptions()
			opts.Engine, opts.Threads = e, threads
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Factor(a, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFactor is the op of the stack benchmark's factor_tall and
// factor_square workloads and nothing else — pulsarqr.Factor at
// DefaultOptions on one node and two threads, then R() — so that `make
// profile-factor` profiles what those workloads time.
func BenchmarkFactor(b *testing.B) {
	for _, tc := range []struct {
		name string
		m, n int
	}{
		{"tall", 8192, 256},
		{"square", 2048, 1024},
	} {
		b.Run(tc.name, func(b *testing.B) {
			a := RandomMatrix(tc.m, tc.n, 1)
			opts := DefaultOptions()
			opts.Nodes, opts.Threads = 1, 2
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := Factor(a, opts)
				if err != nil {
					b.Fatal(err)
				}
				sinkR = f.R()
			}
			b.ReportMetric(kernels.FlopsQR(tc.m, tc.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
		})
	}
}

var sinkR *Matrix
