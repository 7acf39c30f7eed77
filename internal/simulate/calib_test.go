package simulate

import (
	"testing"

	"pulsarqr/internal/qr"
)

// TestCalibrationPrint is a diagnostic that prints the simulated numbers
// for the paper's figures; run with -v. Kept as documentation of the
// calibration and as a smoke test that the big graphs build and execute.
// Nothing here asserts, so without -v, with nobody to read the sweep, only
// the smallest point of each figure runs, on the hierarchical tree (the
// full sweep is two thirds of the repository's test time).
func TestCalibrationPrint(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	nb, ib, h := 192, 48, 12
	mkOpts := func(tree qr.TreeKind) qr.Options {
		return qr.Options{NB: nb, IB: ib, Tree: tree, H: h}
	}
	n := 4608
	fig10 := []int{23040, 92160, 184320, 368640, 737280}
	fig11 := []int{480, 1920, 3840, 7680, 15360}
	trees := []qr.TreeKind{qr.HierarchicalTree, qr.BinaryTree, qr.FlatTree}
	if !testing.Verbose() {
		fig10, fig11, trees = fig10[:1], fig11[:1], trees[:1]
	}

	t.Log("--- Fig 10: n=4608, 9216 cores (768 nodes x 12) ---")
	mach := Kraken(768)
	for _, m := range fig10 {
		for _, tree := range trees {
			r := Run(Workload{M: m, N: n, Opts: mkOpts(tree)}, mach, SystolicProfile)
			t.Logf("m=%7d %-13v %8.0f Gflop/s  (%.2fs, util %.2f, crit %.2fs, tasks %d)",
				m, tree, r.Gflops, r.Seconds, r.Utilization, r.CriticalPath, r.Tasks)
		}
	}

	t.Log("--- Fig 11: m=368640 n=4608, strong scaling ---")
	for _, cores := range fig11 {
		mach := Kraken(cores / 12)
		for _, tree := range trees {
			r := Run(Workload{M: 368640, N: n, Opts: mkOpts(tree)}, mach, SystolicProfile)
			t.Logf("cores=%5d %-13v %8.0f Gflop/s (%.2fs util %.2f)", cores, tree, r.Gflops, r.Seconds, r.Utilization)
		}
	}
	if !testing.Verbose() {
		return
	}

	t.Log("--- VI-A: baselines at 9216 cores, m=368640 ---")
	r := Run(Workload{M: 368640, N: n, Opts: mkOpts(qr.HierarchicalTree)}, mach, SystolicProfile)
	gGen := Run(Workload{M: 368640, N: n, Opts: mkOpts(qr.HierarchicalTree)}, mach, GenericProfile)
	sc := DefaultScaLAPACK().Gflops(mach, 368640, n)
	t.Logf("systolic %0.f  generic %.0f (%.1f%% slower)  scalapack-model %.0f (%.1fx slower)",
		r.Gflops, gGen.Gflops, 100*(r.Gflops-gGen.Gflops)/r.Gflops, sc, r.Gflops/sc)
}
