package simulate

import (
	"testing"

	"pulsarqr/internal/qr"
)

func wl(m, n int, tree qr.TreeKind, nb, ib, h int) Workload {
	return Workload{M: m, N: n, Opts: qr.Options{NB: nb, IB: ib, Tree: tree, H: h}}
}

// smallMachine keeps unit tests fast.
func smallMachine(nodes int) Machine {
	m := Kraken(nodes)
	return m
}

func TestRunBasicSanity(t *testing.T) {
	m := smallMachine(2)
	r := Run(wl(96*20, 96, qr.HierarchicalTree, 96, 24, 4), m, SystolicProfile)
	if r.Seconds <= 0 || r.Gflops <= 0 {
		t.Fatalf("nonpositive result: %+v", r)
	}
	if r.Utilization <= 0 || r.Utilization > 1 {
		t.Fatalf("utilization %v out of range", r.Utilization)
	}
	if r.Seconds < r.CriticalPath {
		t.Fatalf("makespan %v below critical path %v", r.Seconds, r.CriticalPath)
	}
	if r.Tasks == 0 || r.Messages == 0 {
		t.Fatalf("empty graph stats: %+v", r)
	}
}

func TestTaskCountMatchesPlan(t *testing.T) {
	nb := 32
	mt, nt := 12, 3
	w := wl(nb*mt, nb*nt, qr.HierarchicalTree, nb, 8, 4)
	m := smallMachine(1)
	g := buildGraph(w, m)
	want := 0
	qr.List(mt, nt, 0, w.Opts.Resolve(mt, 1), func(c qr.Call) {
		if c.Kernel != qr.WriteBack {
			want++
		}
	})
	if len(g.tasks) != want {
		t.Fatalf("graph has %d tasks, the listing %d kernel calls", len(g.tasks), want)
	}
}

func TestDeterminism(t *testing.T) {
	w := wl(96*30, 96*3, qr.BinaryTree, 96, 24, 1)
	m := smallMachine(3)
	a := Run(w, m, SystolicProfile)
	b := Run(w, m, SystolicProfile)
	if a.Seconds != b.Seconds || a.Gflops != b.Gflops {
		t.Fatalf("simulation not deterministic: %v vs %v", a.Seconds, b.Seconds)
	}
}

func TestTreeOrderingTallSkinny(t *testing.T) {
	// The paper's headline (Fig. 10/11): for tall-skinny matrices at
	// scale, hierarchical > binary > flat.
	m := Kraken(128) // 1536 cores
	nb, ib := 192, 48
	hier := Run(wl(192*960, 192*12, qr.HierarchicalTree, nb, ib, 12), m, SystolicProfile)
	bin := Run(wl(192*960, 192*12, qr.BinaryTree, nb, ib, 1), m, SystolicProfile)
	flat := Run(wl(192*960, 192*12, qr.FlatTree, nb, ib, 1), m, SystolicProfile)
	if !(hier.Gflops > bin.Gflops && bin.Gflops > flat.Gflops) {
		t.Fatalf("ordering violated: hier=%.0f bin=%.0f flat=%.0f",
			hier.Gflops, bin.Gflops, flat.Gflops)
	}
	if hier.Gflops < 2*flat.Gflops {
		t.Fatalf("hierarchical should beat flat by a wide margin: %.0f vs %.0f",
			hier.Gflops, flat.Gflops)
	}
}

func TestAsymptoticScalingShape(t *testing.T) {
	// Fig. 10 shape: hierarchical Gflop/s grows with m at fixed n and
	// cores; flat saturates early.
	m := Kraken(64)
	nb, ib := 192, 48
	n := 192 * 8
	var prev float64
	var flatRates []float64
	for _, rows := range []int{192 * 60, 192 * 240, 192 * 480} {
		h := Run(wl(rows, n, qr.HierarchicalTree, nb, ib, 12), m, SystolicProfile)
		if h.Gflops <= prev {
			t.Fatalf("hierarchical rate not growing with m: %v after %v", h.Gflops, prev)
		}
		prev = h.Gflops
		f := Run(wl(rows, n, qr.FlatTree, nb, ib, 1), m, SystolicProfile)
		flatRates = append(flatRates, f.Gflops)
	}
	// Flat must grow far slower between the last two points.
	if flatRates[2] > 1.5*flatRates[1] {
		t.Fatalf("flat tree should saturate: %v", flatRates)
	}
}

func TestStrongScalingShape(t *testing.T) {
	// Fig. 11 shape: hierarchical keeps gaining with cores; flat stalls.
	nb, ib := 192, 48
	w := wl(192*960, 192*12, qr.HierarchicalTree, nb, ib, 12)
	fw := wl(192*960, 192*12, qr.FlatTree, nb, ib, 1)
	var hier, flat []float64
	for _, nodes := range []int{20, 80, 320} {
		m := Kraken(nodes)
		hier = append(hier, Run(w, m, SystolicProfile).Gflops)
		flat = append(flat, Run(fw, m, SystolicProfile).Gflops)
	}
	if !(hier[2] > hier[1] && hier[1] > hier[0]) {
		t.Fatalf("hierarchical strong scaling broken: %v", hier)
	}
	if hier[2]/hier[0] < 2 {
		t.Fatalf("hierarchical speedup too small: %v", hier)
	}
	// Flat saturates: no meaningful gain over the last 4x core increase.
	if flat[2] > 1.2*flat[1] {
		t.Fatalf("flat tree should saturate: %v", flat)
	}
	// And the hierarchical advantage widens with cores.
	if hier[2]/flat[2] < 1.5*(hier[0]/flat[0]) {
		t.Fatalf("hierarchical advantage should widen: hier=%v flat=%v", hier, flat)
	}
}

func TestGenericRuntimeSlower(t *testing.T) {
	m := Kraken(40)
	w := wl(192*480, 192*12, qr.HierarchicalTree, 192, 48, 12)
	sys := Run(w, m, SystolicProfile)
	gen := Run(w, m, GenericProfile)
	if gen.Gflops >= sys.Gflops {
		t.Fatalf("generic runtime should be slower: %v vs %v", gen.Gflops, sys.Gflops)
	}
	if gap := (sys.Gflops - gen.Gflops) / sys.Gflops; gap < 0.05 {
		t.Fatalf("generic gap only %.1f%%; paper reports >=10%%", 100*gap)
	}
}

func TestScaLAPACKModelRatio(t *testing.T) {
	// §VI-A: tree-based QR at least 3× faster than ScaLAPACK/LibSci.
	m := Kraken(640)
	w := wl(368640, 4608, qr.HierarchicalTree, 192, 48, 12)
	tree := Run(w, m, SystolicProfile)
	scal := DefaultScaLAPACK().Gflops(m, 368640, 4608)
	if ratio := tree.Gflops / scal; ratio < 3 {
		t.Fatalf("tree/scalapack ratio %.2f below the paper's >=3", ratio)
	}
}

func TestShiftedBeatsFixedBoundary(t *testing.T) {
	// Fig. 7: shifting domain boundaries overlaps consecutive flat-tree
	// reductions, so the shifted policy must not be slower.
	m := Kraken(32)
	nb, ib := 192, 48
	sh := Workload{M: 192 * 240, N: 192 * 8,
		Opts: qr.Options{NB: nb, IB: ib, Tree: qr.HierarchicalTree, H: 8, Boundary: qr.ShiftedBoundary}}
	fx := sh
	fx.Opts.Boundary = qr.FixedBoundary
	rs := Run(sh, m, SystolicProfile)
	rf := Run(fx, m, SystolicProfile)
	if rs.Seconds > rf.Seconds*1.02 {
		t.Fatalf("shifted (%.3fs) should not lose to fixed (%.3fs)", rs.Seconds, rf.Seconds)
	}
}

func TestMachineHelpers(t *testing.T) {
	m := Kraken(2)
	if m.Workers() != 11 || m.TotalCores() != 24 {
		t.Fatalf("kraken node accounting wrong: %d workers %d cores", m.Workers(), m.TotalCores())
	}
	if m.transfer(true, 1<<20) >= m.transfer(false, 1<<20) {
		t.Fatal("intra-node transfer should be cheaper")
	}
	if m.taskTime(m.kernelGflops(192, 24)[qr.Tsmqr], 1e9) <= 0 {
		t.Fatal("task time must be positive")
	}
	l := LocalHost(1, 4)
	if l.Workers() != 3 {
		t.Fatalf("localhost workers %d", l.Workers())
	}
}

func TestCriticalPathLowerBoundTight(t *testing.T) {
	// With a single worker the makespan must be at least the sum of all
	// task durations (no parallelism to hide anything).
	m := smallMachine(1)
	m.CoresPerNode = 2 // one worker
	w := wl(64*6, 64*2, qr.HierarchicalTree, 64, 16, 2)
	g := buildGraph(w, m)
	var sum float64
	for i := range g.tasks {
		sum += g.tasks[i].dur
	}
	r := g.execute(true, w)
	if r.Seconds < sum {
		t.Fatalf("single worker makespan %v below serial work %v", r.Seconds, sum)
	}
}

func TestScaLAPACKModelScalesWithCores(t *testing.T) {
	s := DefaultScaLAPACK()
	t1 := s.Time(Kraken(40), 368640, 4608)
	t2 := s.Time(Kraken(160), 368640, 4608)
	if t2 >= t1 {
		t.Fatal("model should speed up with cores")
	}
	if t1/t2 > 4 {
		t.Fatalf("model scales too perfectly (%.1fx on 4x cores): the panel bottleneck is missing", t1/t2)
	}
}
