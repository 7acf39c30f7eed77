package sim_test

import (
	"testing"

	"pulsarqr"
	"pulsarqr/sim"
)

func TestPublicSimRun(t *testing.T) {
	mach := sim.Kraken(16)
	opts := pulsarqr.Options{NB: 192, IB: 48, Tree: pulsarqr.Hierarchical, H: 6}
	r := sim.Run(192*96, 192*8, opts, mach, sim.Systolic)
	if r.Gflops <= 0 || r.Seconds <= 0 || r.Tasks == 0 {
		t.Fatalf("bad result: %+v", r)
	}
	if r.Utilization <= 0 || r.Utilization > 1 {
		t.Fatalf("utilization %v", r.Utilization)
	}
}

func TestPublicSimProfilesOrdered(t *testing.T) {
	mach := sim.Kraken(16)
	opts := pulsarqr.Options{NB: 192, IB: 48, Tree: pulsarqr.Hierarchical, H: 6}
	sys := sim.Run(192*96, 192*8, opts, mach, sim.Systolic)
	gen := sim.Run(192*96, 192*8, opts, mach, sim.Generic)
	if gen.Gflops >= sys.Gflops {
		t.Fatalf("generic (%v) should be slower than systolic (%v)", gen.Gflops, sys.Gflops)
	}
}

func TestPublicSimTreeOptionsRespected(t *testing.T) {
	mach := sim.Kraken(64)
	mk := func(tree pulsarqr.Tree, inter pulsarqr.InterTree) float64 {
		opts := pulsarqr.Options{NB: 192, IB: 48, Tree: tree, H: 12, Inter: inter}
		return sim.Run(192*240, 192*10, opts, mach, sim.Systolic).Gflops
	}
	hier := mk(pulsarqr.Hierarchical, pulsarqr.BinaryInter)
	flatInter := mk(pulsarqr.Hierarchical, pulsarqr.FlatInter)
	flat := mk(pulsarqr.Flat, pulsarqr.BinaryInter)
	if !(hier > flatInter && flatInter > flat) {
		t.Fatalf("expected hier (%0.f) > flat-inter (%.0f) > flat (%.0f)", hier, flatInter, flat)
	}
}

func TestPublicScaLAPACKModel(t *testing.T) {
	mach := sim.Kraken(64)
	s := sim.DefaultScaLAPACK()
	if g := s.Gflops(mach, 192*240, 192*10); g <= 0 {
		t.Fatalf("scalapack model rate %v", g)
	}
}

// Fig. 10's second point, 92160×4608 on its 9216 cores: the smallest of the
// Fig. 10/11 points at which hierarchical wins (at 23040 rows flat does), a
// quarter of the task graph of Fig. 11's 368640 rows.
func TestAutotunePicksHierarchicalAtScale(t *testing.T) {
	mach := sim.Kraken(768)
	opts, res := sim.Autotune(92160, 4608, mach)
	if opts.Tree != pulsarqr.Hierarchical {
		t.Fatalf("autotune picked %v; the paper's regime favors hierarchical", opts.Tree)
	}
	if res.Gflops <= 0 {
		t.Fatalf("bad result %+v", res)
	}
	// The winner must beat the flat tree it rejected.
	flat := sim.Run(92160, 4608, pulsarqr.Options{NB: opts.NB, IB: opts.IB, Tree: pulsarqr.Flat},
		mach, sim.Systolic)
	if res.Gflops <= flat.Gflops {
		t.Fatal("autotune winner does not beat flat")
	}
}

func TestLocalHostMachine(t *testing.T) {
	m := sim.LocalHost(2, 4)
	if m.Workers() != 3 || m.TotalCores() != 8 {
		t.Fatalf("localhost accounting: %d workers %d cores", m.Workers(), m.TotalCores())
	}
}
