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

// Fig. 10's second point, 92160×4608 on its 9216 cores, at the paper's tile
// (nb 192, ib 48) and h 12: the smallest of the Fig. 10/11 points at which
// the paper's ordering hierarchical > binary > flat holds (at 23040 rows flat
// wins), a quarter of the task graph of Fig. 11's 368640 rows.
func TestFig10OrderingAtScale(t *testing.T) {
	mach := sim.Kraken(768)
	run := func(tree pulsarqr.Tree) float64 {
		opts := pulsarqr.Options{NB: 192, IB: 48, Tree: tree, H: 12}
		return sim.Run(92160, 4608, opts, mach, sim.Systolic).Gflops
	}
	hier, binary, flat := run(pulsarqr.Hierarchical), run(pulsarqr.Binary), run(pulsarqr.Flat)
	if !(hier > binary && binary > flat) {
		t.Fatalf("want hierarchical (%.0f) > binary (%.0f) > flat (%.0f) Gflop/s", hier, binary, flat)
	}
}

func TestLocalHostMachine(t *testing.T) {
	m := sim.LocalHost(2, 4)
	if m.Workers() != 3 || m.TotalCores() != 8 {
		t.Fatalf("localhost accounting: %d workers %d cores", m.Workers(), m.TotalCores())
	}
}
