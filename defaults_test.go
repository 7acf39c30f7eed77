package pulsarqr

import (
	"os/exec"
	"regexp"
	"strconv"
	"testing"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/plan"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/service"
	"pulsarqr/internal/simulate"
)

// There is one definition of the default tile configuration —
// qr.DefaultOptions — and every path that fills an unset field reads it from
// there: the library (public and internal), the service's JobSpec, the
// planner's baseline candidate, and the flag defaults of the two CLIs that
// take -nb/-ib/-h (every rank of a launched mesh is one of them). Ranks of one
// fleet, and a client and its server, must not be able to disagree on what
// "default" means.
func TestOneDefaultTileConfiguration(t *testing.T) {
	def := qr.DefaultOptions()
	if def.NB < 1 || def.IB < 1 || def.IB > def.NB || def.H < 1 {
		t.Fatalf("qr.DefaultOptions() = %v", def)
	}
	type cfg struct{ nb, ib, h int }
	want := cfg{def.NB, def.IB, def.H}
	got := map[string]cfg{}

	// qr.Options{}.normalize(), observed through what a factorization run
	// with zero options records.
	a := matrix.FromDense(RandomMatrix(2*def.NB+5, 7, 1), def.NB)
	f, err := qr.Factorize(a, nil, qr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got["qr.Options{}.normalize()"] = cfg{f.Opts.NB, f.Opts.IB, f.Opts.H}

	pub := DefaultOptions()
	got["pulsarqr.DefaultOptions()"] = cfg{pub.NB, pub.IB, pub.H}

	// pulsarqr.Factor with everything unset.
	pf, err := Factor(RandomMatrix(def.NB+3, 5, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got["pulsarqr.Factor(Options{})"] = cfg{pf.Opts.NB, pf.Opts.IB, pf.Opts.H}

	js, err := (&service.JobSpec{M: 8, N: 8}).Options()
	if err != nil {
		t.Fatal(err)
	}
	got["service.JobSpec{}.Options()"] = cfg{js.NB, js.IB, js.H}

	d, err := plan.Decide(plan.Spec{M: 4 * def.NB, N: def.NB}, simulate.LocalHost(1, 2), plan.Config{})
	if err != nil {
		t.Fatal(err)
	}
	po := d.Default.Options()
	got["plan default candidate"] = cfg{po.NB, po.IB, d.Default.H}
	po = d.Choice.Options()
	got["plan choice tile"] = cfg{po.NB, po.IB, want.h}

	if !testing.Short() {
		// The CLIs print their flag defaults in -help ("(default 192)").
		for _, cmd := range []string{"qrfactor", "qrtrace"} {
			out, _ := exec.Command("go", "run", "./cmd/"+cmd, "-help").CombinedOutput() // -help exits 0 or 2 by Go version
			flagDefault := func(name string) int {
				m := regexp.MustCompile(`(?s)\n\s+-` + name + ` int\n[^\n]*\(default (\d+)\)`).FindSubmatch(out)
				if m == nil {
					t.Fatalf("%s -help shows no default for -%s:\n%s", cmd, name, out)
				}
				v, _ := strconv.Atoi(string(m[1]))
				return v
			}
			got[cmd+" flag defaults"] = cfg{flagDefault("nb"), flagDefault("ib"), flagDefault("h")}
		}
	}

	for name, c := range got {
		if c != want {
			t.Errorf("%s: nb=%d ib=%d h=%d, want %d/%d/%d", name, c.nb, c.ib, c.h, want.nb, want.ib, want.h)
		}
	}
}

// All four engines run the same kernel sequence, so they agree element for
// element — at the default tile too, on the shapes where a 192-wide tile is
// awkward: n not a multiple of nb, m below one tile, one more row than
// columns, a single column, a single tile row; for all three trees.
func TestEnginesAgreeAtDefaultTileOnRaggedShapes(t *testing.T) {
	def := qr.DefaultOptions()
	nb := def.NB
	shapes := [][2]int{
		{3*nb + 17, nb + 41}, // ragged both ways
		{nb - 30, 50},        // m < nb: one ragged tile
		{nb + 70, nb + 69},   // m = n+1
		{2*nb + 9, 1},        // n = 1
		{nb, nb},             // exactly one tile
		{nb, 33},             // one tile row
		{5 * nb, 2*nb + 1},   // a one-column last tile
	}
	for _, sh := range shapes {
		m, n := sh[0], sh[1]
		a := RandomMatrix(m, n, int64(m+n))
		for _, tree := range []Tree{Hierarchical, Flat, Binary} {
			opts := DefaultOptions()
			opts.Tree, opts.Threads = tree, 2
			opts.Engine = Sequential
			ref, err := Factor(a, opts)
			if err != nil {
				t.Fatalf("%dx%d %v sequential: %v", m, n, tree, err)
			}
			if res := ref.Residual(a); !(res < 1e-13) {
				t.Errorf("%dx%d %v: residual %g", m, n, tree, res)
			}
			engines := []Engine{Systolic, TaskSuperscalar}
			if tree == Flat {
				engines = append(engines, Domino) // flat-tree only by construction
			}
			for _, e := range engines {
				opts.Engine = e
				f, err := Factor(a, opts)
				if err != nil {
					t.Fatalf("%dx%d %v %v: %v", m, n, tree, e, err)
				}
				if d := matrix.MaxAbsDiff(f.R(), ref.R()); d != 0 {
					t.Errorf("%dx%d %v: %v differs from sequential by %g", m, n, tree, e, d)
				}
			}
		}
	}
}
