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

// There is one definition of the default configuration — qr.DefaultOptions
// — and one rule for an unset h — qr.Options.Resolve, one flat-tree domain
// per worker: h = max(1, ⌈mt/W⌉). Every path that fills an unset field goes
// through them: the library (public and internal, every engine), the
// service's planJob (whose resolved spec is what the fleet receives), the
// planner's baseline candidate, and the two CLIs that take -nb/-ib/-h (every
// rank of a launched mesh is one of them). Ranks of one fleet, and a client
// and its server, must not be able to disagree on what "default" means: for
// one shape and one worker count, every path resolves the same nb, ib and h,
// and an explicit h passes through every path unchanged.
func TestOneDefaultTileConfiguration(t *testing.T) {
	def := qr.DefaultOptions()
	if def.NB < 1 || def.IB < 1 || def.IB > def.NB || def.H != 0 {
		t.Fatalf("qr.DefaultOptions() = %v, want a tile and h=0 (one domain per worker)", def)
	}
	if pub := DefaultOptions(); pub.NB != def.NB || pub.IB != def.IB || pub.H != def.H {
		t.Fatalf("pulsarqr.DefaultOptions() = %+v, qr's %v", pub, def)
	}
	// 10 tile rows over 4 workers: h = 3. An explicit h of 5 is neither the
	// derived one nor the old constant.
	const w, derivedH, explicitH = 4, 3, 5
	m, n := 9*def.NB+5, 40
	type cfg = tileConfig

	paths := func(h int) map[string]cfg {
		got := map[string]cfg{}
		o := qr.Options{H: h}.Resolve((m+def.NB-1)/def.NB, w)
		got["qr.Options.Resolve"] = cfg{o.NB, o.IB, o.H}

		a := RandomMatrix(m, n, 1)
		for _, e := range []Engine{Systolic, TaskSuperscalar, Sequential} {
			f, err := Factor(a, Options{H: h, Engine: e, Nodes: 2, Threads: w / 2})
			if err != nil {
				t.Fatal(err)
			}
			got["pulsarqr.Factor "+e.String()] = cfg{f.Opts.NB, f.Opts.IB, f.Opts.H}
		}

		f, err := qr.FactorizeVSA(matrix.FromDense(a, def.NB), nil, qr.Options{H: h}, qr.RunConfig{Nodes: 1, Threads: w})
		if err != nil {
			t.Fatal(err)
		}
		got["qr.FactorizeVSA"] = cfg{f.Opts.NB, f.Opts.IB, f.Opts.H}
		f, err = qr.FactorizeQuark(matrix.FromDense(a, def.NB), nil, qr.Options{H: h}, w)
		if err != nil {
			t.Fatal(err)
		}
		got["qr.FactorizeQuark"] = cfg{f.Opts.NB, f.Opts.IB, f.Opts.H}

		got["service planJob"] = serviceResolves(t, m, n, h, w)

		if h == 0 {
			// The default candidate: 2 nodes × (3 cores − 1 proxy) workers.
			d, err := plan.Decide(plan.Spec{M: m, N: n}, simulate.LocalHost(2, 3), plan.Config{})
			if err != nil {
				t.Fatal(err)
			}
			po := d.Default.Options()
			got["plan default candidate"] = cfg{po.NB, po.IB, d.Default.H}
		} else {
			po := plan.Candidate{Tree: "hierarchical", H: h}.Options()
			got["plan candidate"] = cfg{po.NB, po.IB, po.H}
		}

		if !testing.Short() {
			// The CLIs print the options they ran.
			for cmd, args := range map[string][]string{
				"qrfactor": {"-engine", "sequential", "-nodes", "2", "-threads", strconv.Itoa(w / 2)},
				"qrtrace":  {"-threads", strconv.Itoa(w), "-width", "10"},
			} {
				args = append(args, "-m", strconv.Itoa(m), "-n", strconv.Itoa(n))
				if h > 0 {
					args = append(args, "-h", strconv.Itoa(h))
				}
				out, err := exec.Command("go", append([]string{"run", "./cmd/" + cmd}, args...)...).CombinedOutput()
				mm := regexp.MustCompile(`options\s+tree=hierarchical nb=(\d+) ib=(\d+) h=(\d+)`).FindSubmatch(out)
				if err != nil || mm == nil {
					t.Fatalf("%s %v: %v, no options line:\n%s", cmd, args, err, out)
				}
				atoi := func(b []byte) int { v, _ := strconv.Atoi(string(b)); return v }
				got[cmd+" flags"] = cfg{atoi(mm[1]), atoi(mm[2]), atoi(mm[3])}
			}
		}
		return got
	}

	for _, h := range []int{0, explicitH} {
		want := cfg{def.NB, def.IB, explicitH}
		if h == 0 {
			want.h = derivedH
		}
		for name, c := range paths(h) {
			if c != want {
				t.Errorf("h=%d, %s: nb=%d ib=%d h=%d, want %d/%d/%d", h, name, c.nb, c.ib, c.h, want.nb, want.ib, want.h)
			}
		}
	}
}

type tileConfig struct{ nb, ib, h int }

// serviceResolves runs an m×n job with h (0: omitted) on a one-rank server
// of w threads and reports the configuration it ran: R is compared bit for
// bit with the library's at each candidate h, and must match exactly one.
func serviceResolves(t *testing.T, m, n, h, w int) (c tileConfig) {
	t.Helper()
	s, err := service.NewServer(service.Config{Threads: w})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := service.JobSpec{M: m, N: n, H: h, Seed: 7}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	res := j.Result()
	if res == nil || !res.OK {
		t.Fatalf("service job: %+v", res)
	}
	_, dense, err := spec.BuildInputs()
	if err != nil {
		t.Fatal(err)
	}
	c.h = -1
	def := qr.DefaultOptions()
	mt := (m + def.NB - 1) / def.NB
	for hh := 1; hh <= mt; hh++ {
		f, err := Factor(dense, Options{H: hh, Threads: w})
		if err != nil {
			t.Fatal(err)
		}
		if matrix.MaxAbsDiff(f.R(), res.R) == 0 {
			if c.h >= 0 {
				t.Fatalf("service R matches the library's at h=%d and at h=%d: R does not tell h apart", c.h, hh)
			}
			c = tileConfig{f.Opts.NB, f.Opts.IB, hh}
		}
	}
	return c
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
