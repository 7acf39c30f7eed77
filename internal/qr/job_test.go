package qr

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/pulsar"
	"pulsarqr/internal/transport"
)

func randTiled(t *testing.T, m, n, nb int, seed int64) (*matrix.Tiled, *matrix.Mat) {
	t.Helper()
	d := matrix.NewRand(m, n, rand.New(rand.NewSource(seed)))
	return matrix.FromDense(d, nb), d
}

// serve runs FactorizeVSAIn the way a service rank does: the sketch of the
// rows the rank owns is taken first, then the run consumes the tiles.
func serve(ctx context.Context, a *matrix.Tiled, opts Options, rc RunConfig, ep transport.Endpoint, pool *pulsar.Pool) (*Factorization, error) {
	lo, hi := 0, a.MT
	if ep != nil {
		lo, hi = OwnedTileRows(a.MT, ep.Size(), ep.Rank())
	}
	return FactorizeVSAIn(ctx, a, nil, opts, rc, Env{Endpoint: ep, Pool: pool, Part: sketchOfTileRows(a, lo, hi, 1)})
}

// checkAgainstOracle factors the same dense input sequentially and compares
// R factors, then checks the residual — from the dense input and, for a
// served (R-only) result, from the reduced sketch too — and, when the
// reflectors were gathered, Q's orthogonality directly.
func checkAgainstOracle(t *testing.T, f *Factorization, d *matrix.Mat, opts Options) {
	t.Helper()
	want, err := Factorize(matrix.FromDense(d, opts.NB), nil, opts)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if diff := matrix.MaxAbsDiff(f.R(), want.R()); diff > 1e-12 {
		t.Errorf("R differs from sequential oracle by %g", diff)
	}
	if res := f.Residual(d); res > 1e-12 {
		t.Errorf("residual %g", res)
	}
	if f.ROnly {
		if res := f.Input.Residual(f.R()); res > 1e-12 {
			t.Errorf("residual against the reduced sketch %g", res)
		}
		return
	}
	q := f.Q()
	n := q.Cols
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			var dot float64
			for k := 0; k < q.Rows; k++ {
				dot += q.At(k, i) * q.At(k, j)
			}
			want := 0.0
			if i == j {
				want = 1.0
			}
			if diff := dot - want; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("Q^T Q [%d,%d] = %g, want %g", i, j, dot, want)
			}
		}
	}
}

func TestServeLocalPooled(t *testing.T) {
	pool := pulsar.NewPool(3, func(int) any { return kernels.NewWorkspace() })
	defer pool.Close()
	opts := Options{NB: 32, IB: 8, Tree: HierarchicalTree, H: 2}
	a, d := randTiled(t, 160, 96, 32, 1)
	f, err := serve(context.Background(), a, opts, RunConfig{}, nil, pool)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, f, d, opts)
}

// Concurrent jobs with distinct shapes and trees share one pool; each must
// match its own sequential oracle. Run under -race this also exercises the
// pool's cross-job scheduling.
func TestServeConcurrentJobsOracle(t *testing.T) {
	pool := pulsar.NewPool(4, func(int) any { return kernels.NewWorkspace() })
	defer pool.Close()
	type job struct {
		m, n, nb int
		tree     TreeKind
	}
	jobs := []job{
		{128, 64, 32, HierarchicalTree},
		{192, 96, 32, FlatTree},
		{160, 64, 32, BinaryTree},
		{96, 96, 32, HierarchicalTree},
		{256, 64, 64, FlatTree},
		{128, 32, 32, BinaryTree},
		{224, 96, 32, HierarchicalTree},
		{160, 160, 32, FlatTree},
	}
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			opts := Options{NB: j.nb, IB: 8, Tree: j.tree, H: 2}
			a, d := randTiled(t, j.m, j.n, j.nb, int64(100+i))
			f, err := serve(context.Background(), a, opts, RunConfig{}, nil, pool)
			if err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			checkAgainstOracle(t, f, d, opts)
		}(i, j)
	}
	wg.Wait()
}

func TestServeCancel(t *testing.T) {
	pool := pulsar.NewPool(1, func(int) any { return kernels.NewWorkspace() })
	defer pool.Close()
	opts := Options{NB: 32, IB: 8}
	a, _ := randTiled(t, 512, 256, 32, 3)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := serve(ctx, a, opts, RunConfig{DeadlockTimeout: -1}, nil, pool)
		errc <- err
	}()
	cancel()
	select {
	case err := <-errc:
		// Either the run aborted (cancellation error wrapping ctx's cause)
		// or it finished before observing the cancel; both are legal.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled run returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled run did not return")
	}
	// The pool still serves jobs after the cancellation.
	a2, d2 := randTiled(t, 96, 64, 32, 4)
	f, err := serve(context.Background(), a2, opts, RunConfig{}, nil, pool)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, f, d2, opts)
}

func TestServeCancelBeforeStart(t *testing.T) {
	pool := pulsar.NewPool(1, nil)
	defer pool.Close()
	opts := Options{NB: 32, IB: 8}
	a, _ := randTiled(t, 128, 64, 32, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := serve(ctx, a, opts, RunConfig{}, nil, pool); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled run returned %v, want context.Canceled", err)
	}
}

// Distributed serve jobs over a mux: two in-process ranks, two concurrent
// jobs sharing the rank's pool and the underlying local endpoints.
func TestServeDistMuxConcurrent(t *testing.T) {
	l := transport.NewLocal(2)
	m0 := transport.NewMux(l.Endpoint(0))
	m1 := transport.NewMux(l.Endpoint(1))
	defer m0.Close()
	defer m1.Close()
	pools := []*pulsar.Pool{
		pulsar.NewPool(2, func(int) any { return kernels.NewWorkspace() }),
		pulsar.NewPool(2, func(int) any { return kernels.NewWorkspace() }),
	}
	defer pools[0].Close()
	defer pools[1].Close()
	muxes := []*transport.Mux{m0, m1}

	type spec struct {
		job  uint32
		m, n int
		tree TreeKind
	}
	specs := []spec{
		{1, 160, 64, HierarchicalTree},
		{2, 128, 96, FlatTree},
	}
	var wg sync.WaitGroup
	for _, sp := range specs {
		for rank := 0; rank < 2; rank++ {
			wg.Add(1)
			go func(sp spec, rank int) {
				defer wg.Done()
				ep, err := muxes[rank].Open(sp.job)
				if err != nil {
					t.Errorf("job %d rank %d: open: %v", sp.job, rank, err)
					return
				}
				defer ep.Close()
				opts := Options{NB: 32, IB: 8, Tree: sp.tree, H: 2}
				a, d := randTiled(t, sp.m, sp.n, 32, int64(sp.job))
				f, err := serve(context.Background(), a, opts, RunConfig{}, ep, pools[rank])
				if err != nil {
					t.Errorf("job %d rank %d: %v", sp.job, rank, err)
					return
				}
				if rank == 0 {
					checkAgainstOracle(t, f, d, opts)
				} else if f != nil {
					t.Errorf("job %d rank %d: non-nil factorization on non-root", sp.job, rank)
				}
			}(sp, rank)
		}
	}
	wg.Wait()
}

// Full-log mesh cancellation: cancel on both ranks (as the launcher's
// process-group signal would) and expect prompt unwinding.
func TestDistCtxCancel(t *testing.T) {
	l := transport.NewLocal(2)
	ctx, cancel := context.WithCancel(context.Background())
	opts := Options{NB: 32, IB: 8}
	errc := make(chan error, 2)
	for rank := 0; rank < 2; rank++ {
		go func(rank int) {
			a, _ := randTiled(t, 512, 256, 32, 9)
			_, err := FactorizeVSAIn(ctx, a, nil, opts, RunConfig{Threads: 1, DeadlockTimeout: -1}, Env{Endpoint: l.Endpoint(rank)})
			errc <- err
		}(rank)
	}
	time.Sleep(5 * time.Millisecond)
	cancel()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errc:
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("rank returned %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("canceled distributed run did not return")
		}
	}
}

// One engine body runs in every environment, so the environment cannot show
// in the result: for each tree, FactorizeVSA on workers of its own, the same
// call on a caller's pool, on a mesh of one and on a 2-rank mesh return the
// same bits — tiles, transformation log and QᵀB — and the service's R-only
// form, on the pool and across 2 and 3 ranks, carries that same R, QᵀB and
// least-squares solution.
func TestEnvironmentsAgreeBitwise(t *testing.T) {
	pool := pulsar.NewPool(2, func(int) any { return kernels.NewWorkspace() })
	defer pool.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(19))
	for _, o := range allTreeOpts() {
		d, b := matrix.NewRand(61, 17, rng), matrix.NewRand(61, 3, rng)
		tiled := func() (*matrix.Tiled, *matrix.Tiled) { return matrix.FromDense(d, o.NB), matrix.FromDense(b, o.NB) }

		ta, tb := tiled()
		own, err := FactorizeVSA(ta, tb, o, RunConfig{Threads: 2})
		if err != nil {
			t.Fatalf("%v: %v", o, err)
		}

		ta, tb = tiled()
		onPool, err := FactorizeVSAIn(ctx, ta, tb, o, RunConfig{}, Env{Pool: pool})
		if err != nil {
			t.Fatalf("%v on a pool: %v", o, err)
		}
		assertFactorizationsEqual(t, own, onPool)

		// A mesh of one is no mesh: the run is local, and no barrier is held.
		ta, tb = tiled()
		alone := transport.NewLocal(1).Endpoint(0)
		single, err := FactorizeVSAIn(ctx, ta, tb, o, RunConfig{}, Env{Endpoint: alone, Pool: pool})
		if err != nil {
			t.Fatalf("%v on a mesh of one: %v", o, err)
		}
		assertFactorizationsEqual(t, own, single)
		if bs := alone.(transport.BarrierReporter).BarrierStats(); bs.Count != 0 {
			t.Errorf("%v: a mesh of one ran %d barriers", o, bs.Count)
		}

		assertServed := func(where string, served *Factorization) {
			t.Helper()
			if !served.ROnly || served.Input == nil || len(served.log) != 0 {
				t.Fatalf("%v %s: a Part must select the R-only result (ROnly %v, Input %v, %d log entries)", o, where, served.ROnly, served.Input, len(served.log))
			}
			if diff := matrix.MaxAbsDiff(served.R(), own.R()); diff != 0 {
				t.Errorf("%v %s: served R differs by %g", o, where, diff)
			}
			if diff := matrix.MaxAbsDiff(served.QTB.ToDense(), own.QTB.ToDense()); diff != 0 {
				t.Errorf("%v %s: served QᵀB differs by %g", o, where, diff)
			}
			if diff := matrix.MaxAbsDiff(served.SolveFromQTB(), own.SolveFromQTB()); diff != 0 {
				t.Errorf("%v %s: served least-squares solution differs by %g", o, where, diff)
			}
		}
		ta, tb = tiled()
		served, err := FactorizeVSAIn(ctx, ta, tb, o, RunConfig{}, Env{Pool: pool, Part: sketchOfTileRows(ta, 0, ta.MT, 1)})
		if err != nil {
			t.Fatalf("%v served: %v", o, err)
		}
		assertServed("on a pool", served)

		// Across a mesh: the full log on 2 ranks, and the R-only form on 2 and
		// 3 — where the QᵀB tiles cross the wire and the log entries, counted
		// in the same list of outputs, do not.
		for _, mc := range []struct {
			ranks int
			rOnly bool
		}{{2, false}, {2, true}, {3, true}} {
			l := transport.NewLocal(mc.ranks)
			mesh, errs := make([]*Factorization, mc.ranks), make([]error, mc.ranks)
			var wg sync.WaitGroup
			for r := range mesh {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ta, tb := tiled()
					env := Env{Endpoint: l.Endpoint(r)}
					if mc.rOnly {
						lo, hi := OwnedTileRows(ta.MT, mc.ranks, r)
						env.Part = sketchOfTileRows(ta, lo, hi, 1)
					}
					mesh[r], errs[r] = FactorizeVSAIn(ctx, ta, tb, o, RunConfig{Threads: 2}, env)
				}()
			}
			wg.Wait()
			where := fmt.Sprintf("on %d ranks", mc.ranks)
			for r := range mesh {
				if errs[r] != nil {
					t.Fatalf("%v %s: rank %d: %v", o, where, r, errs[r])
				}
				if r > 0 && mesh[r] != nil {
					t.Fatalf("%v %s: rank %d returned a factorization; only rank 0 assembles", o, where, r)
				}
			}
			if mc.rOnly {
				assertServed(where, mesh[0])
			} else {
				assertFactorizationsEqual(t, own, mesh[0])
			}
		}
	}
}
