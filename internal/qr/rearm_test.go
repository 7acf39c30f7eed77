package qr

// A service rank keeps each array it builds for an R-only run (Env.Part) and
// re-arms it for the next job of its key instead of building another. A
// re-armed array must compute, bit for bit, what a fresh build computes,
// whatever the last run left in its scratch, its landings and its channels.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/pulsar"
	"pulsarqr/internal/transport"
)

// TestRearmedArrayIsBitwiseFresh runs, on TestVSAShapePinned's shapes under
// every tree, on 1 to 3 nodes of 1 and 2 threads (one node on a caller's
// pool, as a service rank runs), a kept array through what a rank's life
// does to it, each time against the R and QᵀB of a fresh build:
//   - the first kept run builds the array and shelves it;
//   - with its scratch — T factors, R packets, landings, diagonal tiles —
//     poisoned with NaN, the next kept run re-arms that same array;
//   - a run of the array aborted after its first firing leaves packets in
//     its FIFOs; re-armed anyway, the array computes the same bits;
//   - a kept run canceled mid-run never gives its array back.
//
// The fleet case then runs a job over a two-rank loopback TCP mesh in which
// rank 0 re-arms the array of the job before and rank 1 builds its own, and
// the two must agree with the job before, bit for bit.
//
// Under the race detector every seventh tree runs (the binary, two
// hierarchical and the flat tree): it looks for a re-arm racing a sweep of
// the run before, which every tree exercises alike, and the full sweep would
// take it minutes per run.
func TestRearmedArrayIsBitwiseFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, sh := range []struct {
		name      string
		m, n, rhs int
		nb, ib    int
	}{
		{"tall", 160, 16, 0, 8, 4},
		{"ragged", 45, 13, 0, 8, 3},
		{"ragged with rhs", 45, 13, 11, 8, 3},
	} {
		d := matrix.NewRand(sh.m, sh.n, rng)
		var rhs *matrix.Mat
		if sh.rhs > 0 {
			rhs = matrix.NewRand(sh.m, sh.rhs, rng)
		}
		mt := (sh.m + sh.nb - 1) / sh.nb
		for k, o := range append(treeConfigs(sh.nb, sh.ib, mt), Options{NB: sh.nb, IB: sh.ib, Tree: FlatTree}) {
			if raceEnabled && k%7 != 0 {
				continue
			}
			for nodes := 1; nodes <= 3; nodes++ {
				for threads := 1; threads <= 2; threads++ {
					name := fmt.Sprintf("%s %v on %d nodes of %d threads", sh.name, o, nodes, threads)
					rearmLife(t, name, d, rhs, o, nodes, threads)
				}
			}
		}
	}
	t.Run("fleet", rearmOnFleet)
}

// rearmLife is TestRearmedArrayIsBitwiseFresh on one configuration: every
// node in this process, the R-only run a service makes.
func rearmLife(t *testing.T, name string, d, rhs *matrix.Mat, o Options, nodes, threads int) {
	t.Helper()
	var pool *pulsar.Pool
	if nodes == 1 {
		pool = pulsar.NewPool(threads, func(int) any { return kernels.NewWorkspace() })
		defer pool.Close()
	}
	tiles := func() (a, b *matrix.Tiled) {
		if rhs != nil {
			b = matrix.FromDense(rhs, o.NB)
		}
		return matrix.FromDense(d, o.NB), b
	}
	env := func(a *matrix.Tiled) Env {
		return Env{Pool: pool, Part: sketchOfTileRows(a, 0, a.MT, 1)}
	}
	run := func(ctx context.Context, rc RunConfig) (*Factorization, error) {
		a, b := tiles()
		return FactorizeVSAIn(ctx, a, b, o, rc, env(a))
	}
	rc := RunConfig{Nodes: nodes, Threads: threads}
	a, b := tiles()
	key := arrayKey{m: a.M, n: a.N, opts: o.Resolve(a.MT, nodes*threads), nodes: nodes, here: -1, threads: threads}
	if b != nil {
		key.nrhs = b.N
	}
	for _, ok := arrays.Take(key); ok; _, ok = arrays.Take(key) {
	}
	shelved := func(what string) *builder {
		t.Helper()
		bd, ok := arrays.Take(key)
		if !ok {
			t.Fatalf("%s: no array shelved after %s", name, what)
		}
		if other, ok := arrays.Take(key); ok {
			t.Fatalf("%s: a second array %p shelved after %s", name, other, what)
		}
		heldNothing(t, name+": "+what, bd)
		return bd
	}
	// The shelf is empty, so the reference run builds its array; never
	// released, the array stays the result's.
	fresh, err := run(context.Background(), rc)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if _, ok := arrays.Take(key); ok {
		t.Fatalf("%s: a run whose result was not released shelved its array", name)
	}
	same := func(what string, f *Factorization, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %s: %v", name, what, err)
		}
		sameR(t, name+": "+what, f, fresh)
		f.Release()
	}

	f, err := run(context.Background(), rc)
	same("the kept run that built its array", f, err)
	bd := shelved("the first kept run")

	for i := range bd.scratch {
		bd.scratch[i] = math.NaN()
	}
	arrays.Put(key, bd)
	f, err = run(context.Background(), rc)
	same("re-armed over poisoned scratch and landings", f, err)
	if got := shelved("a re-armed run"); got != bd {
		t.Fatalf("%s: the kept run built %p and did not re-arm %p", name, got, bd)
	}

	// An aborted run leaves the array mid-flight. Rearm must clear it, even
	// though no run of the rank ever re-arms an aborted array.
	var fired atomic.Int64
	abortRC := rc
	abortRC.FireHook = func(pulsar.FireEvent) {
		if fired.Add(1) == 1 {
			bd.s.Abort()
		}
	}
	bd.a, bd.b = tiles()
	bd.rc = abortRC
	bd.s.Rearm(bd.config(env(bd.a), nil))
	bd.inject(-1)
	if err := bd.s.Run(); !errors.Is(err, pulsar.ErrAborted) {
		t.Fatalf("%s: a run aborted at its first firing returned %v", name, err)
	}
	if queued(bd.s) == 0 {
		t.Fatalf("%s: the aborted run left no packet in a FIFO", name)
	}
	arrays.Put(key, bd)
	f, err = run(context.Background(), rc)
	same("re-armed after an aborted run", f, err)
	if got := shelved("a run re-armed after an abort"); got != bd {
		t.Fatalf("%s: the kept run built %p and did not re-arm %p", name, got, bd)
	}

	// The run takes the one shelved array, bd. The hook aborts it at once, as
	// the context's cancel would a moment later.
	arrays.Put(key, bd)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelRC := rc
	cancelRC.FireHook = func(pulsar.FireEvent) {
		cancel()
		bd.s.Abort()
	}
	if _, err := run(ctx, cancelRC); err == nil {
		t.Fatalf("%s: a kept run canceled at its first firing succeeded", name)
	}
	if got, ok := arrays.Take(key); ok {
		t.Fatalf("%s: a canceled run gave its array %p back (it ran on %p)", name, got, bd)
	}
}

// heldNothing demands that a shelved array hold nothing of its last run:
// not its tiles or hooks, and no packet in a FIFO or a collector.
func heldNothing(t *testing.T, what string, bd *builder) {
	t.Helper()
	if bd.a != nil || bd.b != nil || bd.rc.FireHook != nil || bd.rc.CommHook != nil {
		t.Fatalf("%s: the shelved array holds its run's tiles or hooks", what)
	}
	n := queued(bd.s)
	for _, o := range bd.outputs {
		n += len(bd.s.Collected(o.from.tup, o.from.slot))
	}
	if n != 0 {
		t.Fatalf("%s: the shelved array holds %d packets of its run", what, n)
	}
}

// queued counts the packets waiting in s's VDPs' input FIFOs.
func queued(s *pulsar.VSA) (n int) {
	inputLen := func(v *pulsar.VDP, slot int) (n int) {
		defer func() { recover() }() // an unconnected slot
		return v.InputLen(slot)
	}
	for _, v := range s.VDPs() {
		for slot := 0; slot < 3; slot++ {
			n += inputLen(v, slot)
		}
	}
	return n
}

// sameR demands that f's R, and QᵀB when it has one, equal want's bit for
// bit.
func sameR(t *testing.T, what string, f, want *Factorization) {
	t.Helper()
	if !sameBits(f.R(), want.R()) {
		t.Fatalf("%s: R differs from a fresh build's", what)
	}
	if (f.QTB == nil) != (want.QTB == nil) || f.QTB != nil && !sameBits(f.QTB.ToDense(), want.QTB.ToDense()) {
		t.Fatalf("%s: QᵀB differs from a fresh build's", what)
	}
}

// sameBits reports whether a and b hold the same bits.
func sameBits(a, b *matrix.Mat) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for j := 0; j < a.Cols; j++ {
		for i := 0; i < a.Rows; i++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// rearmOnFleet runs two jobs of one key over a two-rank loopback TCP mesh,
// each rank on a pool of its own, as a service fleet does. Both ranks shelve
// their arrays after the first; rank 0 re-arms its own for the second, and
// rank 1's is taken off the shelf in between, so rank 1 builds its array
// afresh. The second job's R must be the first's, bit for bit.
func rearmOnFleet(t *testing.T) {
	eps, err := transport.DialLoopback(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	var pools [2]*pulsar.Pool
	for r := range pools {
		pools[r] = pulsar.NewPool(1, func(int) any { return kernels.NewWorkspace() })
		defer pools[r].Close()
	}
	d := matrix.NewSeeded(200, 24, 7)
	o := Options{NB: 8, IB: 4}
	whole := matrix.FromDense(d, o.NB)
	ro := o.Resolve(whole.MT, 2)
	var keys [2]arrayKey
	for r := range keys {
		keys[r] = arrayKey{m: d.Rows, n: d.Cols, opts: ro, nodes: 2, here: r, threads: 1}
		for _, ok := arrays.Take(keys[r]); ok; _, ok = arrays.Take(keys[r]) {
		}
	}
	job := func() *Factorization {
		var f *Factorization
		var errs [2]error
		var wg sync.WaitGroup
		for r := range eps {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				lo, hi := OwnedTileRows(whole.MT, 2, r)
				a := ownedOnly(whole, lo, hi)
				env := Env{Endpoint: eps[r], Pool: pools[r], Part: sketchOfTileRows(a, lo, hi, 1)}
				got, err := FactorizeVSAIn(context.Background(), a, nil, o, RunConfig{Threads: 1}, env)
				if r == 0 {
					f = got
				}
				errs[r] = err
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
		return f
	}

	first := job()
	want := first.R()
	first.Release()
	kept, ok := arrays.Take(keys[0])
	if !ok {
		t.Fatal("rank 0 did not shelve its array")
	}
	heldNothing(t, "rank 0 after the first job", kept)
	arrays.Put(keys[0], kept)
	dropped, ok := arrays.Take(keys[1])
	if !ok {
		t.Fatal("rank 1 did not shelve its array")
	}
	heldNothing(t, "rank 1 after the first job", dropped)

	second := job()
	if !sameBits(second.R(), want) {
		t.Fatal("R of a re-armed rank 0 and a fresh rank 1 differs from the job before's")
	}
	second.Release()
	if got, ok := arrays.Take(keys[0]); !ok || got != kept {
		t.Fatalf("rank 0 ran on %p, not on its re-armed array %p", got, kept)
	}
	if got, ok := arrays.Take(keys[1]); !ok || got == dropped {
		t.Fatalf("rank 1 shelved %p, not the array it built afresh (the first job's was %p)", got, dropped)
	}
}
