package session

import (
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"pulsarqr/internal/batch"
	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/pulsar"
	"pulsarqr/internal/qr"
)

// feedBlocks returns a next() function yielding the given blocks/rhs pairs.
func feedBlocks(blocks, rhs []*matrix.Mat) func() (*matrix.Mat, *matrix.Mat, error) {
	i := 0
	return func() (*matrix.Mat, *matrix.Mat, error) {
		if i >= len(blocks) {
			return nil, nil, io.EOF
		}
		b := blocks[i]
		var r *matrix.Mat
		if rhs != nil {
			r = rhs[i]
		}
		i++
		return b, r, nil
	}
}

// testPool is a two-worker pool with a kernel workspace per worker, closed
// when the test ends: what a table's append streams run on.
func testPool(t *testing.T) *pulsar.Pool {
	t.Helper()
	p := pulsar.NewPool(2, func(int) any { return kernels.NewWorkspace() })
	t.Cleanup(p.Close)
	return p
}

func genBlocks(rng *rand.Rand, count, n int) []*matrix.Mat {
	out := make([]*matrix.Mat, count)
	for i := range out {
		m := 4 + rng.Intn(40)
		if i == 0 {
			m = n + rng.Intn(40) // full rank from the first fold
		}
		out[i] = matrix.NewRand(m, n, rng)
	}
	return out
}

func cloneAll(ms []*matrix.Mat) []*matrix.Mat {
	out := make([]*matrix.Mat, len(ms))
	for i, m := range ms {
		out[i] = m.Clone()
	}
	return out
}

// finite finds a NaN or ±Inf wherever it sits: in the four-wide body of a
// column, in its ragged tail, and in a strided view, whose rows outside the
// view it must not read.
func TestFiniteFindsEveryNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, rows := range []int{1, 3, 4, 7, 16} {
		if m := matrix.NewRand(rows, 3, rng); !finite(m) {
			t.Fatalf("%dx3 random block read as non-finite", rows)
		}
		for at := 0; at < rows*3; at++ {
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				m := matrix.NewRand(rows, 3, rng)
				m.Data[at] = v
				if finite(m) {
					t.Fatalf("%dx3 block with %v at %d read as finite", rows, v, at)
				}
			}
		}
	}
	big := matrix.NewRand(9, 4, rng)
	big.Set(8, 1, math.NaN()) // below the view
	if v := big.View(1, 1, 6, 3); !finite(v) {
		t.Fatal("a view read a NaN outside its rows")
	}
	big.Set(6, 2, math.Inf(-1))
	if finite(big.View(1, 1, 6, 3)) {
		t.Fatal("a view missed its own -Inf")
	}
}

func TestTableLimits(t *testing.T) {
	tbl, err := NewTable(Config{Pool: testPool(t), MaxSessions: 3, MaxPerTenant: 2, IdleTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	var opts qr.Options
	a1, err := tbl.Open("a", 4, 0, opts, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Open("a", 4, 0, opts, 0, false); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Open("a", 4, 0, opts, 0, false); !errors.Is(err, ErrTenantFull) {
		t.Fatalf("tenant overflow: %v", err)
	}
	if _, err := tbl.Open("b", 4, 0, opts, 0, false); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Open("c", 4, 0, opts, 0, false); !errors.Is(err, ErrTableFull) {
		t.Fatalf("table overflow: %v", err)
	}
	// Deleting frees both the table slot and the tenant slot.
	if err := tbl.Delete(a1.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Open("a", 4, 0, opts, 0, false); err != nil {
		t.Fatalf("after delete: %v", err)
	}
	if _, err := tbl.Get(a1.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted session found: %v", err)
	}
	if _, err := tbl.Open("bad tenant!", 4, 0, opts, 0, false); err == nil {
		t.Fatal("hostile tenant name admitted")
	}
}

// TestAppendStreamMatchesFactorize streams blocks through a table (with a
// live pool, so the pipelined path runs) and checks the final R against a
// from-scratch factorization of the stacked rows.
func TestAppendStreamMatchesFactorize(t *testing.T) {
	pool := pulsar.NewPool(3, func(int) any { return kernels.NewWorkspace() })
	defer pool.Close()
	tbl, err := NewTable(Config{Pool: pool, IdleTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	rng := rand.New(rand.NewSource(77))
	n := 13
	blocks := genBlocks(rng, 9, n)
	orig := cloneAll(blocks)
	s, err := tbl.Open("t", n, 0, qr.Options{NB: 16, IB: 4}, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	var got *matrix.Mat
	var updates int64
	committed, err := s.AppendStream(context.Background(), feedBlocks(blocks, nil),
		func(bl, rows int64, cur *qr.StreamNode) error {
			updates++
			got = cur.R.Clone()
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if committed != int64(len(blocks)) || updates != committed {
		t.Fatalf("committed %d, updates %d", committed, updates)
	}
	want := refR(t, orig, n)
	compareR(t, got, want)
}

// refR stacks blocks and factorizes from scratch.
func refR(t *testing.T, blocks []*matrix.Mat, n int) *matrix.Mat {
	t.Helper()
	rows := 0
	for _, b := range blocks {
		rows += b.Rows
	}
	a := matrix.New(rows, n)
	at := 0
	for _, b := range blocks {
		a.View(at, 0, b.Rows, n).CopyFrom(b)
		at += b.Rows
	}
	f, err := qr.Factorize(matrix.FromDense(a, 16), nil, qr.Options{NB: 16, IB: 4})
	if err != nil {
		t.Fatal(err)
	}
	return f.R()
}

// compareR canonicalizes row signs (diag ≥ 0, the batch path's rule) and
// compares elementwise.
func compareR(t *testing.T, got, want *matrix.Mat) {
	t.Helper()
	g, w := got.Clone(), want.Clone()
	batch.Canonicalize(g)
	batch.Canonicalize(w)
	scale := w.MaxAbs() + 1
	if d := matrix.MaxAbsDiff(g, w); d > 1e-10*scale {
		t.Fatalf("R mismatch: %g (scale %g)", d, scale)
	}
}

// TestAppendStreamBusy proves a second concurrent stream is refused.
func TestAppendStreamBusy(t *testing.T) {
	tbl, err := NewTable(Config{Pool: testPool(t), IdleTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	s, err := tbl.Open("t", 4, 0, qr.Options{}, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		first := true
		_, err := s.AppendStream(context.Background(), func() (*matrix.Mat, *matrix.Mat, error) {
			if first {
				first = false
				return matrix.NewRand(6, 4, rng), nil, nil
			}
			close(started)
			<-release
			return nil, nil, io.EOF
		}, func(int64, int64, *qr.StreamNode) error { return nil })
		done <- err
	}()
	<-started
	if _, err := s.AppendStream(context.Background(), feedBlocks(nil, nil),
		func(int64, int64, *qr.StreamNode) error { return nil }); !errors.Is(err, ErrBusy) {
		t.Fatalf("concurrent stream: %v", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestDurableRestart writes a session through one table, closes it, and
// proves a fresh table over the same directory restores the session and
// that continued appends land bitwise where an uninterrupted run lands.
func TestDurableRestart(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(31))
	n, nrhs := 9, 2
	blocks := genBlocks(rng, 8, n)
	rhs := make([]*matrix.Mat, len(blocks))
	for i, b := range blocks {
		rhs[i] = matrix.NewRand(b.Rows, nrhs, rng)
	}
	cut := 5

	// Uninterrupted run for the bitwise oracle.
	oracleTbl, err := NewTable(Config{Pool: testPool(t), IdleTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	so, err := oracleTbl.Open("t", n, nrhs, qr.Options{NB: 8, IB: 4}, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := so.AppendStream(context.Background(), feedBlocks(cloneAll(blocks), cloneAll(rhs)),
		func(int64, int64, *qr.StreamNode) error { return nil }); err != nil {
		t.Fatal(err)
	}
	oracle, err := so.Current()
	if err != nil {
		t.Fatal(err)
	}
	oracleTbl.Close()

	// Interrupted run: first cut appends, then close (simulating restart —
	// checkpoint cadence 1 means even kill -9 only loses uncommitted work).
	var ckpts atomic.Int64
	tbl1, err := NewTable(Config{Pool: testPool(t), Dir: dir, IdleTimeout: -1,
		OnCheckpoint: func(int64) { ckpts.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := tbl1.Open("t", n, nrhs, qr.Options{NB: 8, IB: 4}, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	id := s1.ID
	if _, err := s1.AppendStream(context.Background(), feedBlocks(cloneAll(blocks[:cut]), cloneAll(rhs[:cut])),
		func(int64, int64, *qr.StreamNode) error { return nil }); err != nil {
		t.Fatal(err)
	}
	tbl1.Close()
	if got := ckpts.Load(); got < int64(cut) {
		t.Fatalf("expected ≥%d checkpoints, saw %d", cut, got)
	}

	// Fresh table over the same dir: the session must reappear unloaded...
	var restores atomic.Int64
	tbl2, err := NewTable(Config{Pool: testPool(t), Dir: dir, IdleTimeout: -1,
		OnRestore: func() { restores.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl2.Close()
	s2, err := tbl2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if in := s2.Info(); in.Loaded || in.Blocks != int64(cut) {
		t.Fatalf("restored info %+v", in)
	}
	// ...and replaying the remaining appends must land bitwise on the oracle.
	if _, err := s2.AppendStream(context.Background(), feedBlocks(cloneAll(blocks[cut:]), cloneAll(rhs[cut:])),
		func(int64, int64, *qr.StreamNode) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if restores.Load() != 1 {
		t.Fatalf("restores = %d", restores.Load())
	}
	got, err := s2.Current()
	if err != nil {
		t.Fatal(err)
	}
	if got.Blocks != oracle.Blocks || got.Rows != oracle.Rows {
		t.Fatalf("totals %d/%d vs %d/%d", got.Blocks, got.Rows, oracle.Blocks, oracle.Rows)
	}
	if d := matrix.MaxAbsDiff(got.R, oracle.R); d != 0 {
		t.Fatalf("restored R differs from uninterrupted run by %g (want bitwise equality)", d)
	}
	if d := matrix.MaxAbsDiff(got.QTB, oracle.QTB); d != 0 {
		t.Fatalf("restored QTB differs by %g", d)
	}
}

// A checkpoint carries the blocking its session was opened with, and a
// restore runs at that blocking, not at whatever this build defaults to:
// every session checkpointed before the default tile changed stored nb=64,
// ib=16, and must continue bitwise-equal to an uninterrupted stream at 64/16
// under a build whose default is something else.
func TestRestoreKeepsCheckpointedBlockingAcrossDefaultChange(t *testing.T) {
	old := qr.Options{NB: 64, IB: 16}
	if def := qr.DefaultOptions(); def.NB == old.NB && def.IB == old.IB {
		t.Fatalf("the default tile is %d/%d again; pick another pre-upgrade blocking for this test", def.NB, def.IB)
	}
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(37))
	const n, cut = 64, 3
	var blocks []*matrix.Mat
	for _, rows := range []int{64, 150, 64, 70, 64, 200} { // more than one 64-row chunk in some
		blocks = append(blocks, matrix.NewRand(rows, n, rng))
	}
	discard := func(int64, int64, *qr.StreamNode) error { return nil }

	// The oracle: a local stream at 64/16 that never stops.
	str, err := qr.NewStreamer(n, 0, old)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range cloneAll(blocks) {
		nd, err := str.LeafReduce(nil, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		str.Commit(nil, nd)
	}
	oracle := str.Current(nil, nil)

	tbl1, err := NewTable(Config{Pool: testPool(t), Dir: dir, IdleTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := tbl1.Open("t", n, 0, old, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	id := s1.ID
	if _, err := s1.AppendStream(context.Background(), feedBlocks(cloneAll(blocks[:cut]), nil), discard); err != nil {
		t.Fatal(err)
	}
	tbl1.Close()

	tbl2, err := NewTable(Config{Pool: testPool(t), Dir: dir, IdleTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl2.Close()
	s2, err := tbl2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Opts.NB != old.NB || s2.Opts.IB != old.IB {
		t.Fatalf("restored session runs at nb=%d ib=%d, want the checkpointed %d/%d", s2.Opts.NB, s2.Opts.IB, old.NB, old.IB)
	}
	if _, err := s2.AppendStream(context.Background(), feedBlocks(cloneAll(blocks[cut:]), nil), discard); err != nil {
		t.Fatal(err)
	}
	got, err := s2.Current()
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(got.R, oracle.R); d != 0 {
		t.Fatalf("restored stream differs from an uninterrupted one at %d/%d by %g (want bitwise equality)", old.NB, old.IB, d)
	}

	// A session opened now, with nothing specified, takes the new default.
	s3, err := tbl2.Open("t", n, 0, qr.Options{}, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if def := qr.DefaultOptions(); s3.Opts.NB != def.NB || s3.Opts.IB != min(def.IB, def.NB) {
		t.Errorf("a new session runs at nb=%d ib=%d, want the default %d/%d", s3.Opts.NB, s3.Opts.IB, def.NB, def.IB)
	}
}

// TestIdleUnloadAndEvict drives the sweep directly: durable sessions unload
// (and survive), memory-only sessions are deleted.
func TestIdleUnloadAndEvict(t *testing.T) {
	dir := t.TempDir()
	var evicts atomic.Int64
	durable, err := NewTable(Config{Pool: testPool(t), Dir: dir, IdleTimeout: 50 * time.Millisecond,
		OnEvict: func() { evicts.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	s, err := durable.Open("t", 5, 0, qr.Options{}, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	durable.sweep(time.Now().Add(time.Minute))
	if in := s.Info(); in.Loaded {
		t.Fatal("idle durable session still loaded")
	}
	if evicts.Load() != 1 {
		t.Fatalf("evicts = %d", evicts.Load())
	}
	if _, err := s.Current(); err != nil { // lazy reload works
		t.Fatal(err)
	}

	mem, err := NewTable(Config{Pool: testPool(t), IdleTimeout: 50 * time.Millisecond,
		OnEvict: func() { evicts.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	m, err := mem.Open("t", 5, 0, qr.Options{}, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	mem.sweep(time.Now().Add(time.Minute))
	if _, err := mem.Get(m.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("idle memory-only session survived: %v", err)
	}
}

// TestDeleteMidAppend proves an in-flight stream observes the tombstone.
func TestDeleteMidAppend(t *testing.T) {
	dir := t.TempDir()
	tbl, err := NewTable(Config{Pool: testPool(t), Dir: dir, IdleTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	s, err := tbl.Open("t", 4, 0, qr.Options{}, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	sent := 0
	_, err = s.AppendStream(context.Background(), func() (*matrix.Mat, *matrix.Mat, error) {
		if sent == 1 {
			if err := tbl.Delete(s.ID); err != nil {
				t.Error(err)
			}
		}
		if sent >= 4 {
			return nil, nil, io.EOF
		}
		sent++
		return matrix.NewRand(5, 4, rng), nil, nil
	}, func(int64, int64, *qr.StreamNode) error { return nil })
	if !errors.Is(err, ErrGone) {
		t.Fatalf("stream after delete: %v", err)
	}
	if _, err := os.Stat(CheckpointPath(dir, s.ID)); !os.IsNotExist(err) {
		t.Fatalf("checkpoint survived delete: %v", err)
	}
}

// interactiveNext models a client that sends block k+1 only after it has
// seen update k (seen), and whose source fails once the stream's caller has
// returned (quit) — the way a request body does when its handler is done.
func interactiveNext(rng *rand.Rand, n int, seen, quit <-chan struct{}) func() (*matrix.Mat, *matrix.Mat, error) {
	first := true
	return func() (*matrix.Mat, *matrix.Mat, error) {
		if !first {
			select {
			case <-seen:
			case <-quit:
				return nil, nil, io.ErrClosedPipe
			}
		}
		first = false
		return matrix.NewRand(n+2, n, rng), nil, nil
	}
}

// TestAbortedInteractiveStreamReturns aborts an interactive append stream —
// by a checkpoint write failure, and by a Delete between updates — and
// requires AppendStream to return at once, not wait for a reader blocked on
// a block the client will send only after an update that never comes.
func TestAbortedInteractiveStreamReturns(t *testing.T) {
	for _, tc := range []struct {
		name   string
		setup  func(t *testing.T, dir string)
		update func(tbl *Table, s *Session, blocks int64)
		want   func(error) bool
	}{
		{
			name: "checkpoint failure",
			setup: func(t *testing.T, dir string) {
				if err := os.RemoveAll(dir); err != nil {
					t.Fatal(err)
				}
			},
			want: func(err error) bool { return err != nil && !errors.Is(err, ErrGone) },
		},
		{
			name: "delete",
			update: func(tbl *Table, s *Session, blocks int64) {
				if blocks == 1 {
					tbl.Delete(s.ID)
				}
			},
			want: func(err error) bool { return errors.Is(err, ErrGone) },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir() + "/ckpt"
			tbl, err := NewTable(Config{Pool: testPool(t), Dir: dir, IdleTimeout: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer tbl.Close()
			const n = 6
			s, err := tbl.Open("t", n, 0, qr.Options{}, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			if tc.setup != nil {
				tc.setup(t, dir)
			}
			seen := make(chan struct{}, 1)
			quit := make(chan struct{})
			defer close(quit)
			done := make(chan error, 1)
			go func() {
				_, err := s.AppendStream(context.Background(), interactiveNext(rand.New(rand.NewSource(9)), n, seen, quit),
					func(blocks, _ int64, _ *qr.StreamNode) error {
						if tc.update != nil {
							tc.update(tbl, s, blocks)
						}
						seen <- struct{}{}
						return nil
					})
				done <- err
			}()
			select {
			case err := <-done:
				if !tc.want(err) {
					t.Fatalf("aborted stream returned %v", err)
				}
			case <-time.After(time.Second):
				t.Fatal("aborted append stream did not return within 1s")
			}
		})
	}
}

// TestCurrentBetweenAppendsFiresNoMerge reads a session's state after an
// append stream: the fold is already current, so no merge fires, and the
// state is bitwise the last R the stream emitted.
func TestCurrentBetweenAppendsFiresNoMerge(t *testing.T) {
	tbl, err := NewTable(Config{Pool: testPool(t), IdleTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	rng := rand.New(rand.NewSource(13))
	const n = 10
	s, err := tbl.Open("t", n, 0, qr.Options{NB: 8, IB: 4}, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	var merges atomic.Int64
	s.str.Hook = func(class string) {
		if class == "ttqrt" {
			merges.Add(1)
		}
	}
	for _, count := range []int{7, 6} { // spines of depth 3, then 2
		var last *matrix.Mat
		if _, err := s.AppendStream(context.Background(), feedBlocks(genBlocks(rng, count, n), nil),
			func(_, _ int64, cur *qr.StreamNode) error {
				last = cur.R.Clone()
				return nil
			}); err != nil {
			t.Fatal(err)
		}
		before := merges.Load()
		got, err := s.Current()
		if err != nil {
			t.Fatal(err)
		}
		if fired := merges.Load() - before; fired != 0 {
			t.Fatalf("Current between appends fired %d merges, want 0", fired)
		}
		if d := matrix.MaxAbsDiff(got.R, last); d != 0 {
			t.Fatalf("Current differs from the last emitted R by %g (want bitwise equality)", d)
		}
	}
}

// TestBootScanSkipsGarbage drops junk files into the checkpoint dir and
// proves NewTable registers only the valid session.
func TestBootScanSkipsGarbage(t *testing.T) {
	dir := t.TempDir()
	tbl, err := NewTable(Config{Pool: testPool(t), Dir: dir, IdleTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := tbl.Open("t", 6, 0, qr.Options{}, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	tbl.Close()
	os.WriteFile(dir+"/garbage.qsc", []byte("QSC1 but not really"), 0o644)
	os.WriteFile(dir+"/notes.txt", []byte("ignore me"), 0o644)
	tbl2, err := NewTable(Config{Pool: testPool(t), Dir: dir, IdleTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl2.Close()
	st := tbl2.Stats()
	if st.Sessions != 1 {
		t.Fatalf("sessions after scan = %d", st.Sessions)
	}
	if _, err := tbl2.Get(s.ID); err != nil {
		t.Fatal(err)
	}
}
