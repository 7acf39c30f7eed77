package qr

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
)

// stackDense stacks row blocks into one dense matrix.
func stackDense(blocks []*matrix.Mat, n int) *matrix.Mat {
	rows := 0
	for _, b := range blocks {
		rows += b.Rows
	}
	d := matrix.New(rows, n)
	r := 0
	for _, b := range blocks {
		d.View(r, 0, b.Rows, n).CopyFrom(b)
		r += b.Rows
	}
	return d
}

// canonR flips the sign of every row of r (and the matching row of q, when
// non-nil) whose diagonal entry is negative, making the R factor of a
// full-rank matrix unique.
func canonR(r, q *matrix.Mat) {
	for i := 0; i < r.Rows && i < r.Cols; i++ {
		if r.At(i, i) < 0 {
			for j := 0; j < r.Cols; j++ {
				r.Set(i, j, -r.At(i, j))
			}
			if q != nil {
				for j := 0; j < q.Cols; j++ {
					q.Set(i, j, -q.At(i, j))
				}
			}
		}
	}
}

// streamAll drives a streamer over the blocks sequentially and returns the
// folded current state.
func streamAll(t *testing.T, s *Streamer, ws *kernels.Workspace, blocks, rhs []*matrix.Mat) *StreamNode {
	t.Helper()
	for i, b := range blocks {
		var rb *matrix.Mat
		if rhs != nil {
			rb = rhs[i]
		}
		nd, err := s.LeafReduce(ws, b.Clone(), cloneOrNil(rb))
		if err != nil {
			t.Fatalf("LeafReduce block %d: %v", i, err)
		}
		s.Commit(ws, nd)
	}
	return s.Current(ws, nil)
}

func cloneOrNil(m *matrix.Mat) *matrix.Mat {
	if m == nil {
		return nil
	}
	return m.Clone()
}

// TestStreamMatchesFactorize streams randomly sized row blocks (including
// blocks shorter than n) and checks the folded R against a from-scratch
// factorization of the stacked matrix, elementwise after sign
// canonicalization. With ride-along right-hand sides it also checks the
// least-squares solution against the reference Solve.
func TestStreamMatchesFactorize(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range []struct {
		n, nrhs, blocks int
	}{
		{8, 0, 5},
		{24, 0, 9},
		{32, 2, 7},
		{48, 3, 12},
	} {
		t.Run(fmt.Sprintf("n%d_rhs%d_b%d", tc.n, tc.nrhs, tc.blocks), func(t *testing.T) {
			opts := Options{NB: 32, IB: 8}
			var blocks, rhs []*matrix.Mat
			for i := 0; i < tc.blocks; i++ {
				m := 1 + rng.Intn(2*tc.n)
				if i == 0 {
					m = tc.n + rng.Intn(tc.n) // full rank from the first fold
				}
				blocks = append(blocks, matrix.NewRand(m, tc.n, rng))
				if tc.nrhs > 0 {
					rhs = append(rhs, matrix.NewRand(m, tc.nrhs, rng))
				}
			}
			s, err := NewStreamer(tc.n, tc.nrhs, opts)
			if err != nil {
				t.Fatal(err)
			}
			ws := kernels.NewWorkspace()
			cur := s.Current(ws, nil)
			if cur.R.MaxAbs() != 0 || cur.Rows != 0 {
				t.Fatalf("empty stream has nonzero state")
			}
			cur = streamAll(t, s, ws, blocks, rhs)

			dense := stackDense(blocks, tc.n)
			if int64(dense.Rows) != s.Rows() {
				t.Fatalf("streamed %d rows, stacked %d", s.Rows(), dense.Rows)
			}
			var denseB *matrix.Tiled
			if tc.nrhs > 0 {
				denseB = matrix.FromDense(stackDense(rhs, tc.nrhs), opts.NB)
			}
			f, err := Factorize(matrix.FromDense(dense, opts.NB), denseB, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := f.R()
			canonR(want, nil)
			got := cur.R.Clone()
			var gotQ *matrix.Mat
			if tc.nrhs > 0 {
				gotQ = cur.QTB.Clone()
			}
			canonR(got, gotQ)
			tol := 1e-10 * float64(dense.Rows) * dense.MaxAbs()
			if d := matrix.MaxAbsDiff(got, want); d > tol {
				t.Fatalf("streamed R deviates from factorized R by %g (tol %g)", d, tol)
			}
			if tc.nrhs > 0 {
				xWant := f.SolveFromQTB()
				xGot := (&StreamNode{R: got, QTB: gotQ}).SolveLS()
				xTol := 1e-8 * float64(dense.Rows) * math.Max(1, xWant.MaxAbs())
				if d := matrix.MaxAbsDiff(xGot, xWant); d > xTol {
					t.Fatalf("streamed LS solution deviates by %g (tol %g)", d, xTol)
				}
			}
		})
	}
}

// refold is the oracle for Streamer.Current: the left-to-right fold of the
// whole spine from scratch, on copies, with no cached prefix.
func refold(s *Streamer, ws *kernels.Workspace) *StreamNode {
	cur := &StreamNode{R: matrix.New(s.n, s.n), Blocks: s.blocks, Rows: s.rows}
	if s.nrhs > 0 {
		cur.QTB = matrix.New(s.n, s.nrhs)
	}
	if len(s.spine) == 0 {
		return cur
	}
	cur.R.CopyFrom(s.spine[0].R)
	if s.nrhs > 0 {
		cur.QTB.CopyFrom(s.spine[0].QTB)
	}
	for _, nd := range s.spine[1:] {
		v := nd.R.Clone()
		tm := tScratch(ws, s.opts.IB, s.n)
		kernels.DttqrtWS(ws, s.opts.IB, cur.R, v, tm)
		if s.nrhs > 0 {
			kernels.DttmqrWS(ws, true, s.opts.IB, v, tm, cur.QTB, nd.QTB.Clone())
		}
	}
	return cur
}

// bitwiseEqual fails the test unless got and want carry the same totals and
// the same R and QᵀB to the bit.
func bitwiseEqual(t *testing.T, what string, got, want *StreamNode) {
	t.Helper()
	if got.Blocks != want.Blocks || got.Rows != want.Rows {
		t.Fatalf("%s: %d blocks / %d rows, want %d / %d", what, got.Blocks, got.Rows, want.Blocks, want.Rows)
	}
	if d := matrix.MaxAbsDiff(got.R, want.R); d != 0 {
		t.Fatalf("%s: R differs from the full refold by %g (want bitwise equality)", what, d)
	}
	if (got.QTB == nil) != (want.QTB == nil) {
		t.Fatalf("%s: QTB presence %v, want %v", what, got.QTB != nil, want.QTB != nil)
	}
	if got.QTB != nil {
		if d := matrix.MaxAbsDiff(got.QTB, want.QTB); d != 0 {
			t.Fatalf("%s: QTB differs from the full refold by %g (want bitwise equality)", what, d)
		}
	}
}

// TestStreamCurrentMatchesRefold drives streams of random block heights
// (below and above n, some spanning several tile chunks) and checks the
// cached Current against a from-scratch refold of the spine, bit for bit,
// at every append it reads. Some appends skip Current (the ack-only
// pattern, which leaves several folds stale at once), dst buffers are
// reused, and mid-stream the spine is checkpointed into a restored
// streamer that then continues in lockstep with the original.
func TestStreamCurrentMatchesRefold(t *testing.T) {
	for _, nrhs := range []int{0, 3} {
		t.Run(fmt.Sprintf("rhs%d", nrhs), func(t *testing.T) {
			const n, appends, cut = 24, 150, 77
			opts := Options{NB: 16, IB: 8}
			rng := rand.New(rand.NewSource(int64(11 + nrhs)))
			s, err := NewStreamer(n, nrhs, opts)
			if err != nil {
				t.Fatal(err)
			}
			ws := kernels.NewWorkspace()
			var restored *Streamer
			var dst, rdst *StreamNode
			for i := 0; i < appends; i++ {
				m := 1 + rng.Intn(2*n)
				b := matrix.NewRand(m, n, rng)
				var rb *matrix.Mat
				if nrhs > 0 {
					rb = matrix.NewRand(m, nrhs, rng)
				}
				for _, str := range []*Streamer{s, restored} {
					if str == nil {
						continue
					}
					nd, err := str.LeafReduce(ws, b.Clone(), cloneOrNil(rb))
					if err != nil {
						t.Fatal(err)
					}
					str.Commit(ws, nd)
				}
				if i == cut {
					var snap []*StreamNode
					for _, nd := range s.Spine() {
						snap = append(snap, &StreamNode{Blocks: nd.Blocks, Rows: nd.Rows, R: nd.R.Clone(), QTB: cloneOrNil(nd.QTB)})
					}
					if restored, err = RestoreStreamer(n, nrhs, opts, snap); err != nil {
						t.Fatal(err)
					}
				}
				if rng.Intn(3) == 0 {
					continue // ack-only: nothing reads the state this append
				}
				want := refold(s, ws)
				dst = s.Current(ws, dst)
				bitwiseEqual(t, fmt.Sprintf("append %d", i), dst, want)
				if restored != nil {
					rdst = restored.Current(ws, rdst)
					bitwiseEqual(t, fmt.Sprintf("append %d, restored", i), rdst, want)
				}
			}
			if restored == nil {
				t.Fatal("the stream never reached its restore point")
			}
		})
	}
}

// TestStreamKernelCountLogP instruments kernel firings through the
// streamer's hook and asserts the per-append tile-kernel count is O(log P),
// not O(P): an append to a P-block session fires the leaf reduction, the
// carry chain's merges (one amortized) and at most one fold merge — never a
// full refactorization.
func TestStreamKernelCountLogP(t *testing.T) {
	const (
		n = 24
		P = 128
	)
	opts := Options{NB: 32, IB: 8}
	rng := rand.New(rand.NewSource(7))
	s, err := NewStreamer(n, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	s.Hook = func(string) { fired++ }
	ws := kernels.NewWorkspace()

	maxPerAppend, total := 0, 0
	var blocks []*matrix.Mat
	for i := 0; i < P; i++ {
		b := matrix.NewRand(opts.NB, n, rng) // one tile chunk per leaf
		blocks = append(blocks, b)
		fired = 0
		nd, err := s.LeafReduce(ws, b.Clone(), nil)
		if err != nil {
			t.Fatal(err)
		}
		s.Commit(ws, nd)
		perAppend := fired
		fired = 0
		s.Current(ws, nil)
		if fired > 1 {
			t.Fatalf("append %d: Current fired %d merges, want <= 1", i, fired)
		}
		perAppend += fired
		fired = 0
		s.Current(ws, nil)
		if fired != 0 {
			t.Fatalf("append %d: a second Current fired %d merges, want 0", i, fired)
		}
		total += perAppend
		if perAppend > maxPerAppend {
			maxPerAppend = perAppend
		}
	}

	// Per append: 1 leaf tsqrt + ≤ log₂P carry ttqrts + ≤ 1 fold ttqrt. A
	// refactorization would fire ≥ P kernels.
	logP := bits.Len(uint(P))
	if bound := logP + 2; maxPerAppend > bound {
		t.Fatalf("append fired %d kernels, want <= %d (log2(%d)+2)", maxPerAppend, bound, P)
	}
	if avg := float64(total) / P; avg > 3.0 {
		t.Fatalf("appends fired %.2f kernels on average, want <= 3.0", avg)
	}
	if s.SpineDepth() > logP {
		t.Fatalf("spine depth %d exceeds log2(%d)", s.SpineDepth(), P)
	}
	t.Logf("P=%d: max %d kernels/append, %.2f avg, spine depth %d", P, maxPerAppend, float64(total)/P, s.SpineDepth())

	// The streamed R still matches a from-scratch factorization.
	s.Hook = nil
	cur := s.Current(ws, nil)
	dense := stackDense(blocks, n)
	f, err := Factorize(matrix.FromDense(dense, opts.NB), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := f.R()
	canonR(want, nil)
	got := cur.R.Clone()
	canonR(got, nil)
	tol := 1e-10 * float64(dense.Rows) * dense.MaxAbs()
	if d := matrix.MaxAbsDiff(got, want); d > tol {
		t.Fatalf("streamed R deviates from factorized R by %g (tol %g)", d, tol)
	}
}

// TestStreamRestoreBitwise checkpoints a stream mid-way (cloning the spine,
// as the durable checkpoint does), restores it into a fresh streamer, and
// drives both over the same remaining appends: the restored R must be
// bitwise identical to the uninterrupted run's.
func TestStreamRestoreBitwise(t *testing.T) {
	const n, nrhs, total, cut = 16, 2, 11, 6
	opts := Options{NB: 16, IB: 8}
	rng := rand.New(rand.NewSource(3))
	var blocks, rhs []*matrix.Mat
	for i := 0; i < total; i++ {
		m := 1 + rng.Intn(24)
		blocks = append(blocks, matrix.NewRand(m, n, rng))
		rhs = append(rhs, matrix.NewRand(m, nrhs, rng))
	}
	ws := kernels.NewWorkspace()

	orig, err := NewStreamer(n, nrhs, opts)
	if err != nil {
		t.Fatal(err)
	}
	streamAll(t, orig, ws, blocks[:cut], rhs[:cut])

	// Snapshot the spine the way a checkpoint does: deep copies.
	var snap []*StreamNode
	for _, nd := range orig.Spine() {
		snap = append(snap, &StreamNode{Blocks: nd.Blocks, Rows: nd.Rows, R: nd.R.Clone(), QTB: nd.QTB.Clone()})
	}
	restored, err := RestoreStreamer(n, nrhs, opts, snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Blocks() != cut || restored.Rows() != orig.Rows() {
		t.Fatalf("restored %d blocks / %d rows, want %d / %d", restored.Blocks(), restored.Rows(), cut, orig.Rows())
	}

	curOrig := streamAll(t, orig, ws, blocks[cut:], rhs[cut:])
	curRest := streamAll(t, restored, kernels.NewWorkspace(), blocks[cut:], rhs[cut:])
	if d := matrix.MaxAbsDiff(curOrig.R, curRest.R); d != 0 {
		t.Fatalf("restored R differs from uninterrupted run by %g (want bitwise equality)", d)
	}
	if d := matrix.MaxAbsDiff(curOrig.QTB, curRest.QTB); d != 0 {
		t.Fatalf("restored QTB differs from uninterrupted run by %g (want bitwise equality)", d)
	}
}

// TestStreamInputValidation exercises the error paths of LeafReduce and
// RestoreStreamer.
func TestStreamInputValidation(t *testing.T) {
	opts := Options{NB: 16, IB: 8}
	s, err := NewStreamer(8, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStreamer(0, 0, opts); err == nil {
		t.Fatal("NewStreamer accepted n=0")
	}
	if _, err := NewStreamer(8, -1, opts); err == nil {
		t.Fatal("NewStreamer accepted nrhs=-1")
	}
	if _, err := s.LeafReduce(nil, matrix.New(4, 7), nil); err == nil {
		t.Fatal("LeafReduce accepted a column mismatch")
	}
	if _, err := s.LeafReduce(nil, nil, nil); err == nil {
		t.Fatal("LeafReduce accepted a nil block")
	}
	if _, err := s.LeafReduce(nil, matrix.New(4, 8), matrix.New(4, 1)); err == nil {
		t.Fatal("LeafReduce accepted rhs on an R-only stream")
	}
	sr, err := NewStreamer(8, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.LeafReduce(nil, matrix.New(4, 8), nil); err == nil {
		t.Fatal("LeafReduce accepted a missing rhs")
	}
	if _, err := sr.LeafReduce(nil, matrix.New(4, 8), matrix.New(3, 1)); err == nil {
		t.Fatal("LeafReduce accepted an rhs row mismatch")
	}

	good := &StreamNode{Blocks: 2, Rows: 20, R: matrix.New(8, 8)}
	if _, err := RestoreStreamer(8, 0, opts, []*StreamNode{good, {Blocks: 2, Rows: 4, R: matrix.New(8, 8)}}); err == nil {
		t.Fatal("RestoreStreamer accepted non-decreasing block counts")
	}
	if _, err := RestoreStreamer(8, 0, opts, []*StreamNode{{Blocks: 1, Rows: 4, R: matrix.New(7, 8)}}); err == nil {
		t.Fatal("RestoreStreamer accepted a misshapen R")
	}
	if _, err := RestoreStreamer(8, 1, opts, []*StreamNode{good}); err == nil {
		t.Fatal("RestoreStreamer accepted a missing QTB")
	}
	if _, err := RestoreStreamer(8, 0, opts, []*StreamNode{good}); err != nil {
		t.Fatalf("RestoreStreamer rejected a valid spine: %v", err)
	}
}

// A NaN block through LeafReduce leaves nothing behind in its workspace:
// its own leaf is non-finite, and the next clean block's leaf on the same
// workspace is bitwise the one a fresh workspace computes. 400 rows at the
// default tile are three dtsqrt/dtsmqr chunks, the last one ragged.
func TestLeafReduceAfterNaNBlock(t *testing.T) {
	const n, nrhs, rows = 64, 2, 400
	rng := rand.New(rand.NewSource(61))
	s, err := NewStreamer(n, nrhs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bad := matrix.NewRand(rows, n, rng)
	bad.Set(217, 5, math.NaN())
	clean, cleanRHS := matrix.NewRand(rows, n, rng), matrix.NewRand(rows, nrhs, rng)

	ws := kernels.NewWorkspace()
	poisoned, err := s.LeafReduce(ws, bad, matrix.NewRand(rows, nrhs, rng))
	if err != nil {
		t.Fatal(err)
	}
	finite := true
	for _, v := range poisoned.R.Data {
		finite = finite && !math.IsNaN(v) && !math.IsInf(v, 0)
	}
	if finite {
		t.Fatal("the NaN block's leaf R is finite: the NaN did not reach the kernels")
	}
	got, err := s.LeafReduce(ws, clean.Clone(), cleanRHS.Clone())
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.LeafReduce(kernels.NewWorkspace(), clean, cleanRHS)
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, "clean leaf after a NaN leaf", got, want)
}

// BenchmarkStreamAppend streams 128 blocks of 64×64 at the library tile, one
// LeafReduce, Commit and Current per append — the engine half of a session
// append with R back per block. One op is the whole stream; us/append is
// the per-append cost.
func BenchmarkStreamAppend(b *testing.B) {
	const n, appends = 64, 128
	rng := rand.New(rand.NewSource(1))
	src := make([]*matrix.Mat, appends)
	work := make([]*matrix.Mat, appends)
	for i := range src {
		src[i] = matrix.NewRand(n, n, rng)
		work[i] = matrix.New(n, n)
	}
	ws := kernels.NewWorkspace()
	var cur *StreamNode
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		for i := range work {
			work[i].CopyFrom(src[i]) // LeafReduce consumes its block
		}
		s, err := NewStreamer(n, 0, Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, blk := range work {
			nd, err := s.LeafReduce(ws, blk, nil)
			if err != nil {
				b.Fatal(err)
			}
			s.Commit(ws, nd)
			cur = s.Current(ws, cur)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*appends), "us/append")
}
