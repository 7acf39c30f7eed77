package session

// An append stream decodes its blocks into warm storage (slab.Floats) and
// lays each leaf in a slab of it, often one an earlier carry chain gave
// back: what a stream computes must not depend on what was left there,
// every block slab a stream takes must go back whichever way it ends, and a
// stream in steady state must not allocate its blocks or its leaves.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/pulsar"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/slab"
)

// appendBody encodes blocks (and rhs, nil for an R-only stream) as one QSA1
// request body.
func appendBody(t *testing.T, blocks, rhs []*matrix.Mat) []byte {
	t.Helper()
	var body bytes.Buffer
	if err := WriteAppendHeader(&body, len(blocks)); err != nil {
		t.Fatal(err)
	}
	var enc []byte
	for i, b := range blocks {
		var r *matrix.Mat
		if rhs != nil {
			r = rhs[i]
		}
		enc = AppendBlock(enc[:0], b, r)
		body.Write(enc)
	}
	return body.Bytes()
}

// appendFrom streams body into s through an AppendReader and returns a
// clone of every update it emitted.
func appendFrom(ctx context.Context, s *Session, body []byte) ([]*qr.StreamNode, error) {
	ar, err := NewAppendReader(bytes.NewReader(body), s.N, s.NRHS)
	if err != nil {
		return nil, err
	}
	var got []*qr.StreamNode
	_, err = s.AppendFrom(ctx, ar, func(blocks, rows int64, cur *qr.StreamNode) error {
		got = append(got, cloneNode(blocks, rows, cur))
		return nil
	})
	return got, err
}

// cloneNode is an emitted update, cloned out of the session's buffer.
func cloneNode(blocks, rows int64, cur *qr.StreamNode) *qr.StreamNode {
	nd := &qr.StreamNode{Blocks: blocks, Rows: rows, R: cur.R.Clone()}
	if cur.QTB != nil {
		nd.QTB = cur.QTB.Clone()
	}
	return nd
}

// replay folds blocks through a cold local Streamer — fresh nodes, fresh
// blocks — and returns its state after every append.
func replay(t *testing.T, n, nrhs int, opts qr.Options, blocks, rhs []*matrix.Mat) []*qr.StreamNode {
	t.Helper()
	str, err := qr.NewStreamer(n, nrhs, opts)
	if err != nil {
		t.Fatal(err)
	}
	ws := kernels.NewWorkspace()
	var out []*qr.StreamNode
	for i, b := range blocks {
		var r *matrix.Mat
		if rhs != nil {
			r = rhs[i].Clone()
		}
		nd, err := str.LeafReduce(ws, b.Clone(), r)
		if err != nil {
			t.Fatal(err)
		}
		str.Commit(ws, nd)
		out = append(out, str.Current(ws, nil))
	}
	return out
}

// sameBits fails unless got and want hold the same bits, element by element.
func sameBits(t *testing.T, what string, got, want *matrix.Mat) {
	t.Helper()
	if got == nil || got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: got %v, want %dx%d", what, got, want.Rows, want.Cols)
	}
	for j := 0; j < want.Cols; j++ {
		for i := 0; i < want.Rows; i++ {
			if g, w := math.Float64bits(got.At(i, j)), math.Float64bits(want.At(i, j)); g != w {
				t.Fatalf("%s: element (%d,%d) is %016x, want %016x", what, i, j, g, w)
			}
		}
	}
}

// nanSlab is a slab a take of n elements finds — its class's capacity —
// holding a NaN in every element.
func nanSlab(n int) []float64 {
	_, size := slab.Class(n)
	s := make([]float64, size)
	for i := range s {
		s[i] = math.NaN()
	}
	return s
}

// holdGC keeps the collector, and with it the aging of idle slabs, off
// until the test ends, so storage a test put in the pool stays there.
func holdGC(t *testing.T) {
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// warmTable is a table whose leaves reduce on a two-worker pool, with four
// appends in flight.
func warmTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := NewTable(Config{Pool: testPool(t), IdleTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tbl.Close() })
	return tbl
}

// Warm storage full of NaN carries nothing into a stream. The float pool
// holds NaN slabs of every size the stream's blocks take and of its leaf
// nodes' size; an R-only and an rhs session at two widths, pipelined, must
// stream every R and QᵀB bit for bit as a cold local Streamer computes them.
func TestWarmSessionStorageCarriesNothing(t *testing.T) {
	holdGC(t)
	tbl := warmTable(t)
	opts := qr.Options{NB: 32, IB: 8}
	for _, n := range []int{64, 40} {
		for _, nrhs := range []int{0, 3} {
			t.Run(fmt.Sprintf("n=%d/nrhs=%d", n, nrhs), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(100*n + nrhs)))
				var blocks, rhs []*matrix.Mat
				for i := range 19 {
					rows := []int{n, 1, 70, n + 9, 33}[i%5]
					blocks = append(blocks, matrix.NewRand(rows, n, rng))
					if nrhs > 0 {
						rhs = append(rhs, matrix.NewRand(rows, nrhs, rng))
					}
				}
				want := replay(t, n, nrhs, opts, blocks, rhs)

				s, err := tbl.Open("t", n, nrhs, opts, 0, false)
				if err != nil {
					t.Fatal(err)
				}
				poisoned := map[*float64]bool{}
				poison := func(elems int) {
					p := nanSlab(elems)
					poisoned[&p[0]] = true
					slab.Floats.Put(p)
				}
				for _, b := range blocks {
					for range 4 {
						poison(b.Rows * (n + nrhs))
					}
				}
				for range 8 {
					poison(n * (n + nrhs))
				}

				// After each commit the newest spine node is the leaf just
				// committed or a survivor of its carry chain: the spine shows
				// which slabs leaves were laid in.
				ar, err := NewAppendReader(bytes.NewReader(appendBody(t, blocks, rhs)), n, nrhs)
				if err != nil {
					t.Fatal(err)
				}
				var got []*qr.StreamNode
				reduced := map[*float64]bool{}
				_, err = s.AppendFrom(context.Background(), ar, func(blocks, rows int64, cur *qr.StreamNode) error {
					for _, nd := range s.str.Spine() {
						if at := &nd.R.Data[0]; poisoned[at] {
							reduced[at] = true
						}
					}
					got = append(got, cloneNode(blocks, rows, cur))
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%d updates, want %d", len(got), len(want))
				}
				for i := range want {
					sameBits(t, fmt.Sprintf("R after append %d", i+1), got[i].R, want[i].R)
					if nrhs > 0 {
						sameBits(t, fmt.Sprintf("QᵀB after append %d", i+1), got[i].QTB, want[i].QTB)
					}
				}
				// The first leaves are laid before any carry chain gives a
				// slab back, so they took poisoned ones.
				if untouched := len(poisoned) - len(reduced); untouched > len(poisoned)-2 {
					t.Fatalf("%d of %d poisoned slabs were never reduced into", untouched, len(poisoned))
				}
			})
		}
	}
}

// drain takes from slab.Floats every slab an n-element take would find.
func drain(n int) {
	for slab.Floats.Warm(n) != nil {
	}
}

// markers drains slab.Floats for n-element takes and fills it with k NaN
// slabs, the only storage a stream of blocks that size finds without
// allocating.
func markers(k, n int) map[*float64]bool {
	drain(n)
	set := make(map[*float64]bool, k)
	for range k {
		s := nanSlab(n)
		set[&s[0]] = true
		slab.Floats.Put(s)
	}
	return set
}

// awaitMarkers waits until slab.Floats holds every marker slab again, and
// nothing else an n-element take would find; it fails if that does not
// happen within five seconds. It polls: a stream returns without waiting
// for its reader or its workers, which give their slabs back after it.
func awaitMarkers(t *testing.T, set map[*float64]bool, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var held [][]float64
		for s := slab.Floats.Warm(n); s != nil; s = slab.Floats.Warm(n) {
			held = append(held, s)
		}
		for _, s := range held {
			if !set[&s[0]] {
				t.Fatalf("slab.Floats holds a %d-element slab no marker is", cap(s))
			}
			slab.Floats.Put(s)
		}
		if len(held) == len(set) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d slabs back in slab.Floats after 5s", len(held), len(set))
		}
		time.Sleep(time.Millisecond)
	}
}

// A hostile append stream pins no warm storage: a payload cut short, a block
// the stream refuses for a NaN, a block LeafReduce rejects, a stream
// cancelled while its reader waits mid-payload, and one whose client goes
// away with leaves in flight each give back every slab they took, and a
// header declaring more than MaxBlockRows rows takes none. A leaf is laid
// in a slab of the float pool too, which may be up to a doubling larger
// than the leaf, as a block's is: a leaf the stream reduced and never
// committed goes back as the stream ends, and one on the spine once the
// session is deleted. So the leaves' own class is stocked with markers
// first, enough that no leaf reaches up to a block's, and once the block
// markers are back and out of reach, every leaf marker must be back too.
func TestHostileAppendStreamReleasesEverySlab(t *testing.T) {
	holdGC(t)
	tbl := warmTable(t)
	const n, nrhs, rows, count = 8, 2, 16, 3
	rng := rand.New(rand.NewSource(3))
	var blocks, wide, rhs []*matrix.Mat
	for range count {
		blocks = append(blocks, matrix.NewRand(rows, n, rng))
		wide = append(wide, matrix.NewRand(rows, n+1, rng))
		rhs = append(rhs, matrix.NewRand(rows, nrhs, rng))
	}
	clean := appendBody(t, blocks, rhs)
	bad := cloneAll(blocks)
	bad[1].Set(3, 4, math.NaN())
	gone := errors.New("client went away")
	for _, tc := range []struct {
		name   string
		body   []byte
		cols   int // the reader's block width; the session's is n
		cancel bool
		emit   error // what the client's end of the stream fails with
	}{
		{"short payload", clean[:len(clean)-5], n, false, nil},
		{"non-finite block", appendBody(t, bad, rhs), n, false, nil},
		{"leaf reduce error", appendBody(t, wide, rhs), n + 1, false, nil},
		{"cancelled mid-payload", clean[:len(clean)-5], n, true, nil},
		{"client gone with leaves in flight", clean, n, false, gone},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leaves := markers(2*count+2, n*(n+nrhs))
			set := markers(count, rows*(tc.cols+nrhs))
			s, err := tbl.Open("t", n, nrhs, qr.Options{}, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			// The cancelled stream's body arrives through a pipe that stays
			// open, its last block cut short, until the stream has returned:
			// its reader is blocked mid-payload, holding a slab, as on a
			// request body whose client stalls.
			var body io.Reader = bytes.NewReader(tc.body)
			pr, pw := io.Pipe()
			if tc.cancel {
				go pw.Write(tc.body)
				body = pr
			}
			ar, err := NewAppendReader(body, tc.cols, nrhs)
			if err != nil {
				t.Fatal(err)
			}
			// The stream reads ar as AppendFrom does, through a source that
			// fails once the stream has returned, as a request body does once
			// its handler has: the stream does not wait for its reader, and a
			// block decoded late could take a fresh slab while awaitMarkers
			// holds the markers out of the pool.
			var mu sync.Mutex
			ended := false
			next := func() (*matrix.Mat, *matrix.Mat, error) {
				mu.Lock()
				defer mu.Unlock()
				if ended {
					return nil, nil, io.ErrClosedPipe
				}
				return ar.Next()
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, err = s.appendStream(ctx, next, releaseBlock, func(int64, int64, *qr.StreamNode) error {
				if tc.cancel {
					cancel()
				}
				if tc.emit != nil {
					time.Sleep(5 * time.Millisecond) // the later leaves are reduced by now
				}
				return tc.emit
			})
			if err == nil {
				t.Fatal("a hostile stream ended without an error")
			}
			pw.CloseWithError(io.ErrUnexpectedEOF)
			mu.Lock()
			ended = true
			mu.Unlock()
			awaitMarkers(t, set, rows*(tc.cols+nrhs))
			if err := tbl.Delete(s.ID); err != nil {
				t.Fatal(err)
			}
			drain(rows * (tc.cols + nrhs))
			awaitMarkers(t, leaves, n*(n+nrhs))
		})
	}

	t.Run("rows over MaxBlockRows", func(t *testing.T) {
		const m = MaxBlockRows + 1
		drain(m * (n + nrhs))
		var body bytes.Buffer
		if err := WriteAppendHeader(&body, 1); err != nil {
			t.Fatal(err)
		}
		body.Write(binary.LittleEndian.AppendUint32(nil, m))
		body.Write(make([]byte, 8*m*(n+nrhs)))
		ar, err := NewAppendReader(&body, n, nrhs)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err = ar.Next()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("a %d-row block decoded", m)
		}
		if s := slab.Floats.Warm(m * (n + nrhs)); s != nil {
			t.Fatal("a rejected header left a slab in slab.Floats")
		}
		if a := after.TotalAlloc - before.TotalAlloc; !raceEnabled && a >= 8*m*(n+nrhs) {
			t.Fatalf("a rejected header allocated %d bytes, a block's slab holds %d", a, 8*m*(n+nrhs))
		}
	})
}

// A library caller's blocks never enter warm storage: after an AppendStream
// over the caller's own matrices no slab of their size is in slab.Floats, and
// decoded streams that take and give back slabs of that size afterwards
// leave the caller's (consumed) matrices as they were.
func TestLibraryBlocksNeverEnterThePool(t *testing.T) {
	holdGC(t)
	tbl := warmTable(t)
	const n, rows = 12, 20
	rng := rand.New(rand.NewSource(11))
	mine := make([]*matrix.Mat, 6)
	for i := range mine {
		mine[i] = matrix.NewRand(rows, n, rng)
	}
	drain(rows * n)
	s, err := tbl.Open("t", n, 0, qr.Options{}, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendStream(context.Background(), feedBlocks(mine, nil),
		func(int64, int64, *qr.StreamNode) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if s := slab.Floats.Warm(rows * n); s != nil {
		t.Fatal("a library caller's block entered slab.Floats")
	}
	kept := cloneAll(mine)
	body := appendBody(t, cloneAll(kept), nil)
	for range 3 {
		if _, err := appendFrom(context.Background(), s, body); err != nil {
			t.Fatal(err)
		}
	}
	for i := range mine {
		sameBits(t, fmt.Sprintf("library block %d after three decoded streams", i), mine[i], kept[i])
	}
}

// A warm append stream allocates little beside its input: its blocks are
// decoded into the slabs the last stream gave back, and its leaves are laid
// in the slabs carry chains gave back, its own or an earlier session's. 128
// blocks of 64×64, the stack benchmark's session op without the client, on
// a fresh session each time (as the benchmark opens one per op), fed by an
// AppendReader. What remains is per session — the spine, the fold cache and
// the update buffer — and the reader's byte scratch. Measured at 0.085 of
// the input (a stream that decoded each block and reduced each leaf into
// fresh storage read 2.08); the bound is a quarter. It is on the least delta
// of eight streams. Not parallel: MemStats is process-wide.
func TestSteadyStateAppendAllocatesNoBlocks(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates beside every access; alloc counts are meaningless")
	}
	pool := pulsar.NewPool(2, func(int) any { return kernels.NewWorkspace() })
	defer pool.Close()
	tbl, err := NewTable(Config{Pool: pool, IdleTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	const count, n = 128, 64
	rng := rand.New(rand.NewSource(21))
	blocks := make([]*matrix.Mat, count)
	for i := range blocks {
		blocks[i] = matrix.NewRand(n, n, rng)
	}
	body := appendBody(t, blocks, nil)
	discard := func(int64, int64, *qr.StreamNode) error { return nil }
	var least uint64
	for round := range 10 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := tbl.Open("t", n, 0, qr.Options{}, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		ar, err := NewAppendReader(bytes.NewReader(body), n, 0)
		if err != nil {
			t.Fatal(err)
		}
		if done, err := s.AppendFrom(context.Background(), ar, discard); err != nil || done != count {
			t.Fatalf("stream committed %d of %d blocks: %v", done, count, err)
		}
		if err := tbl.Delete(s.ID); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		switch a := after.TotalAlloc - before.TotalAlloc; {
		case round < 2: // warm the workers' workspaces and the slabs
		case round == 2:
			least = a
		default:
			least = min(least, a)
		}
	}
	input := uint64(8 * count * n * n)
	t.Logf("a warm %d × %dx%d stream allocates %d bytes, %.3f of its input", count, n, n, least, float64(least)/float64(input))
	if bound := input / 4; least > bound {
		t.Errorf("a warm stream allocates %d bytes, want at most %d (its input is %d)", least, bound, input)
	}
}

// A session that goes gives its spine back, and what its replies were
// folded in: a memory-only session deleted and a durable one unloaded idle
// each put back in slab.Floats the slab of every spine node its leaves were
// laid in, the slab of the session's reply node, and the slabs of the
// streamer's prefix folds and merge victim — seven slabs for a spine of
// three, and no other. The unloaded session reloads from its checkpoint,
// which was written before the spine went, to the same R.
func TestClosedSessionReleasesSpine(t *testing.T) {
	holdGC(t)
	const n, nrhs, count = 8, 2, 7 // 7 blocks leave a spine of 4, 2 and 1
	rng := rand.New(rand.NewSource(5))
	var blocks, rhs []*matrix.Mat
	for range count {
		blocks = append(blocks, matrix.NewRand(2*n, n, rng))
		rhs = append(rhs, matrix.NewRand(2*n, nrhs, rng))
	}
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			cfg := Config{Pool: testPool(t), IdleTimeout: time.Hour}
			if durable {
				cfg.Dir = t.TempDir()
			}
			tbl, err := NewTable(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer tbl.Close()
			s, err := tbl.Open("t", n, nrhs, qr.Options{}, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.AppendStream(context.Background(), feedBlocks(cloneAll(blocks), cloneAll(rhs)),
				func(int64, int64, *qr.StreamNode) error { return nil }); err != nil {
				t.Fatal(err)
			}
			before, err := s.Current()
			if err != nil {
				t.Fatal(err)
			}
			spine := map[*float64]bool{}
			for _, nd := range s.str.Spine() {
				spine[&nd.R.Data[0]] = true
			}
			if len(spine) != 3 {
				t.Fatalf("spine of %d nodes, want 3", len(spine))
			}
			reply := &s.cur.R.Data[0]
			drain(n * (n + nrhs))
			if durable {
				tbl.sweep(time.Now().Add(2 * time.Hour))
				if s.Info().Loaded {
					t.Fatal("idle durable session still loaded")
				}
			} else if err := tbl.Delete(s.ID); err != nil {
				t.Fatal(err)
			}
			back, replyBack := 0, false
			for p := slab.Floats.Warm(n * (n + nrhs)); p != nil; p = slab.Floats.Warm(n * (n + nrhs)) {
				delete(spine, &p[0])
				replyBack = replyBack || &p[0] == reply
				back++
			}
			if len(spine) != 0 {
				t.Fatalf("%d of 3 spine slabs not given back", len(spine))
			}
			if !replyBack {
				t.Fatal("the reply node's slab was not given back")
			}
			if back != 7 { // 3 spine nodes, 2 prefix folds, the victim copy, the reply node
				t.Fatalf("%d slabs given back, want 7", back)
			}
			if durable {
				after, err := s.Current()
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, "R reloaded after unload", after.R, before.R)
				sameBits(t, "QᵀB reloaded after unload", after.QTB, before.QTB)
			}
		})
	}
}
