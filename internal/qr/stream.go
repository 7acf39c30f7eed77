package qr

import (
	"fmt"

	"pulsarqr/internal/blas"
	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/slab"
)

// This file implements the incremental (streaming) TSQR engine behind
// long-lived factorization sessions: rows arrive in blocks, and after each
// appended block the engine re-reduces only the leaf-to-root path of the
// reduction tree — O(log P) tile kernels per append for P appended blocks,
// instead of the O(P) kernels a from-scratch refactorization would fire.
//
// The committed state is a binary-counter spine (exactly the subtree roots
// of a binary reduction tree over the appended leaves, one root per set bit
// of the leaf count): appending leaf P+1 pushes its n×n R and merges equal
// sized subtrees like a carry chain, so the spine never exceeds ⌈log₂ P⌉
// entries and the amortized merge cost per append is O(1). The current
// global R is the left-to-right fold of the spine. The streamer keeps that
// fold's prefixes (folds[i] = the fold of spine[0..i]); an append changes
// only the newest spine entry, so the next Current extends the prefixes by
// one merge and copies the last one out. None of this disturbs the committed
// state. A stream keeps R and QᵀB, never Q, so neither the leaf chunks nor
// the merges build a T factor: each is one kernels.Dtpqr2 step over the
// pair [R; chunk] (the TS shape) or [R; R'] (the TT shape), with the
// ride-along QᵀB columns updated by the same reflectors. The blocked
// dtsqrt/dttqrt kernels stay with the tile factorization, whose updates
// reuse their T factors.

// StreamNode is one committed subtree root of a streaming factorization:
// the R factor (and optionally the ride-along QᵀB rows) of every row block
// folded into it.
type StreamNode struct {
	Blocks int64 // appended row blocks folded into this node
	Rows   int64 // matrix rows folded into this node
	// R is the n×n upper-triangular factor of the node's rows; entries
	// below the diagonal are zero (never reflectors — eliminated factors
	// are discarded on merge).
	R *matrix.Mat
	// QTB holds the significant (top n) rows of Qᵀ·B for the node's
	// ride-along right-hand-side columns; nil when the stream carries none.
	QTB *matrix.Mat

	// buf is the slab.Floats slab R and QTB lie in when LeafReduce laid
	// them out, nil for a node the caller built.
	buf []float64
}

// SolveLS returns the least-squares solution x of min‖A·x − b‖₂ over every
// row streamed into the node, solving R·x = (QᵀB)₁..n. It requires the
// stream to carry ride-along right-hand sides and R to be nonsingular.
func (nd *StreamNode) SolveLS() *matrix.Mat {
	if nd.QTB == nil {
		panic("qr: stream carries no ride-along right-hand sides")
	}
	x := nd.QTB.Clone()
	blas.Dtrsm(x.Rows, x.Cols, nd.R.Data, nd.R.LD, x.Data, x.LD)
	return x
}

// Streamer is the incremental TSQR engine. LeafReduce is a pure function
// of its inputs and may run concurrently on several goroutines (each with
// its own Workspace and its own node) — that is what lets a session
// pipeline appends over a worker pool. Commit and Current mutate or read the
// spine and must be serialized by the caller (a session holds its lock
// across them).
type Streamer struct {
	n, nrhs int
	opts    Options

	spine  []*StreamNode
	blocks int64
	rows   int64

	// Hook, when non-nil, observes every kernel firing with its trace class:
	// "tsqrt" for a leaf chunk, "ttqrt" for a merge (each also carries the
	// QᵀB columns, so there is no separate update class). It may be called
	// from concurrent LeafReduce goroutines and must be safe for concurrent
	// use.
	Hook func(class string)

	// folds[i] (i ≥ 1) is the left-to-right fold of spine[0..i]; spine[0]
	// is its own fold, so folds[0] stays nil. The first fresh entries are
	// current; Commit lowers fresh to the slot its carry chain ends in.
	// Buffers past fresh are kept for reuse. Not checkpointed: a restored
	// streamer starts with none and its first Current rebuilds them.
	folds  []*StreamNode
	fresh  int
	victim *StreamNode // merge victim copy (Current must not destroy the spine)
}

// NewStreamer returns an empty streaming factorization over n columns and
// nrhs ride-along right-hand-side columns (0 for R-only streams).
func NewStreamer(n, nrhs int, opts Options) (*Streamer, error) {
	if n < 1 {
		return nil, fmt.Errorf("qr: stream needs at least one column, got %d", n)
	}
	if nrhs < 0 {
		return nil, fmt.Errorf("qr: negative rhs count %d", nrhs)
	}
	return &Streamer{n: n, nrhs: nrhs, opts: opts.normalize()}, nil
}

// RestoreStreamer rebuilds a streamer from a checkpointed spine, taking
// ownership of the nodes. The spine must be ordered oldest first with
// strictly decreasing block counts (the binary-counter invariant).
func RestoreStreamer(n, nrhs int, opts Options, spine []*StreamNode) (*Streamer, error) {
	s, err := NewStreamer(n, nrhs, opts)
	if err != nil {
		return nil, err
	}
	for i, nd := range spine {
		if nd.Blocks < 1 || nd.Rows < 1 {
			return nil, fmt.Errorf("qr: spine node %d folds %d blocks / %d rows", i, nd.Blocks, nd.Rows)
		}
		if i > 0 && nd.Blocks >= spine[i-1].Blocks {
			return nil, fmt.Errorf("qr: spine block counts not strictly decreasing at node %d", i)
		}
		if nd.R == nil || nd.R.Rows != n || nd.R.Cols != n {
			return nil, fmt.Errorf("qr: spine node %d R is not %dx%d", i, n, n)
		}
		if nrhs == 0 && nd.QTB != nil {
			return nil, fmt.Errorf("qr: spine node %d carries rhs on an R-only stream", i)
		}
		if nrhs > 0 && (nd.QTB == nil || nd.QTB.Rows != n || nd.QTB.Cols != nrhs) {
			return nil, fmt.Errorf("qr: spine node %d QTB is not %dx%d", i, n, nrhs)
		}
		s.blocks += nd.Blocks
		s.rows += nd.Rows
	}
	s.spine = append(s.spine, spine...)
	return s, nil
}

// N returns the stream's column count.
func (s *Streamer) N() int { return s.n }

// NRHS returns the stream's ride-along right-hand-side column count.
func (s *Streamer) NRHS() int { return s.nrhs }

// Opts returns the stream's normalized algorithm configuration.
func (s *Streamer) Opts() Options { return s.opts }

// Blocks returns the number of row blocks committed so far.
func (s *Streamer) Blocks() int64 { return s.blocks }

// Rows returns the number of matrix rows committed so far.
func (s *Streamer) Rows() int64 { return s.rows }

// SpineDepth returns the number of committed subtree roots (= popcount of
// Blocks); it never exceeds ⌈log₂ Blocks⌉+1.
func (s *Streamer) SpineDepth() int { return len(s.spine) }

// Spine exposes the committed subtree roots, oldest first, for checkpoint
// serialization. The caller must not mutate the nodes and must hold the
// same lock that serializes Commit.
func (s *Streamer) Spine() []*StreamNode { return s.spine }

func (s *Streamer) hook(class string) {
	if s.Hook != nil {
		s.Hook(class)
	}
}

// LeafReduce factorizes one appended row block into a leaf node: the
// block's nb-row chunks are folded into an n×n R, starting from zero, by one
// TS Dtpqr2 step each (the flat-tree leaf reduction), and rhs — required
// exactly when the stream carries right-hand sides — rides along into the
// leaf's QᵀB in the same steps. The block and rhs contents are consumed:
// callers must not rely on them afterwards.
//
// Once the inputs are validated, the leaf's R and QᵀB are laid zeroed in one
// slab of slab.Floats, which Release gives back once the leaf is merged away
// or its streamer dropped; a leaf that is never committed is left to the GC.
//
// LeafReduce does not touch the spine: concurrent calls on distinct
// workspaces are safe, which is what lets a session overlap the leaf work of
// append k+1 with the commit of append k. Results are deterministic in the
// inputs alone, so pipelined and sequential executions are bitwise equal.
func (s *Streamer) LeafReduce(ws *kernels.Workspace, block, rhs *matrix.Mat) (*StreamNode, error) {
	if block == nil || block.Rows < 1 {
		return nil, fmt.Errorf("qr: empty append block")
	}
	if block.Cols != s.n {
		return nil, fmt.Errorf("qr: append block has %d cols, stream has %d", block.Cols, s.n)
	}
	if s.nrhs == 0 && rhs != nil {
		return nil, fmt.Errorf("qr: rhs passed to an R-only stream")
	}
	if s.nrhs > 0 && (rhs == nil || rhs.Rows != block.Rows || rhs.Cols != s.nrhs) {
		return nil, fmt.Errorf("qr: append rhs must be %dx%d", block.Rows, s.nrhs)
	}
	if ws == nil {
		ws = kernels.BorrowWorkspace()
		defer kernels.ReturnWorkspace(ws)
	}
	nd := &StreamNode{Blocks: 1, Rows: int64(block.Rows)}
	s.lay(nd)
	clear(nd.buf)
	nb := s.opts.NB
	for r := 0; r < block.Rows; r += nb {
		cr := min(nb, block.Rows-r)
		var c2 *matrix.Mat
		if s.nrhs > 0 {
			c2 = rhs.View(r, 0, cr, s.nrhs)
		}
		kernels.Dtpqr2(ws, 0, nd.R, block.View(r, 0, cr, s.n), nil, nd.QTB, c2)
		s.hook("tsqrt")
	}
	return nd, nil
}

// merge folds victim into surv (the older, larger subtree) with one TT
// Dtpqr2 step. victim's QTB is overwritten.
func (s *Streamer) merge(ws *kernels.Workspace, surv, victim *StreamNode) {
	kernels.Dtpqr2(ws, s.n, surv.R, victim.R, nil, surv.QTB, victim.QTB)
	s.hook("ttqrt")
	surv.Blocks += victim.Blocks
	surv.Rows += victim.Rows
}

// Commit appends a reduced leaf to the spine and runs the carry chain:
// while the two newest subtrees are equal sized they merge, exactly the
// leaf-to-root path of the binary reduction tree, and each node merged away
// gives its slab back to slab.Floats. Takes ownership of nd. Callers must
// serialize Commit with Current and Spine.
func (s *Streamer) Commit(ws *kernels.Workspace, nd *StreamNode) {
	if ws == nil {
		ws = kernels.BorrowWorkspace()
		defer kernels.ReturnWorkspace(ws)
	}
	s.spine = append(s.spine, nd)
	s.blocks += nd.Blocks
	s.rows += nd.Rows
	for len(s.spine) >= 2 && s.spine[len(s.spine)-1].Blocks == s.spine[len(s.spine)-2].Blocks {
		victim := s.spine[len(s.spine)-1]
		s.merge(ws, s.spine[len(s.spine)-2], victim)
		s.spine[len(s.spine)-1] = nil
		s.spine = s.spine[:len(s.spine)-1]
		s.Release(victim)
	}
	// The chain ends in the newest slot; every older entry is untouched.
	s.fresh = min(s.fresh, len(s.spine)-1)
}

// lay lays nd's R and, when the stream carries right-hand sides, its QᵀB
// in one slab of slab.Floats, with stale contents.
func (s *Streamer) lay(nd *StreamNode) {
	nr, nq := s.n*s.n, s.n*s.nrhs
	nd.buf = slab.Floats.Take(nr + nq)
	nd.R = matrix.FromColMajor(s.n, s.n, s.n, nd.buf[:nr:nr])
	nd.QTB = nil
	if s.nrhs > 0 {
		nd.QTB = matrix.FromColMajor(s.n, s.nrhs, s.n, nd.buf[nr:nr+nq:nr+nq])
	}
}

// Release gives back to slab.Floats, once, the slab of each node LeafReduce
// or Current laid; nothing may read a released node, and a nil node is
// skipped. Commit releases what its carry chain merges away; a caller
// dropping the streamer calls ReleaseAll.
func (s *Streamer) Release(nodes ...*StreamNode) {
	for _, nd := range nodes {
		if nd != nil {
			slab.Floats.Put(nd.buf) // a nil buf, a node the caller built, files nothing
			nd.buf = nil
		}
	}
}

// ReleaseAll gives back, through Release, every slab the streamer holds —
// its spine, the prefix folds and the merge victim of Current — and those
// of held, the nodes Current laid for the caller. Nothing may use the
// streamer or those nodes afterwards.
func (s *Streamer) ReleaseAll(held ...*StreamNode) {
	s.Release(s.spine...)
	s.Release(s.folds...)
	s.Release(s.victim)
	s.Release(held...)
	s.spine, s.folds, s.victim, s.fresh = nil, nil, nil, 0
}

// Current returns the global factorization state — the R (and QᵀB) of
// every row committed so far — without disturbing the committed nodes. It
// extends the cached spine prefix folds from the first one the last Commit
// made stale, so after an append at most one merge fires (none when nothing
// was committed since the last Current); merge victims are copied into
// streamer-owned scratch first. dst's buffers are reused when correctly
// shaped; pass nil for a new node. The result aliases dst, never the spine
// or the folds, so callers may hold it across later appends. The folds, the
// victim copy and a node laid for dst lie in slabs of slab.Floats, which
// ReleaseAll (and Release, for dst) give back.
func (s *Streamer) Current(ws *kernels.Workspace, dst *StreamNode) *StreamNode {
	if len(s.spine) == 0 {
		empty := &StreamNode{R: matrix.New(s.n, s.n)}
		if s.nrhs > 0 {
			empty.QTB = matrix.New(s.n, s.nrhs)
		}
		return s.copyNode(dst, empty)
	}
	if s.fresh < len(s.spine) {
		if ws == nil {
			ws = kernels.BorrowWorkspace()
			defer kernels.ReturnWorkspace(ws)
		}
		for i := max(s.fresh, 1); i < len(s.spine); i++ {
			for len(s.folds) <= i {
				s.folds = append(s.folds, nil)
			}
			s.folds[i] = s.copyNode(s.folds[i], s.fold(i-1))
			s.victim = s.copyNode(s.victim, s.spine[i])
			s.merge(ws, s.folds[i], s.victim)
		}
		s.fresh = len(s.spine)
	}
	return s.copyNode(dst, s.fold(len(s.spine)-1))
}

// fold returns the left-to-right fold of spine[0..i]; Current keeps every
// fold it reads fresh.
func (s *Streamer) fold(i int) *StreamNode {
	if i == 0 {
		return s.spine[0]
	}
	return s.folds[i]
}

// copyNode copies src into dst, reusing dst's buffers when correctly shaped;
// a nil dst is a new node, and a node of another shape is laid anew (lay).
func (s *Streamer) copyNode(dst, src *StreamNode) *StreamNode {
	if dst == nil {
		dst = &StreamNode{}
	}
	if !shaped(dst.R, s.n, s.n) || s.nrhs > 0 && !shaped(dst.QTB, s.n, s.nrhs) {
		s.lay(dst)
	}
	dst.Blocks, dst.Rows = src.Blocks, src.Rows
	dst.R.CopyFrom(src.R)
	if s.nrhs > 0 {
		dst.QTB.CopyFrom(src.QTB)
	} else {
		dst.QTB = nil
	}
	return dst
}

// shaped reports whether m is exactly rows×cols.
func shaped(m *matrix.Mat, rows, cols int) bool {
	return m != nil && m.Rows == rows && m.Cols == cols
}
