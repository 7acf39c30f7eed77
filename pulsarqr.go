// Package pulsarqr is a tree-based tile QR decomposition for tall-and-
// skinny dense matrices, executed on a 3D Virtual Systolic Array by a
// lightweight dataflow runtime — a Go reproduction of Yamazaki, Kurzak,
// Luszczek and Dongarra, "Design and Implementation of a Large Scale
// Tree-Based QR Decomposition Using a 3D Virtual Systolic Array and a
// Lightweight Runtime" (IPDPS 2014).
//
// The package exposes four execution engines over the same algorithm:
//
//   - Systolic: the paper's contribution — the factorization mapped onto a
//     3D array of Virtual Data Processors run by the PULSAR-style runtime
//     (workers + communication proxy per node);
//   - Domino: the authors' original 2D array (paper Fig. 9), flat-tree
//     reduction only;
//   - TaskSuperscalar: a QUARK-style dynamic task runtime (the class of
//     system the paper compares against);
//   - Sequential: the single-threaded reference.
//
// All engines execute the identical kernel sequence, so their results are
// elementwise equal; they differ only in how the work is scheduled. The
// vsa subpackage exposes the runtime itself for new algorithms.
//
// Quick start:
//
//	a := pulsarqr.RandomMatrix(4096, 256, 1)
//	f, err := pulsarqr.Factor(a, pulsarqr.DefaultOptions())
//	// f.R(), f.Solve(b), f.Residual(a), ...
package pulsarqr

import (
	"fmt"
	"math/rand"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/pulsar"
	"pulsarqr/internal/qr"
)

// Matrix is a column-major dense matrix of float64.
type Matrix = matrix.Mat

// Factorization is an implicit QR factorization: R plus the log of its
// Householder transformations, one (V,T) per panel call of the kernel-call
// listing, in its order (see R, Solve, ApplyQT, ApplyQ, Residual).
type Factorization = qr.Factorization

// Tree selects the panel reduction tree.
type Tree = qr.TreeKind

// Tree kinds (see the paper §V-B): Hierarchical is a binary tree over
// flat-tree domains of H tiles and is the configuration the paper
// advocates for tall-skinny matrices.
const (
	Hierarchical = qr.HierarchicalTree
	Flat         = qr.FlatTree
	Binary       = qr.BinaryTree
)

// Boundary selects how flat-tree domain boundaries move between panels.
type Boundary = qr.BoundaryPolicy

// Boundary policies (paper Fig. 6): Shifted pipelines consecutive
// reductions and is the default; Fixed is kept for the ablation study.
const (
	Shifted = qr.ShiftedBoundary
	Fixed   = qr.FixedBoundary
)

// InterTree selects the second-level reduction over domain tops of the
// hierarchical tree.
type InterTree = qr.InterTree

// Second-level trees: BinaryInter is the paper's binary-on-flat choice;
// FlatInter is the flat-chain ablation.
const (
	BinaryInter = qr.BinaryInter
	FlatInter   = qr.FlatInter
)

// Engine selects how the factorization executes.
type Engine int

const (
	// Systolic runs the 3D virtual systolic array on the PULSAR-style
	// runtime.
	Systolic Engine = iota
	// TaskSuperscalar runs the same kernels under a QUARK-style dynamic
	// task runtime.
	TaskSuperscalar
	// Sequential runs the single-threaded reference.
	Sequential
	// Domino runs the authors' original 2D virtual systolic array (their
	// 2013 design, reproduced from Fig. 9 of the paper): one VDP per tile,
	// flat-tree reduction only — Options.Tree is ignored.
	Domino
)

func (e Engine) String() string {
	switch e {
	case TaskSuperscalar:
		return "task-superscalar"
	case Sequential:
		return "sequential"
	case Domino:
		return "domino"
	default:
		return "systolic"
	}
}

// Scheduling selects the worker scheme of the systolic runtime.
type Scheduling = pulsar.Scheduling

// Worker scheduling schemes (§IV-A): Lazy fires a ready VDP once and moves
// on (better lookahead, the paper's choice); Aggressive drains a VDP while
// it stays ready.
const (
	Lazy       = pulsar.Lazy
	Aggressive = pulsar.Aggressive
)

// Options configures a factorization.
type Options struct {
	// NB is the tile size; IB the kernels' inner blocking (paper: 192/48).
	// Zero takes the default's (DefaultOptions).
	NB, IB int
	// Tree selects the reduction tree; H sizes the flat-tree domains of
	// the hierarchical tree (paper: 6 or 12). Zero, the default, means one
	// domain per worker: ⌈tile rows / (Nodes·Threads)⌉ tiles, whichever
	// engine runs, so every engine at the same Options runs the same tree.
	Tree Tree
	H    int
	// Boundary selects shifted (default) or fixed domain boundaries.
	Boundary Boundary
	// Inter selects the second-level tree over domain tops (hierarchical
	// tree only; default is the paper's binary tree).
	Inter InterTree
	// Engine selects the execution engine (default Systolic).
	Engine Engine
	// Nodes and Threads shape the systolic runtime: Nodes simulated
	// distributed-memory nodes with Threads workers each. Defaults: 1
	// node, GOMAXPROCS-ish worker count chosen by the runtime when zero.
	// For TaskSuperscalar, Nodes*Threads is the worker count.
	Nodes, Threads int
	// Scheduling selects the systolic worker scheme.
	Scheduling Scheduling
}

// DefaultOptions returns the paper's preferred configuration — hierarchical
// tree, shifted boundaries, systolic engine — at the library's default tile
// (qr.DefaultOptions is the one definition of NB, IB and H; H is 0, one
// flat-tree domain per worker).
func DefaultOptions() Options {
	d := qr.DefaultOptions()
	return Options{NB: d.NB, IB: d.IB, Tree: d.Tree, H: d.H, Boundary: d.Boundary,
		Engine: Systolic, Nodes: 1, Threads: 4}
}

// tileSize is the NB the inputs are tiled with: the caller's, or the default.
func (o Options) tileSize() int {
	if o.NB > 0 {
		return o.NB
	}
	return qr.DefaultOptions().NB
}

func (o Options) internal() qr.Options {
	return qr.Options{NB: o.NB, IB: o.IB, Tree: o.Tree, H: o.H, Boundary: o.Boundary, Inter: o.Inter}
}

// NewMatrix returns a zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix { return matrix.New(rows, cols) }

// RandomMatrix returns a rows×cols matrix with entries uniform in (−1, 1),
// deterministically seeded.
func RandomMatrix(rows, cols int, seed int64) *Matrix {
	return matrix.NewRand(rows, cols, rand.New(rand.NewSource(seed)))
}

// Factor computes the QR factorization of a (m ≥ n required). The input
// matrix is not modified.
func Factor(a *Matrix, opts Options) (*Factorization, error) {
	return factor(a, nil, opts)
}

// FactorWithRHS factors a while carrying the right-hand-side columns of b
// through every update, leaving QᵀB in the factorization — the cheapest
// route to a least-squares solve (see Factorization.SolveFromQTB). Neither
// input is modified.
func FactorWithRHS(a, b *Matrix, opts Options) (*Factorization, error) {
	if b == nil {
		return nil, fmt.Errorf("pulsarqr: FactorWithRHS needs a right-hand side")
	}
	return factor(a, b, opts)
}

func factor(a, b *Matrix, opts Options) (*Factorization, error) {
	opts.NB = opts.tileSize()
	ta := matrix.FromDense(a, opts.NB)
	var tb *matrix.Tiled
	if b != nil {
		tb = matrix.FromDense(b, opts.NB)
	}
	// h is resolved here, from the requested Nodes and Threads, so that the
	// Sequential engine at the same Options runs the systolic engine's tree.
	io := opts.internal().Resolve(ta.MT, max(opts.Nodes, 1)*max(opts.Threads, 1))
	switch opts.Engine {
	case Sequential:
		return qr.Factorize(ta, tb, io)
	case TaskSuperscalar:
		w := opts.Nodes * opts.Threads
		if w < 1 {
			w = 4
		}
		return qr.FactorizeQuark(ta, tb, io, w)
	case Domino:
		rc := qr.RunConfig{Nodes: opts.Nodes, Threads: opts.Threads, Scheduling: opts.Scheduling}
		return qr.FactorizeDomino(ta, tb, io, rc)
	default:
		rc := qr.RunConfig{Nodes: opts.Nodes, Threads: opts.Threads, Scheduling: opts.Scheduling}
		return qr.FactorizeVSA(ta, tb, io, rc)
	}
}

// LeastSquares returns the minimizer x of ‖A·x − b‖₂ for each column of b.
// As LAPACK's DGELS does, it returns an error and no x when R has an
// exactly zero diagonal entry: A is rank-deficient and x is not unique.
func LeastSquares(a, b *Matrix, opts Options) (*Matrix, error) {
	f, err := FactorWithRHS(a, b, opts)
	if err != nil {
		return nil, err
	}
	nb := f.Opts.NB
	for i := 0; i < f.N; i++ {
		if f.A.Tile(i/nb, i/nb).At(i%nb, i%nb) == 0 {
			return nil, fmt.Errorf("pulsarqr: LeastSquares: R(%d,%d) is exactly zero, A is rank-deficient", i, i)
		}
	}
	return f.SolveFromQTB(), nil
}
