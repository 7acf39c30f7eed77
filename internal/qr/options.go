// Package qr implements the paper's contribution: a tile QR factorization
// of a tall-and-skinny matrix whose panels are reduced by a hierarchical
// tree — flat-trees over domains of h tiles followed by a binary tree over
// the domain tops — executed either sequentially (the reference) or as a
// 3D Virtual Systolic Array on the PULSAR runtime.
package qr

import "fmt"

// TreeKind selects the panel reduction tree.
type TreeKind int

const (
	// HierarchicalTree is a binary tree on top of flat-trees: rows are
	// grouped into domains of H tiles, each domain is reduced by a
	// flat-tree, and the domain tops are combined by a binary tree. This
	// is the configuration the paper advocates for tall-skinny matrices.
	HierarchicalTree TreeKind = iota
	// FlatTree reduces the whole panel with a single flat-tree (the
	// "domino" configuration of the authors' previous work): best data
	// locality, least parallelism.
	FlatTree
	// BinaryTree reduces the panel purely pairwise: most parallelism,
	// least locality, and it pays the lower kernel efficiency of the
	// triangle-triangle operations.
	BinaryTree
)

func (k TreeKind) String() string {
	switch k {
	case FlatTree:
		return "flat"
	case BinaryTree:
		return "binary"
	default:
		return "hierarchical"
	}
}

// ParseTree maps a wire-format tree name onto its TreeKind. The empty
// string means "the default" (hierarchical), matching the service's JobSpec
// convention.
func ParseTree(s string) (TreeKind, error) {
	switch s {
	case "", "hierarchical":
		return HierarchicalTree, nil
	case "flat":
		return FlatTree, nil
	case "binary":
		return BinaryTree, nil
	default:
		return HierarchicalTree, fmt.Errorf("qr: unknown tree %q", s)
	}
}

// InterTree selects the second-level reduction combining the domain tops
// of a hierarchical panel. The paper fixes this to a binary tree ("instead
// of enumerating and subsequently testing all possible tree variants ...
// we focus on a more generic tree, i.e., binary-tree on top of
// flat-trees"); the hierarchical-QR work it builds on (Dongarra et al.,
// IPDPS'12) enumerates further variants, of which the flat chain is
// implemented here as an ablation.
type InterTree int

const (
	// BinaryInter merges domain tops pairwise, level by level: depth
	// ⌈log₂ d⌉, maximal parallelism between merges. The paper's choice.
	BinaryInter InterTree = iota
	// FlatInter folds every domain top into the panel top in sequence:
	// depth d−1, no merge parallelism, but each merge reuses the same
	// survivor (locality). Useful to show why the binary second level
	// matters at scale.
	FlatInter
)

func (t InterTree) String() string {
	if t == FlatInter {
		return "flat-inter"
	}
	return "binary-inter"
}

// BoundaryPolicy selects how domain boundaries move between consecutive
// panels (paper Fig. 6).
type BoundaryPolicy int

const (
	// ShiftedBoundary starts the domain partition at the current panel
	// row, so the boundary shifts by one tile per panel. Consecutive
	// flat-tree reductions overlap much better (paper Fig. 7b).
	ShiftedBoundary BoundaryPolicy = iota
	// FixedBoundary aligns domains to absolute row multiples of H for the
	// whole factorization (paper Fig. 7a); kept for the ablation study.
	FixedBoundary
)

func (b BoundaryPolicy) String() string {
	if b == FixedBoundary {
		return "fixed"
	}
	return "shifted"
}

// Options parameterizes a factorization.
type Options struct {
	// NB is the tile size (paper: 192 or 240).
	NB int
	// IB is the inner blocking of the kernels (paper: 48).
	IB int
	// Tree selects the panel reduction tree.
	Tree TreeKind
	// H is the number of tiles per flat-tree domain for the hierarchical
	// tree (paper: 6 or 12); 0 means one domain per worker (Resolve).
	// Ignored for flat (whole panel) and binary (1) trees.
	H int
	// Boundary selects shifted (default) or fixed domain boundaries.
	Boundary BoundaryPolicy
	// Inter selects the second-level tree over domain tops
	// (hierarchical tree only); the default is the paper's binary tree.
	Inter InterTree
}

// DefaultOptions is the one definition of the default configuration: every
// path that fills an unset field — Resolve below, pulsarqr, the service's
// JobSpec, the planner's baseline candidate, the CLI flag defaults — reads
// it from here. The tile is the paper's nb=192 (a multiple of both
// dimensions of the 12×8 micro-kernel); ib=24 is what the sweep in
// docs/KERNELS.md measures fastest for these kernels. It is a constant, not
// a shape rule: the sweep found no shape on which it loses to the old 64/16,
// and a host where another tile wins sets NB and IB explicitly.
// H is 0, "one flat-tree domain per worker": it depends on the shape and the
// worker count, so Resolve fills it once both are known.
func DefaultOptions() Options {
	return Options{NB: 192, IB: 24, Tree: HierarchicalTree, Boundary: ShiftedBoundary}
}

// Resolve returns o with every unset field filled for a matrix of mt tile
// rows factored by workers workers (ranks × threads, as requested — not as
// the engine that runs happens to size itself). NB and IB come from
// DefaultOptions; an unset IB, or one above the tile, takes the default's
// clamped to the tile. An unset H takes one flat-tree domain per worker,
// h = max(1, ⌈mt/W⌉), after parallel TSQR's one leaf per processor (Demmel
// et al.) and HQR's domain of the rows a node owns: each worker reduces one
// domain with the fast TS kernels and the slow TT merges shrink to W−1 per
// panel. This is the one place an unset H is filled; an explicit H is kept,
// and the flat and binary trees ignore it.
func (o Options) Resolve(mt, workers int) Options {
	o = o.normalize()
	if o.H <= 0 {
		w := max(workers, 1)
		o.H = max(1, (mt+w-1)/w)
	}
	return o
}

// normalize fills an unset NB and IB from DefaultOptions (an oversized IB
// takes the default's, clamped to the tile). H is Resolve's.
func (o Options) normalize() Options {
	def := DefaultOptions()
	if o.NB <= 0 {
		o.NB = def.NB
	}
	if o.IB <= 0 || o.IB > o.NB {
		o.IB = min(def.IB, o.NB)
	}
	return o
}

// domainSize returns the effective flat-tree domain size for mt tile rows.
func (o Options) domainSize(mt int) int {
	switch o.Tree {
	case FlatTree:
		return mt // one domain spans everything
	case BinaryTree:
		return 1
	default:
		return o.H
	}
}

func (o Options) String() string {
	return fmt.Sprintf("tree=%v nb=%d ib=%d h=%d boundary=%v", o.Tree, o.NB, o.IB, o.H, o.Boundary)
}
