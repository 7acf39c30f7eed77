package qr

import (
	"math/rand"
	"testing"

	"pulsarqr/internal/batch"
	"pulsarqr/internal/blas"
	"pulsarqr/internal/matrix"
)

// The cross-tree oracle's bounds, in units of machine epsilon: each entry of
// a canonical R within rTol·ε·‖A‖_F of the flat tree's, and every entry of
// QᵀQ − I within qTol·ε. The table below reads at most 1.0 and 9.
const (
	rTol = 16
	qTol = 64
)

// treeConfigs is every reduction the planner and the engines can draw for a
// panel of mt tile rows at one tile: the binary tree, and the hierarchical
// tree at explicit heights and at the derived height for W ∈ {1, 2, 4, 8},
// each with shifted and fixed boundaries and both second-level trees. (The
// flat tree is the reference.)
func treeConfigs(nb, ib, mt int) []Options {
	out := []Options{{NB: nb, IB: ib, Tree: BinaryTree}}
	hs := map[int]bool{2: true, 3: true, 5: true}
	for _, w := range []int{1, 2, 4, 8} {
		hs[Options{NB: nb, IB: ib}.Resolve(mt, w).H] = true
	}
	for h := 1; h <= mt; h++ {
		if !hs[h] {
			continue
		}
		for _, b := range []BoundaryPolicy{ShiftedBoundary, FixedBoundary} {
			for _, in := range []InterTree{BinaryInter, FlatInter} {
				out = append(out, Options{NB: nb, IB: ib, Tree: HierarchicalTree, H: h, Boundary: b, Inter: in})
			}
		}
	}
	return out
}

const eps = 0x1p-52

// canonicalR factors d under o and returns R with diag(R) ≥ 0 (the batch
// path's rule), and ‖QᵀQ − I‖_max in units of ε, after checking it.
func canonicalR(t *testing.T, d *matrix.Mat, o Options) (*matrix.Mat, float64) {
	t.Helper()
	f := factorDense(t, d, o)
	q := f.Q()
	n := q.Cols
	qtq := matrix.New(n, n)
	blas.Dgemm(true, false, n, n, q.Rows, 1, q.Data, q.LD, q.Data, q.LD, 0, qtq.Data, qtq.LD)
	e := matrix.MaxAbsDiff(qtq, matrix.Identity(n)) / eps
	if !(e <= qTol) {
		t.Fatalf("%v: ‖QᵀQ − I‖_max = %.1fε, bound %dε", f.Opts, e, qTol)
	}
	r := f.R()
	batch.Canonicalize(r)
	return r, e
}

// TestTreesAgree is the cross-tree oracle. Every reduction tree computes
// the same R up to the signs of its rows (Demmel et al., communication-
// optimal TSQR), so after diag(R) ≥ 0 every tree, boundary, second-level
// tree and h — explicit or derived from a worker count — must land within
// rounding of the flat tree's R. The engines' bitwise agreement at one set
// of options cannot see a tree change; this can. It runs the shapes a
// derived h meets (tall, square, ragged, one and several tile columns, mt
// not a multiple of h) at a small tile, and the hard inputs whose R is
// unique at the default tile.
func TestTreesAgree(t *testing.T) {
	type input struct {
		name   string
		d      *matrix.Mat
		nb, ib int
	}
	rng := rand.New(rand.NewSource(36))
	var inputs []input
	for _, sh := range []struct {
		name   string
		m, n   int
		nb, ib int
	}{
		{"tall", 160, 16, 8, 4},
		{"square", 40, 40, 8, 4},
		{"ragged", 45, 13, 8, 3},
		{"one tile column", 77, 6, 8, 4},
		{"several tile columns", 72, 32, 8, 4},
		{"13 tile rows", 104, 12, 8, 4},
		{"ragged small tile", 38, 12, 5, 2},
	} {
		inputs = append(inputs, input{sh.name, matrix.NewRand(sh.m, sh.n, rng), sh.nb, sh.ib})
	}
	def := DefaultOptions()
	for _, h := range hardInputs() {
		if h.uniqueR {
			inputs = append(inputs, input{h.name, h.d, def.NB, def.IB})
		}
	}

	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			mt := (in.d.Rows + in.nb - 1) / in.nb
			ref, worstQ := canonicalR(t, in.d, Options{NB: in.nb, IB: in.ib, Tree: FlatTree})
			unit := eps * in.d.FrobNorm()
			worstR := 0.0
			configs := treeConfigs(in.nb, in.ib, mt)
			for _, o := range configs {
				r, q := canonicalR(t, in.d, o)
				d := matrix.MaxAbsDiff(r, ref) / unit
				if !(d <= rTol) {
					t.Errorf("%v: canonical R differs from the flat tree's by %.1fε‖A‖_F, bound %dε‖A‖_F", o, d, rTol)
				}
				worstR, worstQ = max(worstR, d), max(worstQ, q)
			}
			t.Logf("%d trees on %d tile rows: worst |ΔR| %.2fε‖A‖_F, worst ‖QᵀQ − I‖_max %.1fε", len(configs), mt, worstR, worstQ)
		})
	}
}
