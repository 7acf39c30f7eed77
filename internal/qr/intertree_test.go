package qr

import (
	"math"
	"math/rand"
	"testing"

	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
)

func TestPlanFlatInterStructure(t *testing.T) {
	o := Options{NB: 8, IB: 4, Tree: HierarchicalTree, H: 4, Inter: FlatInter}.normalize()
	p := planPanel(0, 24, o)
	// 6 domains, tops 0,4,8,...,20: flat chain folds each into top 0.
	if len(p.Merges) != 5 {
		t.Fatalf("merges: %+v", p.Merges)
	}
	for i, m := range p.Merges {
		if m.Surv != 0 || m.K != (i+1)*4 || m.Level != i {
			t.Fatalf("merge %d = %+v", i, m)
		}
	}
}

func TestPlanFlatInterInvariants(t *testing.T) {
	// The generic plan invariants must hold for the flat inter-tree too.
	o := Options{NB: 8, IB: 4, Tree: HierarchicalTree, H: 3, Inter: FlatInter}.normalize()
	for _, mt := range []int{5, 9, 17} {
		for j := 0; j < mt; j++ {
			p := planPanel(j, mt, o)
			elim := map[int]bool{}
			for _, m := range p.Merges {
				if elim[m.Surv] || elim[m.K] {
					t.Fatalf("mt=%d j=%d: reuse of eliminated top: %+v", mt, j, p.Merges)
				}
				elim[m.K] = true
			}
			if elim[j] {
				t.Fatalf("mt=%d j=%d: panel top eliminated", mt, j)
			}
			if len(elim) != len(p.Domains)-1 {
				t.Fatalf("mt=%d j=%d: %d merges for %d domains", mt, j, len(elim), len(p.Domains))
			}
		}
	}
}

func TestFlatInterEnginesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	d := matrix.NewRand(66, 17, rng)
	b := matrix.NewRand(66, 2, rng)
	o := Options{NB: 8, IB: 4, Tree: HierarchicalTree, H: 3, Inter: FlatInter}
	seq, err := Factorize(matrix.FromDense(d, o.NB), matrix.FromDense(b, o.NB), o)
	if err != nil {
		t.Fatal(err)
	}
	if res := seq.Residual(d); res > 1e-13 {
		t.Fatalf("flat-inter residual %v", res)
	}
	vsa, err := FactorizeVSA(matrix.FromDense(d, o.NB), matrix.FromDense(b, o.NB), o,
		RunConfig{Nodes: 2, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	assertFactorizationsEqual(t, seq, vsa)
	qk, err := FactorizeQuark(matrix.FromDense(d, o.NB), matrix.FromDense(b, o.NB), o, 3)
	if err != nil {
		t.Fatal(err)
	}
	assertFactorizationsEqual(t, seq, qk)
}

func TestQThinReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, o := range []Options{
		{NB: 8, IB: 4, Tree: HierarchicalTree, H: 3},
		{NB: 8, IB: 4, Tree: BinaryTree},
	} {
		m, n := 29, 11
		d := matrix.NewRand(m, n, rng)
		f := factorDense(t, d, o)
		q := f.Q()
		if q.Rows != m || q.Cols != n {
			t.Fatalf("thin Q shape %dx%d", q.Rows, q.Cols)
		}
		// QᵀQ = I and Q·R = A.
		if diff := matrix.MaxAbsDiff(q.Transpose().Mul(q), matrix.Identity(n)); diff > 1e-12 {
			t.Fatalf("%v: thin Q not orthonormal: %v", o, diff)
		}
		if diff := matrix.MaxAbsDiff(q.Mul(f.R()), d); diff > 1e-12 {
			t.Fatalf("%v: QR != A: %v", o, diff)
		}
	}
}

func TestQFullOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	o := Options{NB: 8, IB: 4, Tree: HierarchicalTree, H: 2}
	m, n := 21, 9
	d := matrix.NewRand(m, n, rng)
	f := factorDense(t, d, o)
	q := f.QFull()
	if q.Rows != m || q.Cols != m {
		t.Fatalf("full Q shape %dx%d", q.Rows, q.Cols)
	}
	if diff := matrix.MaxAbsDiff(q.Transpose().Mul(q), matrix.Identity(m)); diff > 1e-12 {
		t.Fatalf("full Q not orthogonal: %v", diff)
	}
	// The thin Q is the first n columns of the full Q.
	if diff := matrix.MaxAbsDiff(q.View(0, 0, m, n), f.Q()); diff > 1e-12 {
		t.Fatalf("thin/full Q mismatch: %v", diff)
	}
}

// householderR is an oracle that shares nothing with the tile algorithm but
// Dlarfg: the textbook unblocked Householder QR of a dense matrix, one
// reflector per column applied to the columns right of it — no tiles, no T
// factors, no tree. R is the upper triangle of what it returns.
func householderR(d *matrix.Mat) *matrix.Mat {
	a := d.Clone()
	m, n := a.Rows, a.Cols
	for j := 0; j < n; j++ {
		v := a.Col(j)
		tau := kernels.Dlarfg(&v[j], v[j+1:])
		for l := j + 1; l < n; l++ {
			c := a.Col(l)
			w := c[j] // vᵀc, v = [1; v[j+1:]]
			for i := j + 1; i < m; i++ {
				w += v[i] * c[i]
			}
			c[j] -= tau * w
			for i := j + 1; i < m; i++ {
				c[i] -= tau * w * v[i]
			}
		}
	}
	return a.View(0, 0, n, n)
}

// TestCrossValidateAgainstBlockQR compares the tree-based tile QR against
// a completely independent algorithm, the unblocked column-by-column
// Householder QR: |R| must agree entrywise (R is unique up to row signs for
// a full-rank matrix).
func TestCrossValidateAgainstBlockQR(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	m, n := 57, 18
	d := matrix.NewRand(m, n, rng)
	tile := factorDense(t, d, Options{NB: 8, IB: 4, Tree: HierarchicalTree, H: 3})
	rt, rb := tile.R(), householderR(d)
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			if diff := math.Abs(math.Abs(rt.At(i, j)) - math.Abs(rb.At(i, j))); diff > 1e-11 {
				t.Fatalf("|R(%d,%d)| differs between tile and unblocked QR by %v", i, j, diff)
			}
		}
	}
}
