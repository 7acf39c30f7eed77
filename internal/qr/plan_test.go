package qr

import (
	"testing"
	"testing/quick"
)

func opts(tree TreeKind, h int, b BoundaryPolicy) Options {
	return Options{NB: 8, IB: 4, Tree: tree, H: h, Boundary: b}.normalize()
}

func TestPlanFlatSingleDomain(t *testing.T) {
	p := planPanel(0, 7, opts(FlatTree, 3, ShiftedBoundary))
	if len(p.Domains) != 1 || p.Domains[0].Top != 0 || len(p.Domains[0].Rows) != 6 {
		t.Fatalf("flat plan wrong: %+v", p)
	}
	if len(p.Merges) != 0 {
		t.Fatal("flat tree must have no merges")
	}
}

func TestPlanBinaryAllSingletons(t *testing.T) {
	p := planPanel(1, 9, opts(BinaryTree, 3, ShiftedBoundary))
	if len(p.Domains) != 8 {
		t.Fatalf("binary plan has %d domains", len(p.Domains))
	}
	for _, d := range p.Domains {
		if len(d.Rows) != 0 {
			t.Fatal("binary domains must be singletons")
		}
	}
	if len(p.Merges) != 7 {
		t.Fatalf("binary tree over 8 tops needs 7 merges, got %d", len(p.Merges))
	}
}

func TestPlanHierarchicalShifted(t *testing.T) {
	p := planPanel(2, 12, opts(HierarchicalTree, 4, ShiftedBoundary))
	// Rows 2..11 (10 rows) in domains of 4 starting at 2: [2..5],[6..9],[10..11].
	wantTops := []int{2, 6, 10}
	if len(p.Domains) != 3 {
		t.Fatalf("domains: %+v", p.Domains)
	}
	for i, d := range p.Domains {
		if d.Top != wantTops[i] {
			t.Fatalf("domain %d top = %d, want %d", i, d.Top, wantTops[i])
		}
	}
	if len(p.Domains[2].Rows) != 1 {
		t.Fatal("last domain must hold the remaining rows")
	}
}

func TestPlanHierarchicalFixed(t *testing.T) {
	p := planPanel(2, 12, opts(HierarchicalTree, 4, FixedBoundary))
	// Fixed grid boundaries at 0,4,8: panel 2 sees [2..3],[4..7],[8..11].
	wantTops := []int{2, 4, 8}
	if len(p.Domains) != 3 {
		t.Fatalf("domains: %+v", p.Domains)
	}
	for i, d := range p.Domains {
		if d.Top != wantTops[i] {
			t.Fatalf("domain %d top = %d, want %d", i, d.Top, wantTops[i])
		}
	}
	if len(p.Domains[0].Rows) != 1 || len(p.Domains[1].Rows) != 3 {
		t.Fatalf("fixed boundary partial first domain wrong: %+v", p.Domains)
	}
}

func TestPlanShiftMovesBoundaryByOne(t *testing.T) {
	o := opts(HierarchicalTree, 4, ShiftedBoundary)
	p0 := planPanel(0, 16, o)
	p1 := planPanel(1, 16, o)
	if p0.Domains[1].Top != 4 || p1.Domains[1].Top != 5 {
		t.Fatalf("shifted boundaries: %d then %d", p0.Domains[1].Top, p1.Domains[1].Top)
	}
	f0 := planPanel(0, 16, opts(HierarchicalTree, 4, FixedBoundary))
	f1 := planPanel(1, 16, opts(HierarchicalTree, 4, FixedBoundary))
	if f0.Domains[1].Top != 4 || f1.Domains[1].Top != 4 {
		t.Fatal("fixed boundaries must not move")
	}
}

func TestPlanMergeTreeStructure(t *testing.T) {
	p := planPanel(0, 24, opts(HierarchicalTree, 4, ShiftedBoundary))
	// 6 domains: tops 0,4,8,12,16,20. Binary tree:
	// level 0: (0,4) (8,12) (16,20); level 1: (0,8); level 2: (0,16).
	want := []Merge{{0, 4, 0}, {8, 12, 0}, {16, 20, 0}, {0, 8, 1}, {0, 16, 2}}
	if len(p.Merges) != len(want) {
		t.Fatalf("merges: %+v", p.Merges)
	}
	for i, m := range p.Merges {
		if m != want[i] {
			t.Fatalf("merge %d = %+v, want %+v", i, m, want[i])
		}
	}
}

func TestPlanInvariantsProperty(t *testing.T) {
	f := func(mtRaw, jRaw, hRaw uint8, treeRaw, boundRaw uint8) bool {
		mt := int(mtRaw%40) + 1
		j := int(jRaw) % mt
		h := int(hRaw%8) + 1
		tree := TreeKind(treeRaw % 3)
		bound := BoundaryPolicy(boundRaw % 2)
		o := opts(tree, h, bound)
		p := planPanel(j, mt, o)

		// Every row j..mt-1 appears exactly once across domains.
		seen := map[int]bool{}
		for _, d := range p.Domains {
			if seen[d.Top] {
				return false
			}
			seen[d.Top] = true
			prev := d.Top
			for _, r := range d.Rows {
				if seen[r] || r != prev+1 {
					return false
				}
				seen[r] = true
				prev = r
			}
		}
		for r := j; r < mt; r++ {
			if !seen[r] {
				return false
			}
		}
		if len(seen) != mt-j {
			return false
		}
		// First domain top is the panel row.
		if p.Domains[0].Top != j {
			return false
		}
		// The merge tree eliminates every top except j, each exactly once,
		// and each merge's survivor has not been eliminated before it.
		elim := map[int]bool{}
		for _, m := range p.Merges {
			if elim[m.Surv] || elim[m.K] || m.Surv >= m.K {
				return false
			}
			elim[m.K] = true
		}
		if elim[j] || len(elim) != len(p.Domains)-1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestKernelCount(t *testing.T) {
	// Panel 0 of 8 tile rows with 3 trailing columns.
	var c [NumKernels + 1]int
	List(8, 4, 0, opts(HierarchicalTree, 4, ShiftedBoundary), func(call Call) {
		if call.J == 0 {
			c[call.Kernel]++
		}
	})
	// 2 domains of 4: 2 geqrt, 6 tsqrt, 1 merge.
	if c[Geqrt] != 2 || c[Tsqrt] != 6 || c[Ttqrt] != 1 {
		t.Fatalf("counts: %v", c)
	}
	if c[Ormqr] != 6 || c[Tsmqr] != 18 || c[Ttmqr] != 3 || c[WriteBack] != 1 {
		t.Fatalf("update counts: %v", c)
	}
}
