package qr

import (
	"strings"
	"testing"
)

func TestOptionsNormalize(t *testing.T) {
	o := Options{}.Resolve(10, 4)
	if o.NB <= 0 || o.IB <= 0 || o.H <= 0 {
		t.Fatalf("defaults not filled: %+v", o)
	}
	if o.IB > o.NB {
		t.Fatal("ib must not exceed nb")
	}
	// Oversized IB is clamped.
	o = Options{NB: 8, IB: 99}.Resolve(10, 4)
	if o.IB > o.NB {
		t.Fatalf("ib %d not clamped to nb %d", o.IB, o.NB)
	}
	// An unset H is one domain per worker, h = max(1, ⌈mt/W⌉); a worker
	// count below one counts as one.
	for _, c := range []struct{ mt, w, h int }{
		{43, 2, 22}, {11, 2, 6}, {43, 1, 43}, {10, 4, 3}, {8, 4, 2},
		{3, 8, 1}, {0, 2, 1}, {5, 0, 5}, {5, -3, 5},
	} {
		if got := (Options{}).Resolve(c.mt, c.w).H; got != c.h {
			t.Errorf("Resolve(mt=%d, W=%d).H = %d, want %d", c.mt, c.w, got, c.h)
		}
	}
	// An explicit H always wins.
	if got := (Options{H: 4}).Resolve(43, 2).H; got != 4 {
		t.Errorf("explicit h=4 resolved to %d", got)
	}
}

func TestDomainSizeByTree(t *testing.T) {
	mt := 40
	if got := (Options{Tree: FlatTree, H: 5}).domainSize(mt); got != mt {
		t.Fatalf("flat domain size %d", got)
	}
	if got := (Options{Tree: BinaryTree, H: 5}).domainSize(mt); got != 1 {
		t.Fatalf("binary domain size %d", got)
	}
	if got := (Options{Tree: HierarchicalTree, H: 5}).domainSize(mt); got != 5 {
		t.Fatalf("hierarchical domain size %d", got)
	}
}

func TestStringers(t *testing.T) {
	cases := map[string]string{
		FlatTree.String():         "flat",
		BinaryTree.String():       "binary",
		HierarchicalTree.String(): "hierarchical",
		ShiftedBoundary.String():  "shifted",
		FixedBoundary.String():    "fixed",
		BinaryInter.String():      "binary-inter",
		FlatInter.String():        "flat-inter",
		Geqrt.String():            "geqrt",
		Tsqrt.String():            "tsqrt",
		Ttqrt.String():            "ttqrt",
	}
	for got, want := range cases {
		if got != want {
			t.Fatalf("stringer: got %q want %q", got, want)
		}
	}
	s := (Options{NB: 192, IB: 48, Tree: HierarchicalTree, H: 6}).String()
	for _, frag := range []string{"nb=192", "ib=48", "h=6", "hierarchical"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("Options.String %q missing %q", s, frag)
		}
	}
	// Runs that differ only in the second-level tree print differently.
	for _, inter := range []InterTree{BinaryInter, FlatInter} {
		s := (Options{NB: 192, IB: 48, Tree: HierarchicalTree, H: 6, Inter: inter}).String()
		if want := "inter=" + inter.String(); !strings.Contains(s, want) {
			t.Fatalf("Options.String %q missing %q", s, want)
		}
	}
}

func TestPlanLastPanelSingleRow(t *testing.T) {
	o := Options{NB: 8, IB: 4, Tree: HierarchicalTree, H: 3}.normalize()
	p := planPanel(9, 10, o)
	if len(p.Domains) != 1 || p.Domains[0].Top != 9 || len(p.Domains[0].Rows) != 0 {
		t.Fatalf("single-row panel plan wrong: %+v", p)
	}
	if len(p.Merges) != 0 {
		t.Fatal("single domain needs no merges")
	}
}

func TestPlanPanicsOutOfRange(t *testing.T) {
	o := Options{NB: 8, IB: 4}.normalize()
	for _, j := range []int{-1, 10} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("planPanel(%d, 10) must panic", j)
				}
			}()
			planPanel(j, 10, o)
		}()
	}
}

func TestEngineAndClassNames(t *testing.T) {
	for _, c := range []string{ClassPanel, ClassUpdate, ClassBinary, ClassBinaryUpdate} {
		if c == "" {
			t.Fatal("empty class name")
		}
	}
}
