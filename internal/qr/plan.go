package qr

import "fmt"

// Domain is one flat-tree reduction unit within a panel: Top is the tile
// row that absorbs the others; Rows lists the remaining rows in
// elimination order.
type Domain struct {
	Top  int
	Rows []int
}

// Merge is one binary-tree combination of two domain tops: the R factor in
// row K is folded into the R factor in row Surv by a dttqrt. Level orders
// the tree levels; merges on the same level are independent.
type Merge struct {
	Surv, K int
	Level   int
}

// PanelPlan is the reduction plan of one panel: which rows form which
// domains and how the domain tops are merged. Only the listing (List) reads
// it; the sequential reference, the task-superscalar baseline, the 3D VSA
// and the performance simulator all take the listing, so all of them
// perform the same arithmetic in the same per-datum order.
type PanelPlan struct {
	J       int
	Domains []Domain
	Merges  []Merge
}

// planPanel computes the reduction plan of panel j for mt tile rows.
func planPanel(j, mt int, o Options) PanelPlan {
	if j < 0 || j >= mt {
		panic(fmt.Sprintf("qr: panel %d out of %d tile rows", j, mt))
	}
	h := o.domainSize(mt)
	p := PanelPlan{J: j}

	// Partition rows j..mt-1 into domains.
	start := j
	for start < mt {
		end := start + h // exclusive
		if o.Tree == HierarchicalTree && o.Boundary == FixedBoundary {
			// Domains aligned to absolute multiples of h; the first domain
			// of a panel may be partial.
			end = (start/h + 1) * h
		}
		if end > mt {
			end = mt
		}
		d := Domain{Top: start}
		for r := start + 1; r < end; r++ {
			d.Rows = append(d.Rows, r)
		}
		p.Domains = append(p.Domains, d)
		start = end
	}

	// Second-level tree over domain tops.
	tops := make([]int, len(p.Domains))
	for i, d := range p.Domains {
		tops[i] = d.Top
	}
	switch o.Inter {
	case FlatInter:
		for level, t := range tops[1:] {
			p.Merges = append(p.Merges, Merge{Surv: tops[0], K: t, Level: level})
		}
	default: // BinaryInter
		level := 0
		for step := 1; step < len(tops); step *= 2 {
			for a := 0; a+step < len(tops); a += 2 * step {
				p.Merges = append(p.Merges, Merge{Surv: tops[a], K: tops[a+step], Level: level})
			}
			level++
		}
	}
	return p
}
