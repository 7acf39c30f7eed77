package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one workload × end-to-end metric comparison.
const (
	same       = "same"
	improved   = "improved"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// worseBy is how far b's median is worse than a's, as a share of a's
// (negative when b is better).
func worseBy(a, b series, d metricDef) float64 {
	if a.Median == 0 {
		return 0
	}
	delta := (b.Median - a.Median) / a.Median
	if d.Better == "higher" {
		return -delta
	}
	return delta
}

// verdict compares metric d between two results: regressed or improved when
// the medians differ by more than the bound, same when they do not — and
// unresolved when either side's own run-to-run spread exceeds the bound,
// unless every run of b reads better than every run of a.
func verdict(a, b series, d metricDef) string {
	if a.Spread > d.Bound || b.Spread > d.Bound {
		if allBetter(a.Values, b.Values, d.Better) {
			return improved
		}
		return unresolved
	}
	switch w := worseBy(a, b, d); {
	case w > d.Bound:
		return regressed
	case w < -d.Bound:
		return improved
	}
	return same
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, better string) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func readResults(path string) (results, error) {
	var r results
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints, per workload × end-to-end metric, both medians, the
// delta, the bound and the verdict, and reports whether anything regressed.
func compareFiles(w io.Writer, pathA, pathB string, defs []metricDef) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s (commit %s, %d runs)\nB: %s (commit %s, %d runs)\n", pathA, a.Commit, a.Runs, pathB, b.Commit, b.Runs)
	if a.Host != b.Host {
		fmt.Fprintf(w, "WARNING: the two files were measured on different hosts\n  A: %+v\n  B: %+v\n", a.Host, b.Host)
	}
	if a.Seconds != b.Seconds || a.Smoke != b.Smoke {
		fmt.Fprintf(w, "WARNING: run lengths differ (A %.0f s, B %.0f s): op counts are not comparable\n", a.Seconds, b.Seconds)
	}
	fmt.Fprintf(w, "%-16s %-18s %12s %12s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "delta", "bound", "verdict")
	any := false
	for _, wl := range workloads {
		wa, okA := a.Workloads[wl.name]
		wb, okB := b.Workloads[wl.name]
		if !okA || !okB {
			return false, fmt.Errorf("workload %s missing from one of the files", wl.name)
		}
		for _, d := range defs {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			v := verdict(sa, sb, d)
			any = any || v == regressed
			delta := 0.0
			if sa.Median != 0 {
				delta = (sb.Median - sa.Median) / sa.Median
			}
			fmt.Fprintf(w, "%-16s %-18s %12.6g %12.6g %+7.1f%% %6.0f%%  %s\n",
				wl.name, d.Name, sa.Median, sb.Median, 100*delta, 100*d.Bound, v)
		}
		fa, fb := sumInts(wa.Failed), sumInts(wb.Failed)
		v := same
		if fb > fa {
			v, any = regressed, true
		}
		fmt.Fprintf(w, "%-16s %-18s %12d %12d %8s %7s  %s\n", wl.name, "failed ops", fa, fb, "", "0", v)
	}
	return any, nil
}

func sumInts(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
