package simulate

// Memory footprint model. §II of the paper reports that in a strong
// scaling study "it is possible to exhaust the available local memory,
// which then precludes runs with data sets exceeding the offending problem
// size" — the observation that motivated the weak-scaling work. This model
// estimates the per-node memory demand of a workload under the array's
// block-row placement (qr.Place) so experiments can flag infeasible
// configurations the way the real machine would have failed them.

import "pulsarqr/internal/qr"

// MemoryModel describes a node's capacity.
type MemoryModel struct {
	// NodeBytes is the usable memory per node (Kraken: 16 GB).
	NodeBytes int64
	// RuntimeOverheadPerVDP approximates descriptor and queue state.
	RuntimeOverheadPerVDP int64
}

// KrakenMemory matches the paper's nodes: 16 GB each.
func KrakenMemory() MemoryModel {
	return MemoryModel{NodeBytes: 16 << 30, RuntimeOverheadPerVDP: 512}
}

// PeakNodeBytes estimates the peak memory on the most loaded node: its
// block of tile rows (matrix data), the in-flight packet working set
// (travelers, R packets and V/T broadcasts proportional to the node's
// share of one panel's chains), and runtime descriptors.
func PeakNodeBytes(w Workload, mach Machine, mem MemoryModel) int64 {
	nb := w.Opts.NB
	mt := (w.M + nb - 1) / nb
	nt := (w.N + nb - 1) / nb
	_, first := qr.OwnedTileRows(mt, mach.Nodes, 0) // node 0's block is the largest
	per := int64(first)
	tileBytes := int64(8 * nb * nb)

	// Matrix tiles owned by the node.
	data := per * int64(nt) * tileBytes
	// In-flight packets: per active panel, each row chain holds at most
	// one traveler plus one (V,T) packet per trailing column; bound by the
	// rows on the node times (1 + nt) packets, times a small pipelining
	// factor for overlapped panels.
	inflight := per * int64(nt+1) * tileBytes / 2
	// Runtime descriptors: one VDP per (panel, row, column) materialized
	// lazily would be ideal; this implementation materializes the full 3D
	// array, so the descriptor count is rows × Σ_j (nt−j) on the node.
	vdps := per * int64(nt) * int64(nt+1) / 2
	return data + inflight + vdps*mem.RuntimeOverheadPerVDP
}

// Feasible reports whether the workload fits the nodes, and the estimated
// peak bytes on the most loaded node.
func Feasible(w Workload, mach Machine, mem MemoryModel) (bool, int64) {
	peak := PeakNodeBytes(w, mach, mem)
	return peak <= mem.NodeBytes, peak
}

// MinNodes returns the smallest node count (of the given machine shape)
// whose per-node memory fits the workload — the strong-scaling floor §II
// describes. Returns 0 if even one tile row per node does not fit.
func MinNodes(w Workload, coresPerNode int, mem MemoryModel) int {
	nb := w.Opts.NB
	mt := (w.M + nb - 1) / nb
	lo, hi := 1, mt
	if ok, _ := Feasible(w, Machine{Nodes: hi, CoresPerNode: coresPerNode}, mem); !ok {
		return 0
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if ok, _ := Feasible(w, Machine{Nodes: mid, CoresPerNode: coresPerNode}, mem); ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
