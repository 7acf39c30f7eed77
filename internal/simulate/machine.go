// Package simulate predicts the performance of the tree-based QR on a
// large distributed-memory machine by discrete-event simulation of the
// exact task graph the 3D virtual systolic array executes.
//
// The paper's evaluation ran on Kraken, a Cray XT5 with 12-core nodes and
// a SeaStar2+ network — hardware this reproduction cannot access. The
// simulator substitutes a calibrated machine model: per-kernel efficiency
// factors on a per-core peak, an α–β network between nodes, queueing
// overheads inside them, and the same VDP-to-thread mapping the runtime
// uses. Absolute Gflop/s are model estimates; the comparative shapes —
// which tree wins, how each scales with m and with core count — are driven
// by the DAG critical path and communication volume, which are exact.
package simulate

import (
	"encoding/json"
	"fmt"
	"math"
)

// Kernel enumerates the task kinds of the tile algorithm.
type Kernel int

const (
	Geqrt Kernel = iota
	Tsqrt
	Ttqrt
	Ormqr
	Tsmqr
	Ttmqr
	numKernels
)

func (k Kernel) String() string {
	return [...]string{"geqrt", "tsqrt", "ttqrt", "ormqr", "tsmqr", "ttmqr"}[k]
}

// TileRate is the measured rate of the six tile kernels at one tile shape.
type TileRate struct {
	NB int `json:"nb"`
	IB int `json:"ib"`
	// Gflops is what each kernel sustains on full nb×nb tiles with inner
	// block ib, in kernel order: geqrt, tsqrt, ttqrt, ormqr, tsmqr, ttmqr.
	Gflops [numKernels]float64 `json:"gflops"`
}

// Machine models the hardware. The JSON shape is the machine-model file
// format qrbench -plan-machine reads (MachineFromJSON), so a calibration
// written by hand or measured elsewhere loads without conversion.
type Machine struct {
	// Nodes is the number of distributed-memory nodes.
	Nodes int `json:"nodes"`
	// CoresPerNode is the number of physical cores per node; one core per
	// node is dedicated to the communication proxy, as in the paper's runs.
	CoresPerNode int `json:"cores_per_node"`
	// CoreGflops is the per-core double-precision peak.
	CoreGflops float64 `json:"core_gflops"`
	// Eff holds the per-kernel fraction of peak the pure kernels reach, in
	// kernel order: geqrt, tsqrt, ttqrt, ormqr, tsmqr, ttmqr.
	Eff [numKernels]float64 `json:"eff"`
	// AlphaInter is the inter-node message latency in seconds.
	AlphaInter float64 `json:"alpha_inter_seconds"`
	// BetaInter is the inverse inter-node bandwidth in seconds per byte.
	BetaInter float64 `json:"beta_inter_seconds_per_byte"`
	// HopIntra is the intra-node queue hand-off cost in seconds.
	HopIntra float64 `json:"hop_intra_seconds"`
	// TaskOverhead is the runtime's per-task scheduling cost in seconds.
	TaskOverhead float64 `json:"task_overhead_seconds"`
	// Rates, where it lists a workload's tile shape, replaces CoreGflops·Eff
	// for that workload: one rate for every tile size is wrong by more than
	// 2× between nb=64 and nb=192 on hosts whose kernels are packing-bound
	// on small tiles. A model without it — Kraken, LocalHost, a file
	// written before it existed — simulates exactly as it always did.
	Rates []TileRate `json:"rates,omitempty"`
}

// Bounds on machines Validate will accept. A machine model arrives in a
// file and feeds allocations sized by its dimensions, so hostile values must
// be rejected here — not discovered as an out-of-memory inside the DES.
const (
	// MaxNodes caps the node count (the paper's Kraken tops out near 10^4
	// nodes; 2^16 leaves headroom without letting a poisoned model size a
	// worker table in the billions).
	MaxNodes = 1 << 16
	// MaxCoresPerNode caps cores per node.
	MaxCoresPerNode = 1 << 12
	// MaxCoreGflops caps the per-core peak (an exaflop core is a lie).
	MaxCoreGflops = 1e6
	// MaxCostSeconds caps every per-event cost term: a model claiming an
	// hour per message latency is poisoned, not slow.
	MaxCostSeconds = 3600
	// MaxBetaSecondsPerByte caps inverse bandwidth at one second per byte.
	MaxBetaSecondsPerByte = 1
	// MaxTileRates caps the rate table a file may list.
	MaxTileRates = 64
	// MaxTileSize caps a rate entry's nb.
	MaxTileSize = 1 << 16
)

// finiteCost reports v being a usable non-negative cost below the cap.
// NaN fails every comparison, so the check must be written to *accept* a
// known-good range rather than reject known-bad values.
func finiteCost(v, max float64) bool {
	return v >= 0 && v <= max && !math.IsNaN(v)
}

// Validate rejects a machine no simulation can run on — including poisoned
// wire models (NaN/Inf rates, absurd dimensions) that would otherwise turn
// the simulator into an allocation bomb or make every prediction NaN. Any
// machine that passes yields finite task and transfer times.
func (m Machine) Validate() error {
	if m.Nodes < 1 || m.Nodes > MaxNodes {
		return fmt.Errorf("simulate: machine has %d nodes (want 1..%d)", m.Nodes, MaxNodes)
	}
	if m.CoresPerNode < 1 || m.CoresPerNode > MaxCoresPerNode {
		return fmt.Errorf("simulate: machine has %d cores per node (want 1..%d)", m.CoresPerNode, MaxCoresPerNode)
	}
	if !(m.CoreGflops > 0) || m.CoreGflops > MaxCoreGflops {
		return fmt.Errorf("simulate: core peak %g Gflop/s outside (0, %g]", m.CoreGflops, float64(MaxCoreGflops))
	}
	for k := Kernel(0); k < numKernels; k++ {
		if !(m.Eff[k] > 0) || m.Eff[k] > 1 {
			return fmt.Errorf("simulate: kernel %s efficiency %g outside (0, 1]", k, m.Eff[k])
		}
	}
	if !finiteCost(m.AlphaInter, MaxCostSeconds) {
		return fmt.Errorf("simulate: alpha %g outside [0, %ds]", m.AlphaInter, MaxCostSeconds)
	}
	if !finiteCost(m.BetaInter, MaxBetaSecondsPerByte) {
		return fmt.Errorf("simulate: beta %g outside [0, %d s/byte]", m.BetaInter, MaxBetaSecondsPerByte)
	}
	if !finiteCost(m.HopIntra, MaxCostSeconds) {
		return fmt.Errorf("simulate: intra-node hop %g outside [0, %ds]", m.HopIntra, MaxCostSeconds)
	}
	if !finiteCost(m.TaskOverhead, MaxCostSeconds) {
		return fmt.Errorf("simulate: task overhead %g outside [0, %ds]", m.TaskOverhead, MaxCostSeconds)
	}
	if len(m.Rates) > MaxTileRates {
		return fmt.Errorf("simulate: %d tile rates (want at most %d)", len(m.Rates), MaxTileRates)
	}
	for _, r := range m.Rates {
		if r.NB < 1 || r.NB > MaxTileSize || r.IB < 1 || r.IB > r.NB {
			return fmt.Errorf("simulate: tile rate for nb=%d ib=%d (want 1 <= ib <= nb <= %d)", r.NB, r.IB, MaxTileSize)
		}
		for k := Kernel(0); k < numKernels; k++ {
			if !(r.Gflops[k] > 0) || r.Gflops[k] > MaxCoreGflops {
				return fmt.Errorf("simulate: kernel %s rate %g Gflop/s at nb=%d ib=%d outside (0, %g]",
					k, r.Gflops[k], r.NB, r.IB, float64(MaxCoreGflops))
			}
		}
	}
	return nil
}

// MachineFromJSON loads a machine model from its wire shape — a
// hand-written calibration file.
func MachineFromJSON(data []byte) (Machine, error) {
	var m Machine
	if err := json.Unmarshal(data, &m); err != nil {
		return Machine{}, fmt.Errorf("simulate: machine model: %w", err)
	}
	if err := m.Validate(); err != nil {
		return Machine{}, err
	}
	return m, nil
}

// MachineFromModelResponse loads a machine from a {"machine": {...}, ...}
// envelope, falling back to the bare machine object, so a saved model
// response and a calibration file load with one call.
func MachineFromModelResponse(data []byte) (Machine, error) {
	var resp struct {
		Machine *Machine `json:"machine"`
	}
	if err := json.Unmarshal(data, &resp); err == nil && resp.Machine != nil {
		if err := resp.Machine.Validate(); err != nil {
			return Machine{}, err
		}
		return *resp.Machine, nil
	}
	return MachineFromJSON(data)
}

// Workers returns the number of worker cores per node.
func (m Machine) Workers() int {
	w := m.CoresPerNode - 1
	if w < 1 {
		w = 1
	}
	return w
}

// TotalCores returns the core count reported on the x-axis of scaling
// plots (workers plus proxy, as the paper counts them).
func (m Machine) TotalCores() int { return m.Nodes * m.CoresPerNode }

// Kraken models one cabinet-scale slice of the Cray XT5 used in the
// paper: 2×6-core 2.6 GHz AMD Opteron (Istanbul) per node — 4 flops/cycle
// → 10.4 Gflop/s per core — and a SeaStar2+ torus (~6 µs latency, ~6 GB/s
// per link). Kernel efficiencies are calibrated to the relative kernel
// performance PLASMA's core_blas achieves on that class of hardware: the
// gemm-rich pair updates run near library speed, the panel kernels are
// bound by level-2 work, and the triangle-triangle kernels pay their
// irregularity (the paper's §VI notes they "may not be optimized").
func Kraken(nodes int) Machine {
	m := Machine{
		Nodes:        nodes,
		CoresPerNode: 12,
		CoreGflops:   10.4,
		AlphaInter:   6e-6,
		BetaInter:    1.0 / 6e9,
		HopIntra:     0.4e-6,
		TaskOverhead: 4e-6,
	}
	m.Eff[Geqrt] = 0.34
	m.Eff[Tsqrt] = 0.46
	m.Eff[Ttqrt] = 0.17
	m.Eff[Ormqr] = 0.62
	m.Eff[Tsmqr] = 0.74
	m.Eff[Ttmqr] = 0.38
	return m
}

// LocalHost models the machine the test-suite runs on: useful for
// cross-checking simulated orderings against real small-scale runs.
func LocalHost(nodes, coresPerNode int) Machine {
	m := Machine{
		Nodes:        nodes,
		CoresPerNode: coresPerNode,
		CoreGflops:   2.0,
		AlphaInter:   2e-6,
		BetaInter:    1.0 / 8e9,
		HopIntra:     0.3e-6,
		TaskOverhead: 3e-6,
	}
	m.Eff = Kraken(1).Eff
	return m
}

// Rate returns the measured entry for tile shape (nb, ib), if the model
// carries one (the first, should a hand-written file list a shape twice).
func (m Machine) Rate(nb, ib int) (TileRate, bool) {
	for _, r := range m.Rates {
		if r.NB == nb && r.IB == ib {
			return r, true
		}
	}
	return TileRate{}, false
}

// kernelGflops returns the rate every kernel runs at on (nb, ib) tiles: the
// measured entry for exactly that shape, else peak times efficiency.
func (m Machine) kernelGflops(nb, ib int) [numKernels]float64 {
	if r, ok := m.Rate(nb, ib); ok {
		return r.Gflops
	}
	var g [numKernels]float64
	for k := range g {
		g[k] = m.CoreGflops * m.Eff[k]
	}
	return g
}

// taskTime returns the execution time of one kernel invocation running at
// the given rate, including the runtime's per-task overhead.
func (m Machine) taskTime(gflops, flops float64) float64 {
	return flops/(gflops*1e9) + m.TaskOverhead
}

// transfer returns the delivery delay for a message of the given size
// between two placements.
func (m Machine) transfer(sameNode bool, bytes int) float64 {
	if sameNode {
		return m.HopIntra
	}
	return m.AlphaInter + float64(bytes)*m.BetaInter
}
