// Package sim is the public façade over the performance simulator: a
// discrete-event model that prices the one kernel-call listing the engines
// run (qr.List; a test holds the 3D virtual systolic array's firings to it)
// on a calibrated machine model, predicting
// large-scale behavior that cannot be measured on a laptop. It regenerates
// the paper's evaluation figures (see cmd/qrbench and EXPERIMENTS.md).
package sim

import (
	"pulsarqr"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/simulate"
)

// Machine models the hardware: nodes, cores, per-kernel efficiencies and
// an α–β network.
type Machine = simulate.Machine

// Workload describes one factorization to simulate.
type Workload = simulate.Workload

// Result reports one simulated run: makespan, Gflop/s, message counts,
// utilization, critical path.
type Result = simulate.Result

// Profile selects the runtime being modeled.
type Profile = simulate.Profile

// Profiles: Systolic models the PULSAR runtime; Generic models a
// centralized task-superscalar runtime (the PaRSEC-class comparison).
const (
	Systolic = simulate.SystolicProfile
	Generic  = simulate.GenericProfile
)

// ScaLAPACKModel is the analytic model of the bulk-synchronous block QR
// baseline.
type ScaLAPACKModel = simulate.ScaLAPACKModel

// Kraken models the paper's Cray XT5 testbed with the given node count
// (12 cores per node).
func Kraken(nodes int) Machine { return simulate.Kraken(nodes) }

// LocalHost models a small shared-memory machine, for cross-checks.
func LocalHost(nodes, coresPerNode int) Machine { return simulate.LocalHost(nodes, coresPerNode) }

// DefaultScaLAPACK returns the calibrated baseline model.
func DefaultScaLAPACK() ScaLAPACKModel { return simulate.DefaultScaLAPACK() }

// Run simulates a factorization of an m×n matrix with the given options on
// the machine under the chosen profile.
func Run(m, n int, opts pulsarqr.Options, mach Machine, p Profile) Result {
	w := Workload{M: m, N: n, Opts: qr.Options{
		NB: opts.NB, IB: opts.IB, Tree: opts.Tree, H: opts.H,
		Boundary: opts.Boundary, Inter: opts.Inter,
	}}
	return simulate.Run(w, mach, p)
}
