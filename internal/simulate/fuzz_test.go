package simulate

import (
	"math"
	"testing"

	"pulsarqr/internal/kernels"
	"pulsarqr/internal/qr"
)

// FuzzMachineModel fuzzes the wire reader, MachineFromJSON (a bare machine
// object, the file qrbench -plan-machine reads).
// The invariant under test is the one Validate promises: any machine the
// reader ACCEPTS is safe to simulate on — dimensions inside the caps, and
// every task and transfer time finite and non-negative. Hostile inputs
// (NaN/Inf rates, absurd node counts, truncated JSON) must be rejected, never
// propagated into the DES as allocation sizes or NaN clocks.
func FuzzMachineModel(f *testing.F) {
	seed := [][]byte{
		// A healthy model, and one wrapped in a {"machine": …} envelope,
		// which the reader sees as a machine of 0 nodes and refuses.
		[]byte(`{"nodes":16,"cores_per_node":12,"core_gflops":10.4,"eff":[0.34,0.46,0.17,0.62,0.74,0.38],"alpha_inter_seconds":6e-06,"beta_inter_seconds_per_byte":1.6666666666666667e-10,"hop_intra_seconds":4e-07,"task_overhead_seconds":4e-06}`),
		[]byte(`{"machine":{"nodes":2,"cores_per_node":3,"core_gflops":2,"eff":[0.34,0.46,0.17,0.62,0.74,0.38],"alpha_inter_seconds":2e-06,"beta_inter_seconds_per_byte":1.25e-10,"hop_intra_seconds":3e-07,"task_overhead_seconds":3e-06},"measured":true,"links":[]}`),
		// Truncation mid-object.
		[]byte(`{"machine":{"nodes":2,"cores_per_node":3,"core_gf`),
		// Allocation bombs and dimension nonsense.
		[]byte(`{"nodes":2147483647,"cores_per_node":12,"core_gflops":10,"eff":[1,1,1,1,1,1]}`),
		[]byte(`{"nodes":-1,"cores_per_node":0,"core_gflops":10,"eff":[1,1,1,1,1,1]}`),
		// Poisoned rates: JSON has no NaN/Inf literal, but huge exponents and
		// string-typed numbers probe the decoder's edges.
		[]byte(`{"nodes":1,"cores_per_node":2,"core_gflops":1e309,"eff":[1,1,1,1,1,1]}`),
		[]byte(`{"nodes":1,"cores_per_node":2,"core_gflops":1,"eff":[1,1,1,1,1,1],"alpha_inter_seconds":1e400}`),
		[]byte(`{"nodes":1,"cores_per_node":2,"core_gflops":"NaN","eff":[1,1,1,1,1,1]}`),
		// Efficiency above one (a >100% kernel would make predictions lie).
		[]byte(`{"nodes":1,"cores_per_node":2,"core_gflops":1,"eff":[2,1,1,1,1,1]}`),
		// An envelope with a null machine: refused like any 0-node machine.
		[]byte(`{"machine":null}`),
		[]byte(``),
		[]byte(`[]`),
	}
	for _, s := range seed {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := MachineFromJSON(data)
		if err != nil {
			return // rejected: nothing else to check
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("reader accepted a machine Validate rejects: %v\ninput: %q", err, data)
		}
		if m.Nodes < 1 || m.Nodes > MaxNodes || m.CoresPerNode < 1 || m.CoresPerNode > MaxCoresPerNode {
			t.Fatalf("accepted machine outside dimension caps: %+v", m)
		}
		// Every accepted machine must yield finite, non-negative costs —
		// the DES trusts these without further checks.
		// ... at a shape the rate table lists (if any) and at one it
		// cannot (ib > nb never validates), i.e. on both rate sources.
		shapes := [][2]int{{64, 65}}
		for _, r := range m.Rates {
			shapes = append(shapes, [2]int{r.NB, r.IB})
		}
		for _, sh := range shapes {
			rate := m.kernelGflops(sh[0], sh[1])
			for k := qr.Kernel(0); k < qr.NumKernels; k++ {
				tt := m.taskTime(rate[k], kernels.FlopsTsmqr(64, 64, 64))
				if math.IsNaN(tt) || math.IsInf(tt, 0) || tt < 0 {
					t.Fatalf("kernel %s time %g at nb=%d ib=%d from accepted machine %+v", k, tt, sh[0], sh[1], m)
				}
			}
		}
		for _, sameNode := range []bool{true, false} {
			tr := m.transfer(sameNode, 64*64*8)
			if math.IsNaN(tr) || math.IsInf(tr, 0) || tr < 0 {
				t.Fatalf("transfer(sameNode=%v) = %g from accepted machine %+v", sameNode, tr, m)
			}
		}
	})
}
