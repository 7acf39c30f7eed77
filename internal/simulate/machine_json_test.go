package simulate

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"pulsarqr/internal/qr"
)

// The JSON roundtrip is the model-file contract of qrbench -plan-machine: a
// saved machine must load back identically through MachineFromJSON.
func TestMachineJSONRoundtrip(t *testing.T) {
	want := Kraken(16)
	want.Rates = []TileRate{{NB: 192, IB: 24, Gflops: [qr.NumKernels]float64{17, 22, 17, 25, 27, 23}}}
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MachineFromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("roundtrip drifted:\n got %+v\nwant %+v", got, want)
	}
	// The wire field names are the contract — a rename breaks every saved
	// calibration file.
	for _, field := range []string{
		`"nodes"`, `"cores_per_node"`, `"core_gflops"`, `"eff"`,
		`"alpha_inter_seconds"`, `"beta_inter_seconds_per_byte"`,
		`"hop_intra_seconds"`, `"task_overhead_seconds"`,
	} {
		if !bytes.Contains(data, []byte(field)) {
			t.Fatalf("machine JSON missing %s: %s", field, data)
		}
	}
}

func TestMachineFromJSONRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":      `{`,
		"no nodes":      `{"cores_per_node":2,"core_gflops":1,"eff":[1,1,1,1,1,1]}`,
		"zero peak":     `{"nodes":1,"cores_per_node":2,"core_gflops":0,"eff":[1,1,1,1,1,1]}`,
		"bad eff":       `{"nodes":1,"cores_per_node":2,"core_gflops":1,"eff":[1,1,1,1,1,2]}`,
		"zero eff":      `{"nodes":1,"cores_per_node":2,"core_gflops":1,"eff":[0,1,1,1,1,1]}`,
		"negative cost": `{"nodes":1,"cores_per_node":2,"core_gflops":1,"eff":[1,1,1,1,1,1],"alpha_inter_seconds":-1}`,
	}
	for name, data := range cases {
		if _, err := MachineFromJSON([]byte(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// A rate table prices exactly the tile shapes it lists and nothing else: a
// workload at a listed (nb, ib) runs at the table's rates, any other falls
// back to peak times efficiency — so a model without a table simulates as it
// always did.
func TestRateTableReplacesPeakTimesEfficiency(t *testing.T) {
	m := LocalHost(1, 3)
	m.TaskOverhead, m.HopIntra = 0, 0 // leave kernel time alone in the makespan
	w := Workload{M: 1536, N: 384, Opts: qr.Options{NB: 192, IB: 24, Tree: qr.HierarchicalTree, H: 4}}
	base := Run(w, m, SystolicProfile).Seconds

	twice := TileRate{NB: 192, IB: 24}
	for k := range twice.Gflops {
		twice.Gflops[k] = 2 * m.CoreGflops * m.Eff[k]
	}
	m.Rates = []TileRate{{NB: 64, IB: 16, Gflops: twice.Gflops}, twice}
	if r, ok := m.Rate(192, 24); !ok || r != twice {
		t.Fatalf("Rate(192, 24) = %+v, %v", r, ok)
	}
	if _, ok := m.Rate(192, 48); ok {
		t.Fatal("Rate(192, 48) found an entry the table does not list")
	}
	if got := Run(w, m, SystolicProfile).Seconds; math.Abs(got-base/2) > 1e-9*base {
		t.Errorf("kernels measured twice as fast: %.6g s, want half of %.6g s", got, base)
	}
	w.Opts.IB = 48 // not in the table: back to CoreGflops·Eff
	if got := Run(w, m, SystolicProfile).Seconds; math.Abs(got-base) > 1e-9*base {
		t.Errorf("unlisted shape ran at %.6g s, want the table-less %.6g s", got, base)
	}

	for name, bad := range map[string]TileRate{
		"zero rate":   {NB: 192, IB: 24, Gflops: [qr.NumKernels]float64{1, 1, 0, 1, 1, 1}},
		"nan rate":    {NB: 192, IB: 24, Gflops: [qr.NumKernels]float64{1, math.NaN(), 1, 1, 1, 1}},
		"huge rate":   {NB: 192, IB: 24, Gflops: [qr.NumKernels]float64{1, 1, 1, 1, 1, 2 * MaxCoreGflops}},
		"ib above nb": {NB: 24, IB: 192, Gflops: twice.Gflops},
		"zero nb":     {NB: 0, IB: 0, Gflops: twice.Gflops},
		"huge nb":     {NB: MaxTileSize + 1, IB: 1, Gflops: twice.Gflops},
	} {
		mm := LocalHost(1, 3)
		mm.Rates = []TileRate{bad}
		if mm.Validate() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	mm := LocalHost(1, 3)
	mm.Rates = make([]TileRate, MaxTileRates+1)
	if mm.Validate() == nil {
		t.Error("a table past MaxTileRates was accepted")
	}
}

// Edge tiles cost what they are: at nb=192 a 640-wide matrix ends in 64-wide
// tiles, and pricing them as full ones would overstate the job by the cube of
// 768/640.
func TestRaggedTilesAreCostedByTheirSize(t *testing.T) {
	m := LocalHost(1, 3)
	opts := qr.Options{NB: 192, IB: 24, Tree: qr.HierarchicalTree, H: 4}
	ragged := Run(Workload{M: 640, N: 640, Opts: opts}, m, SystolicProfile)
	full := Run(Workload{M: 768, N: 768, Opts: opts}, m, SystolicProfile)
	if ragged.Tasks != full.Tasks {
		t.Fatalf("same tile grid, %d vs %d tasks", ragged.Tasks, full.Tasks)
	}
	var fr, ff float64
	for k := range ragged.NodeFlops[0] {
		fr += ragged.NodeFlops[0][k]
		ff += full.NodeFlops[0][k]
	}
	if ratio := fr / ff; ratio < 0.45 || ratio > 0.75 {
		t.Errorf("640² costs %.2f of 768² in kernel flops, want about (640/768)³ = 0.58", ratio)
	}
	if !(ragged.Seconds < 0.8*full.Seconds) {
		t.Errorf("640² predicted %.4g s against 768² at %.4g s", ragged.Seconds, full.Seconds)
	}
}
