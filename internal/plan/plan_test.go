package plan

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pulsarqr/internal/qr"
	"pulsarqr/internal/simulate"
)

// randMachine draws a valid machine from a wide but realistic envelope:
// 1–8 nodes, 2–9 cores, per-core peaks spanning two decades, α–β drawn
// log-uniform across the LAN-to-HPC range. Every draw must pass Validate —
// the property tests only make sense on machines the planner would accept.
func randMachine(rng *rand.Rand) simulate.Machine {
	logU := func(lo, hi float64) float64 {
		return math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo)))
	}
	m := simulate.LocalHost(1+rng.Intn(8), 2+rng.Intn(8))
	m.CoreGflops = logU(0.5, 50)
	m.AlphaInter = logU(1e-7, 1e-3)
	m.BetaInter = logU(1e-11, 1e-7)
	m.HopIntra = logU(1e-8, 1e-5)
	m.TaskOverhead = logU(1e-7, 1e-4)
	if rng.Intn(2) == 0 {
		// Half the machines carry a measured rate table, the way a live
		// qrserve's model does: the one entry at the library tile, rates
		// scattered per kernel.
		def := qr.DefaultOptions()
		r := simulate.TileRate{NB: def.NB, IB: def.IB}
		for k := range r.Gflops {
			r.Gflops[k] = m.CoreGflops * logU(0.05, 1)
		}
		m.Rates = append(m.Rates, r)
	}
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

// The tentpole's core property: across a randomized sweep of shapes and
// machines, the planner's chosen configuration never simulates slower than
// the hand-default on the same machine, and planning is deterministic — the
// same (spec, machine) pair always yields the identical Decision.
func TestDecideNeverSlowerThanDefaultAndDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := Config{} // library defaults, same as dispatch
	for i := 0; i < 30; i++ {
		mach := randMachine(rng)
		n := 16 * (1 + rng.Intn(16)) // up to 256
		m := n * (1 + rng.Intn(16))  // up to 4096, always >= n
		spec := Spec{M: m, N: n}

		d1, err := Decide(spec, mach, cfg)
		if err != nil {
			t.Fatalf("iter %d: Decide(%dx%d): %v", i, m, n, err)
		}
		d2, err := Decide(spec, mach, cfg)
		if err != nil {
			t.Fatalf("iter %d: repeat Decide: %v", i, err)
		}
		if !reflect.DeepEqual(d1, d2) {
			t.Fatalf("iter %d: Decide is not deterministic for %dx%d on %+v:\n d1=%+v\n d2=%+v",
				i, m, n, mach, d1, d2)
		}
		if d1.Simulated == 0 {
			continue // budget exhausted: the planner kept defaults, nothing to compare
		}
		if d1.Choice.PredictedMS > d1.Default.PredictedMS*(1+1e-9) {
			t.Fatalf("iter %d: chosen %s (%.6f ms) slower than default %s (%.6f ms) for %dx%d on %+v",
				i, d1.Choice.Describe(), d1.Choice.PredictedMS,
				d1.Default.Describe(), d1.Default.PredictedMS, m, n, mach)
		}
		if d1.SpeedupVsDefault < 1-1e-9 {
			t.Fatalf("iter %d: speedup %g < 1 without a completion target", i, d1.SpeedupVsDefault)
		}
		// The margin: the default is displaced only by a predicted MinGain.
		if d1.Choice != d1.Default && d1.SpeedupVsDefault < MinGain {
			t.Fatalf("iter %d: chose %s over the default on a predicted %.3fx, under the %.2fx margin",
				i, d1.Choice.Describe(), d1.SpeedupVsDefault, MinGain)
		}
		if fastest := d1.Ranked[0]; d1.Choice == d1.Default && fastest.PredictedMS*MinGain <= d1.Default.PredictedMS {
			t.Fatalf("iter %d: kept the default although %s is predicted %.3fx faster",
				i, fastest.Describe(), d1.Default.PredictedMS/fastest.PredictedMS)
		}
	}
}

// The sweep is trees × h × ranks at the library tile: on 8192×256 over two
// ranks that is {flat, binary, h ∈ DefaultHGrid} on 2 ranks and on 1, the
// default (hierarchical, its own h, 2 ranks) listed once and first, and
// every candidate's options carry the default tile.
func TestSweepIsTreesHeightsAndRanksAtTheLibraryTile(t *testing.T) {
	spec, mach := Spec{M: 8192, N: 256}, simulate.LocalHost(2, 2)
	d, err := Decide(spec, mach, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The default is one domain per worker — 43 tile rows on 2 nodes × 1
	// worker, h = 22 — which is off the h grid, so it adds a candidate.
	if want := 2*(2+len(DefaultHGrid)) + 1; d.Considered != want || d.Simulated != want {
		t.Fatalf("considered %d, simulated %d; want %d each", d.Considered, d.Simulated, want)
	}
	def := qr.DefaultOptions()
	for _, c := range append(d.Ranked, d.Choice, d.Default) {
		if o := c.Options(); o.NB != def.NB || o.IB != def.IB {
			t.Errorf("%s runs nb=%d ib=%d, want the library tile %d/%d", c.Describe(), o.NB, o.IB, def.NB, def.IB)
		}
	}
	if got := d.Default.Describe(); got != defaultCandidate(spec, mach).Describe() || got != "hierarchical h=22 ranks=2" {
		t.Errorf("default %s, want hierarchical h=22 ranks=2", got)
	}
}

// One graph size for every candidate makes the total budget a candidate
// count: room for three graphs scores the default and the next two.
func TestTotalBudgetIsACandidateCount(t *testing.T) {
	spec := Spec{M: 8192, N: 256}
	est := EstTasks(spec.M, spec.N, qr.DefaultOptions().NB)
	d, err := Decide(spec, simulate.LocalHost(2, 2), Config{MaxTasksTotal: 3*est + est/2})
	if err != nil {
		t.Fatal(err)
	}
	if d.Simulated != 3 || d.Skipped != d.Considered-3 {
		t.Fatalf("simulated %d, skipped %d of %d; want 3 simulated", d.Simulated, d.Skipped, d.Considered)
	}
	// A budget smaller than one graph still scores the default.
	d, err = Decide(spec, simulate.LocalHost(2, 2), Config{MaxTasksTotal: est / 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.Simulated != 1 || d.Choice != d.Default || d.Default.PredictedMS <= 0 {
		t.Fatalf("simulated %d, choice %s, default %s (%.3g ms); want the default alone, scored",
			d.Simulated, d.Choice.Describe(), d.Default.Describe(), d.Default.PredictedMS)
	}
}

// With a completion target, the planner trades speed for frugality: the
// chosen candidate still meets the target but never uses more ranks than the
// unconstrained fastest choice.
func TestDecideTargetFrugality(t *testing.T) {
	mach := simulate.Kraken(16)
	spec := Spec{M: 8192, N: 256}
	fastest, err := Decide(spec, mach, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A target 4x looser than the fastest prediction leaves room to shrink.
	spec.TargetMS = fastest.Choice.PredictedMS * 4
	frugal, err := Decide(spec, mach, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if frugal.Choice.PredictedMS > spec.TargetMS {
		t.Fatalf("frugal choice %s misses target %.3f ms (predicted %.3f ms)",
			frugal.Choice.Describe(), spec.TargetMS, frugal.Choice.PredictedMS)
	}
	if frugal.Choice.Ranks > fastest.Choice.Ranks {
		t.Fatalf("frugal choice uses %d ranks, more than the unconstrained %d",
			frugal.Choice.Ranks, fastest.Choice.Ranks)
	}
}

func TestDecideRejectsBadInputs(t *testing.T) {
	mach := simulate.LocalHost(2, 3)
	bad := []Spec{
		{M: 0, N: 1}, {M: 1, N: 0}, {M: -4, N: -4},
		{M: 64, N: 128},               // wide: not tall-skinny
		{M: maxPlanDim + 1, N: 1},     // over the admission bound
		{M: 128, N: 64, TargetMS: -1}, // negative target
	}
	for _, s := range bad {
		if _, err := Decide(s, mach, Config{}); err == nil {
			t.Errorf("Decide accepted invalid spec %+v", s)
		}
	}
	poisoned := mach
	poisoned.CoreGflops = math.NaN()
	if _, err := Decide(Spec{M: 128, N: 64}, poisoned, Config{}); err == nil {
		t.Error("Decide accepted a NaN machine")
	}
}

// A shape too large for any candidate's task budget must degrade to the
// hand-default — never an error, never an unscored guess presented as a win.
func TestDecideOverBudgetKeepsDefaults(t *testing.T) {
	d, err := Decide(Spec{M: 1 << 19, N: 1 << 14}, simulate.Kraken(4), Config{
		MaxTasksPerCandidate: 100, MaxTasksTotal: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Simulated != 0 {
		t.Fatalf("expected zero simulated candidates, got %d", d.Simulated)
	}
	if !reflect.DeepEqual(d.Choice, d.Default) {
		t.Fatalf("over-budget choice %+v differs from default %+v", d.Choice, d.Default)
	}
	if d.Choice.Tree == "" || d.Choice.Ranks == 0 {
		t.Fatalf("over-budget default not filled in: %+v", d.Choice)
	}
}

func TestRoundDim(t *testing.T) {
	for x := 1; x <= 128; x++ {
		if RoundDim(x) != x {
			t.Fatalf("RoundDim(%d) = %d, want identity below 129", x, RoundDim(x))
		}
	}
	cases := map[int]int{129: 160, 1000: 1024, 1024: 1024, 1025: 1280, 16384: 16384}
	for in, want := range cases {
		if got := RoundDim(in); got != want {
			t.Errorf("RoundDim(%d) = %d, want %d", in, got, want)
		}
	}
	// Never rounds down, and stays monotone — both needed so a cached plan's
	// tile grid fits the real matrix and M >= N survives rounding.
	prev := 0
	for x := 1; x < 100000; x += 7 {
		r := RoundDim(x)
		if r < x {
			t.Fatalf("RoundDim(%d) = %d rounds down", x, r)
		}
		if r < prev {
			t.Fatalf("RoundDim not monotone at %d: %d < %d", x, r, prev)
		}
		prev = r
	}
}

func TestPlannerCache(t *testing.T) {
	p := NewPlanner(Config{}, 8)
	mach := simulate.LocalHost(2, 3)

	d1, err := p.Plan(Spec{M: 1000, N: 100}, mach, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d1.FromCache {
		t.Fatal("first plan claimed a cache hit")
	}
	// Same epoch, near-identical shape (1000 → 1024 rounds like 1010).
	d2, err := p.Plan(Spec{M: 1010, N: 100}, mach, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.FromCache {
		t.Fatal("rounded-shape replan missed the cache")
	}
	if d2.Choice != d1.Choice {
		t.Fatalf("cache returned a different choice: %+v vs %+v", d2.Choice, d1.Choice)
	}
	// New epoch: the model moved, the cache must not serve the stale plan.
	d3, err := p.Plan(Spec{M: 1000, N: 100}, mach, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d3.FromCache {
		t.Fatal("epoch change served a stale cached plan")
	}
	computed, hits := p.Stats()
	if computed != 2 || hits != 1 {
		t.Fatalf("stats = (%d computed, %d hits), want (2, 1)", computed, hits)
	}
}

// The LRU must bound the cache: cap+1 distinct keys evict the oldest.
func TestPlannerCacheEviction(t *testing.T) {
	p := NewPlanner(Config{}, 2)
	mach := simulate.LocalHost(1, 2)
	shapes := []Spec{{M: 256, N: 32}, {M: 512, N: 32}, {M: 768, N: 32}}
	for _, s := range shapes {
		if _, err := p.Plan(s, mach, 1); err != nil {
			t.Fatal(err)
		}
	}
	// The first shape was evicted: replanning it recomputes.
	d, err := p.Plan(shapes[0], mach, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.FromCache {
		t.Fatal("evicted entry served from cache")
	}
	// The last shape is still resident.
	d, err = p.Plan(shapes[2], mach, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !d.FromCache {
		t.Fatal("resident entry missed the cache")
	}
}
