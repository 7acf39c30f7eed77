package kernels_test

import (
	"math/rand"
	"testing"

	. "pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/qr"
)

// Steady-state kernel benchmarks at the tile shape the library runs by
// default — read from qr.DefaultOptions, which is why this file is an
// external test package (kernels itself cannot import qr) — so
// BENCH_kernels.json gates the shape that runs. Each holds one Workspace
// across iterations, the way a runtime worker does, and reports
// allocations: the zero-alloc contract of the workspace plumbing is locked
// in by TestKernelSteadyStateAllocs below, and visible here as 0 allocs/op.
// The apply benchmarks re-apply one (V, T) pair, but nothing is kept between
// calls, so each iteration packs its V and T operands the way a firing does.

var benchNB, benchIB = qr.DefaultOptions().NB, qr.DefaultOptions().IB

func benchWorkspaceSetup() (ws *Workspace, a1u, a2, t *matrix.Mat) {
	rng := rand.New(rand.NewSource(1))
	a1u = matrix.NewRand(benchNB, benchNB, rng).UpperTriangle()
	a2 = matrix.NewRand(benchNB, benchNB, rng)
	t = matrix.New(benchIB, benchNB)
	return NewWorkspace(), a1u, a2, t
}

func BenchmarkDgeqrt(b *testing.B) {
	ws, _, src, t := benchWorkspaceSetup()
	a := src.Clone()
	DgeqrtWS(ws, benchIB, a, t) // grow workspace buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.CopyFrom(src)
		DgeqrtWS(ws, benchIB, a, t)
	}
	b.ReportMetric(FlopsGeqrt(benchNB, benchNB)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
}

func BenchmarkDtsqrt(b *testing.B) {
	ws, r0, src, t := benchWorkspaceSetup()
	r := r0.Clone()
	a2 := src.Clone()
	DtsqrtWS(ws, benchIB, r, a2, t)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.CopyFrom(r0)
		a2.CopyFrom(src)
		DtsqrtWS(ws, benchIB, r, a2, t)
	}
	b.ReportMetric(FlopsTsqrt(benchNB, benchNB)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
}

func BenchmarkDttqrt(b *testing.B) {
	ws, r0, srcFull, t := benchWorkspaceSetup()
	src := srcFull.UpperTriangle()
	r := r0.Clone()
	a2 := src.Clone()
	DttqrtWS(ws, benchIB, r, a2, t)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.CopyFrom(r0)
		a2.CopyFrom(src)
		DttqrtWS(ws, benchIB, r, a2, t)
	}
	b.ReportMetric(FlopsTtqrt(benchNB)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
}

// BenchmarkDtpqr2 times a session stream's two steps at the session_append
// shape (n = 64, 64-row blocks) beside the blocked kernels at the same shape
// and the default ib: TS folds a block into R, TT merges two triangles.
// Gflop/s counts the unblocked operations, 2·m·n² for TS and 2n³/3 for TT.
func BenchmarkDtpqr2(b *testing.B) {
	const n = 64
	rng := rand.New(rand.NewSource(1))
	r0 := matrix.NewRand(n, n, rng).UpperTriangle()
	ts, tt := matrix.NewRand(n, n, rng), matrix.NewRand(n, n, rng).UpperTriangle()
	for _, tc := range []struct {
		name  string
		src   *matrix.Mat
		flops float64
		run   func(ws *Workspace, r, blk, t *matrix.Mat)
	}{
		{"TS", ts, 2 * n * n * n, func(ws *Workspace, r, blk, _ *matrix.Mat) { Dtpqr2(ws, 0, r, blk, nil, nil, nil) }},
		{"TS/blocked", ts, 2 * n * n * n, func(ws *Workspace, r, blk, t *matrix.Mat) { DtsqrtWS(ws, benchIB, r, blk, t) }},
		{"TT", tt, 2 * n * n * n / 3, func(ws *Workspace, r, blk, _ *matrix.Mat) { Dtpqr2(ws, n, r, blk, nil, nil, nil) }},
		{"TT/blocked", tt, 2 * n * n * n / 3, func(ws *Workspace, r, blk, t *matrix.Mat) { DttqrtWS(ws, benchIB, r, blk, t) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			ws, r, blk, t := NewWorkspace(), r0.Clone(), tc.src.Clone(), matrix.New(benchIB, n)
			tc.run(ws, r, blk, t)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.CopyFrom(r0)
				blk.CopyFrom(tc.src)
				tc.run(ws, r, blk, t)
			}
			b.ReportMetric(tc.flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
		})
	}
}

func BenchmarkDormqr(b *testing.B) {
	ws, _, v, t := benchWorkspaceSetup()
	DgeqrtWS(ws, benchIB, v, t)
	c := matrix.NewRand(benchNB, benchNB, rand.New(rand.NewSource(3)))
	DormqrWS(ws, true, benchIB, v, t, c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DormqrWS(ws, true, benchIB, v, t, c)
	}
	b.ReportMetric(FlopsOrmqr(benchNB, benchNB, benchNB)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
}

func BenchmarkDtsmqr(b *testing.B) {
	ws, r, v2, t := benchWorkspaceSetup()
	DtsqrtWS(ws, benchIB, r, v2, t)
	rng := rand.New(rand.NewSource(4))
	c1 := matrix.NewRand(benchNB, benchNB, rng)
	c2 := matrix.NewRand(benchNB, benchNB, rng)
	DtsmqrWS(ws, true, benchIB, v2, t, c1, c2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DtsmqrWS(ws, true, benchIB, v2, t, c1, c2)
	}
	b.ReportMetric(FlopsTsmqr(benchNB, benchNB, benchNB)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
}

func BenchmarkDttmqr(b *testing.B) {
	ws, r, v2full, t := benchWorkspaceSetup()
	v2 := v2full.UpperTriangle()
	DttqrtWS(ws, benchIB, r, v2, t)
	rng := rand.New(rand.NewSource(5))
	c1 := matrix.NewRand(benchNB, benchNB, rng)
	c2 := matrix.NewRand(benchNB, benchNB, rng)
	DttmqrWS(ws, true, benchIB, v2, t, c1, c2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DttmqrWS(ws, true, benchIB, v2, t, c1, c2)
	}
	b.ReportMetric(FlopsTtmqr(benchNB, benchNB)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
}

// TestKernelSteadyStateAllocs pins the zero-alloc contract independently of
// benchmark flags: once a workspace has warmed up, the apply kernels must
// not allocate at all — neither re-applying one (V, T) pair nor, as a
// systolic-array worker does, applying the pairs of different panels in turn
// — and neither must a stream's Dtpqr2 step.
func TestKernelSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector; alloc counts are meaningless")
	}
	rng := rand.New(rand.NewSource(6))
	ws := NewWorkspace()
	tile := func() *matrix.Mat { return matrix.NewRand(benchNB, benchNB, rng) }
	factorTS := func(tri bool) (v2, tt *matrix.Mat) {
		r, v2, tt := tile().UpperTriangle(), tile(), matrix.New(benchIB, benchNB)
		if tri {
			v2 = v2.UpperTriangle()
			DttqrtWS(ws, benchIB, r, v2, tt)
		} else {
			DtsqrtWS(ws, benchIB, r, v2, tt)
		}
		return v2, tt
	}
	tsV, tsT := factorTS(false)
	tsV2, tsT2 := factorTS(false)
	ttV, ttT := factorTS(true)
	geV, geT := tile(), matrix.New(benchIB, benchNB)
	DgeqrtWS(ws, benchIB, geV, geT)
	c1, c2 := tile(), tile()
	tpR, tpB := tile().UpperTriangle(), tile()

	cases := []struct {
		name  string
		apply func()
	}{
		{"Dtsmqr", func() { DtsmqrWS(ws, true, benchIB, tsV, tsT, c1, c2) }},
		{"Dttmqr", func() { DttmqrWS(ws, true, benchIB, ttV, ttT, c1, c2) }},
		{"Dormqr", func() { DormqrWS(ws, true, benchIB, geV, geT, c1) }},
		{"Dtpqr2", func() { Dtpqr2(ws, 0, tpR, tpB, nil, c1, c2) }},
		{"Dtsmqr with two (V,T) pairs in turn", func() {
			DtsmqrWS(ws, true, benchIB, tsV, tsT, c1, c2)
			DtsmqrWS(ws, true, benchIB, tsV2, tsT2, c1, c2)
		}},
	}
	for _, c := range cases {
		c.apply() // warm: every buffer reaches its steady size
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(10, c.apply); n != 0 {
			t.Errorf("%s steady state allocates %.1f objects/op, want 0", c.name, n)
		}
	}
}
