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
// not allocate at all.
func TestKernelSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector; alloc counts are meaningless")
	}
	ws, r, v2, tt := benchWorkspaceSetup()
	DtsqrtWS(ws, benchIB, r, v2, tt)
	rng := rand.New(rand.NewSource(6))
	c1 := matrix.NewRand(benchNB, benchNB, rng)
	c2 := matrix.NewRand(benchNB, benchNB, rng)
	DtsmqrWS(ws, true, benchIB, v2, tt, c1, c2) // warm
	n := testing.AllocsPerRun(10, func() {
		DtsmqrWS(ws, true, benchIB, v2, tt, c1, c2)
	})
	if n != 0 {
		t.Errorf("Dtsmqr steady state allocates %.1f objects/op, want 0", n)
	}
	v := matrix.NewRand(benchNB, benchNB, rng)
	tg := matrix.New(benchIB, benchNB)
	DgeqrtWS(ws, benchIB, v, tg)
	c := matrix.NewRand(benchNB, benchNB, rng)
	DormqrWS(ws, true, benchIB, v, tg, c) // warm
	n = testing.AllocsPerRun(10, func() {
		DormqrWS(ws, true, benchIB, v, tg, c)
	})
	if n != 0 {
		t.Errorf("Dormqr steady state allocates %.1f objects/op, want 0", n)
	}
}
