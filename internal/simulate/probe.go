package simulate

import (
	"math/rand"
	"time"

	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
)

// probeFloor is how long MeasureTileRate keeps timing one kernel: long
// enough that the fastest of the calls made is a steady-state call even on
// 32×32 tiles, short enough that timing one shape costs a few ms.
const probeFloor = time.Millisecond

// MeasureTileRate times the six tile kernels on this host, on one thread,
// on full nb×nb tiles with inner block ib, and returns the rate of the
// fastest call of each. It is what puts a host's real kernel speed into a
// Machine; kernels running beside busy sibling threads are slower by a
// factor the caller calibrates (qrserve fits it from completed jobs), which
// is why the table holds rates, not the planner's final word.
func MeasureTileRate(nb, ib int) TileRate {
	rng := rand.New(rand.NewSource(1))
	ws := kernels.NewWorkspace()
	full := matrix.NewRand(nb, nb, rng)
	upper := matrix.NewRand(nb, nb, rng).UpperTriangle()
	a1, a2 := matrix.New(nb, nb), matrix.New(nb, nb)
	c1, c2 := matrix.NewRand(nb, nb, rng), matrix.NewRand(nb, nb, rng)
	t := matrix.New(ib, nb)

	// best returns the fastest of the calls to run that fit in probeFloor
	// (at least three); reset restores what run overwrites, off the clock.
	best := func(reset, run func()) float64 {
		fastest := time.Duration(1<<63 - 1)
		var spent time.Duration
		for calls := 0; calls < 3 || spent < probeFloor; calls++ {
			reset()
			start := time.Now()
			run()
			d := time.Since(start)
			spent += d
			if d < fastest {
				fastest = d
			}
		}
		return max(fastest.Seconds(), 1e-9)
	}
	none := func() {}

	r := TileRate{NB: nb, IB: ib}
	rate := func(k Kernel, flops float64, reset, run func()) {
		r.Gflops[k] = flops / best(reset, run) / 1e9
	}
	// Each factor kernel leaves (V, T) behind for the apply kernel timed
	// right after it.
	rate(Geqrt, kernels.FlopsGeqrt(nb, nb),
		func() { a2.CopyFrom(full) },
		func() { kernels.DgeqrtWS(ws, ib, a2, t) })
	rate(Ormqr, kernels.FlopsOrmqr(nb, nb, nb), none,
		func() { kernels.DormqrWS(ws, true, ib, a2, t, c1) })
	rate(Tsqrt, kernels.FlopsTsqrt(nb, nb),
		func() { a1.CopyFrom(upper); a2.CopyFrom(full) },
		func() { kernels.DtsqrtWS(ws, ib, a1, a2, t) })
	rate(Tsmqr, kernels.FlopsTsmqr(nb, nb, nb), none,
		func() { kernels.DtsmqrWS(ws, true, ib, a2, t, c1, c2) })
	rate(Ttqrt, kernels.FlopsTtqrt(nb),
		func() { a1.CopyFrom(upper); a2.CopyFrom(upper) },
		func() { kernels.DttqrtWS(ws, ib, a1, a2, t) })
	rate(Ttmqr, kernels.FlopsTtmqr(nb, nb), none,
		func() { kernels.DttmqrWS(ws, true, ib, a2, t, c1, c2) })
	return r
}
