package main

import (
	"fmt"
	"math/rand"

	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
)

// threads is the total worker-thread count of every workload (job_fleet
// splits it as 2 ranks × 1 thread), fixed so the load is the same on any
// host with at least two cores.
const threads = 2

// sizes holds every shape the six workloads run. The full sizes are the
// benchmark; the smoke sizes only keep the harness exercised by the tests.
type sizes struct {
	tallM, tallN       int // factor_tall
	squareM, squareN   int // factor_square
	uploadM, uploadN   int // job_upload
	fleetM, fleetN     int // job_fleet
	batchCount, batchN int // batch_small: matrices per request, their order
	sessBlocks, sessN  int // session_append: blocks per stream, block order
}

var (
	fullSizes  = sizes{8192, 256, 2048, 1024, 2048, 128, 8192, 256, 4000, 32, 128, 64}
	smokeSizes = sizes{512, 128, 256, 256, 256, 64, 512, 128, 96, 16, 8, 32}
)

// env is one set-up instance of a workload: servers booted, inputs generated.
type env interface {
	// op runs one request, call → result in hand. It is the timed region.
	op(i int) error
	// verify checks the result the last op left behind, outside the timed
	// region.
	verify(i int) error
	// oracle runs one untimed op against the workload's full reference
	// check and prepares whatever verify compares against.
	oracle() error
	// collect turns what the last traced op left behind into spans and
	// per-layer samples (traced runs only, outside the timed region).
	collect(i int) error
	close()
}

// rig is what a workload's set-up gets: the seed its inputs come from, the
// shapes, and the tracer (nil in the untraced run).
type rig struct {
	seed int64
	sz   sizes
	tr   *tracer
}

// workload describes one of the six workloads.
type workload struct {
	name string
	why  string
	// warmups is the number of untimed ops run as part of set-up.
	warmups int
	// flops is the conventional flop count of one op, the numerator of the
	// gflops metric.
	flops func(sz sizes) float64
	setup func(r rig) (env, error)
}

// workloads lists the six in the order they run. Each `why` is the line
// BENCHMARK.json carries.
var workloads = []workload{
	{
		name:    "factor_tall",
		why:     "8192x256 through pulsarqr.Factor on 2 threads: tall-skinny, panel kernels and the tree are the critical path",
		warmups: 3,
		flops:   func(sz sizes) float64 { return kernels.FlopsQR(sz.tallM, sz.tallN) },
		setup:   func(r rig) (env, error) { return newFactorEnv(r, r.sz.tallM, r.sz.tallN) },
	},
	{
		name:    "factor_square",
		why:     "2048x1024 through the same call: trailing updates (Gemm-bound) dominate, the bypass for panel-only changes",
		warmups: 3,
		flops:   func(sz sizes) float64 { return kernels.FlopsQR(sz.squareM, sz.squareN) },
		setup:   func(r rig) (env, error) { return newFactorEnv(r, r.sz.squareM, r.sz.squareN) },
	},
	{
		name:    "job_upload",
		why:     "uploaded 2048x128 job over HTTP to a 1-rank server, R fetched: JSON, BuildInputs, Residual and retention dominate",
		warmups: 3,
		flops:   func(sz sizes) float64 { return kernels.FlopsQR(sz.uploadM, sz.uploadN) },
		setup:   func(r rig) (env, error) { return newJobEnv(r, false) },
	},
	{
		name:    "job_fleet",
		why:     "seeded 8192x256 job over HTTP to a 2-rank TCP fleet: the only workload where transport, mux and the proxy work",
		warmups: 2,
		flops:   func(sz sizes) float64 { return kernels.FlopsQR(sz.fleetM, sz.fleetN) },
		setup:   func(r rig) (env, error) { return newJobEnv(r, true) },
	},
	{
		name:    "batch_small",
		why:     "4000 random 32x32 matrices per /v1/batch request: Pool.Exec chunks and the packed codec, no VDP firings, no JSON",
		warmups: 3,
		flops: func(sz sizes) float64 {
			return float64(sz.batchCount) * kernels.FlopsQR(sz.batchN, sz.batchN)
		},
		setup: newBatchEnv,
	},
	{
		name:    "session_append",
		why:     "open, stream 128 blocks of 64x64 with R back per block, close: the Streamer carry chain over the flushed session codec",
		warmups: 3,
		flops: func(sz sizes) float64 {
			return kernels.FlopsQR(sz.sessBlocks*sz.sessN, sz.sessN)
		},
		setup: newSessionEnv,
	},
}

// randSquares draws count random n×n matrices from rng.
func randSquares(rng *rand.Rand, count, n int) []*matrix.Mat {
	mats := make([]*matrix.Mat, count)
	for i := range mats {
		mats[i] = matrix.NewRand(n, n, rng)
	}
	return mats
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// metricDef names one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}
