package main

import (
	"math"
	"time"
)

// The host probe.
//
// The virtual machines this benchmark runs on are a few hardware threads of
// a shared host. How fast those threads run when all of them are busy at once
// changes by a factor of up to 1.6, in stretches of seconds to minutes, with
// what the host's other tenants do on the same cores: op latencies of one
// process fall into two bands 1.5 apart, and which band a 15 s run sees is
// not something more ops or a median can settle (README.md, "The host
// probe", has the numbers). So every timed interval is divided by the host
// factor measured around it.
//
// The probe is fixed work of the benchmark's own — no code of the repository
// under test, so nothing a change to that code can speed up — run on
// `threads` goroutines at once, as the workloads run: scalar axpy sweeps over
// two vectors that stay in L1. Its time on a quiet host of the class this
// was developed on is probeRefSeconds. The probe keeps the threads' execution
// ports saturated, so it slows more than a workload does: over ten runs of
// each workload on a host whose probe time ranged from 0.31 to 0.64 ms, the
// slope of log latency on log probe time was 0.72 to 0.96. The host factor is
// therefore (probe time ÷ probeRefSeconds)^probeSlope: 1 on a quiet host of
// that class, above 1 while the host is slow. On other hardware every
// adjusted time is off by one constant, which a comparison of two commits on
// the same host does not see.
const (
	probeLen        = 2048 // float64s per vector: x and y are 16 KB each
	probeSweeps     = 300
	probeRefSeconds = 320e-6
	probeSlope      = 0.85
)

type hostProbe struct {
	x, y [threads][]float64
	done chan float64
}

func newHostProbe() *hostProbe {
	h := &hostProbe{done: make(chan float64, threads)}
	for k := range h.x {
		h.x[k], h.y[k] = make([]float64, probeLen), make([]float64, probeLen)
		for i := range h.x[k] {
			h.x[k][i] = 1e-3 * float64(1+i%7)
			h.y[k][i] = 1
		}
	}
	return h
}

// once runs the probe on all threads at once and returns their mean time.
func (h *hostProbe) once() float64 {
	for k := 0; k < threads; k++ {
		go func(x, y []float64) {
			t0 := time.Now()
			for r := 0; r < probeSweeps; r++ {
				// y converges to x/(1-a): bounded, never denormal.
				a := 0.999 + 1e-6*float64(r)
				for i := 0; i+4 <= len(x); i += 4 {
					y[i] = y[i]*a + x[i]
					y[i+1] = y[i+1]*a + x[i+1]
					y[i+2] = y[i+2]*a + x[i+2]
					y[i+3] = y[i+3]*a + x[i+3]
				}
			}
			h.done <- time.Since(t0).Seconds()
		}(h.x[k], h.y[k])
	}
	total := 0.0
	for k := 0; k < threads; k++ {
		total += <-h.done
	}
	return total / threads
}

// factor is one reading of the host factor: the faster of two probes, so one
// that was preempted does not decide it.
func (h *hostProbe) factor() float64 {
	return math.Pow(min(h.once(), h.once())/probeRefSeconds, probeSlope)
}

// around is the host factor of an interval, from the readings taken just
// before and just after it.
func around(before, after float64) float64 { return (before + after) / 2 }
