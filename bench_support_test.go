package pulsarqr

import "time"

// Small helpers shared by the benchmark harness.

// benchWorkers is the worker-goroutine count for real-hardware runs. It is
// fixed rather than derived from GOMAXPROCS so that the dataflow
// concurrency structure (traces, scheduling comparisons) is exercised even
// on hosts with few cores — workers are goroutines and timeslice on
// whatever cores exist.
func benchWorkers() int { return 4 }

func testingClock() time.Time { return time.Now() }

func secondsSince(t time.Time) float64 { return time.Since(t).Seconds() }
