// Command bench is the repository's stack benchmark: six closed-loop,
// single-caller workloads from pulsarqr.Factor to a 2-rank fleet, each
// measured end to end (untraced) and layer by layer (traced).
//
//	go run ./bench                          # all six, untraced runs then a traced run each
//	go run ./bench -workload job_fleet -trace 0 -seed 3 -seconds 15
//	go run ./bench -compare A.json B.json
//
// With -workload it runs that one workload once and prints, as its last
// line, the JSON result object BENCHMARK.json's contract describes. Without
// it, it runs every workload in a fresh child process of its own (so memory
// and warm state do not leak between workloads) and writes one results JSON.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and print its result line (default: run all six in child processes)")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", runSeconds, "how long one run measures")
		traced  = flag.Int("trace", 0, "with -workload: 0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
		smoke   = flag.Bool("smoke", false, "tiny shapes, two ops per workload: exercises the harness, measures nothing")
		runs    = flag.Int("runs", 3, "without -workload: untraced runs per workload, on consecutive seeds")
		out     = flag.String("out", filepath.Join("bench", "out", "results.json"), "without -workload: the results file; trace files and scratch go beside it")
		compare = flag.Bool("compare", false, "compare two results files given as arguments; exits non-zero on a regression")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare A.json B.json"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), endToEnd)
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *name != "":
		p := params{seed: *seed, seconds: *seconds, smoke: *smoke, outDir: filepath.Dir(*out)}
		res, err := runOne(*name, *traced, p)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	default:
		ok, err := runAll(*seed, *seconds, *runs, *smoke, *out)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOne runs one workload in this process, untraced or traced.
func runOne(name string, traced int, p params) (outcome, error) {
	w, err := findWorkload(name)
	if err != nil {
		return outcome{}, err
	}
	warnFewCPUs()
	switch traced {
	case 0:
		return runUntraced(w, p, os.Stdout)
	case 1:
		return runTraced(w, p, os.Stdout)
	}
	return outcome{}, fmt.Errorf("-trace must be 0 or 1, got %d", traced)
}
