package main

import (
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"pulsarqr/internal/plan"
	"pulsarqr/internal/simulate"
)

// planMain is the qrbench -plan mode: the offline planner's candidate sweep
// against a machine model — canned (kraken/localhost) or a saved
// calibration file.
func planMain(m, n int, machSpec string, targetMS float64, sweep bool) {
	mach, err := loadPlanMachine(machSpec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Machine: %d nodes x %d cores, %.3g Gflop/s/core, alpha=%.3gs beta=%.3gs/B, measured kernel rates for %d tile shapes\n",
		mach.Nodes, mach.CoresPerNode, mach.CoreGflops, mach.AlphaInter, mach.BetaInter, len(mach.Rates))

	d, err := plan.Decide(plan.Spec{M: m, N: n, TargetMS: targetMS}, mach, plan.Config{})
	if err != nil {
		log.Fatal(err)
	}
	printDecision(d)

	if sweep {
		planSweep(mach)
	}
}

// planSweep asserts the tentpole's core property on a shape grid: the
// planned configuration never simulates slower than the hand-default. Any
// violation exits non-zero, so the smoke script can gate on it.
func planSweep(mach simulate.Machine) {
	shapes := []struct{ m, n int }{
		{2048, 128}, {8192, 256}, {16384, 512}, {65536, 512},
		{4096, 4096}, {16384, 2048}, {131072, 1024},
	}
	fmt.Printf("\nSweep: planned vs default on %d shapes\n", len(shapes))
	fmt.Printf("%10s %7s  %-34s %12s %12s %9s\n", "m", "n", "chosen", "planned ms", "default ms", "speedup")
	bad := 0
	for _, sh := range shapes {
		d, err := plan.Decide(plan.Spec{M: sh.m, N: sh.n}, mach, plan.Config{})
		if err != nil {
			log.Fatalf("%dx%d: %v", sh.m, sh.n, err)
		}
		mark := ""
		if d.Simulated > 0 && d.Choice.PredictedMS > d.Default.PredictedMS*(1+1e-9) {
			mark = "  SLOWER THAN DEFAULT"
			bad++
		}
		fmt.Printf("%10d %7d  %-34s %12.3f %12.3f %8.2fx%s\n",
			sh.m, sh.n, d.Choice.Describe(), d.Choice.PredictedMS, d.Default.PredictedMS,
			d.SpeedupVsDefault, mark)
	}
	if bad > 0 {
		log.Fatalf("planner chose a slower-than-default config on %d shapes", bad)
	}
	fmt.Println("sweep ok: planned config never slower than the hand-default")
}

func printDecision(d plan.Decision) {
	fmt.Printf("\nPlan for %dx%d (%d candidates, %d simulated, %d over budget):\n",
		d.M, d.N, d.Considered, d.Simulated, d.Skipped)
	fmt.Printf("  chosen:  %-34s predicted %10.3f ms  %8.1f Gflop/s  util %4.1f%%\n",
		d.Choice.Describe(), d.Choice.PredictedMS, d.Choice.PredictedGflops, 100*d.Choice.Utilization)
	fmt.Printf("  default: %-34s predicted %10.3f ms  %8.1f Gflop/s  util %4.1f%%\n",
		d.Default.Describe(), d.Default.PredictedMS, d.Default.PredictedGflops, 100*d.Default.Utilization)
	fmt.Printf("  speedup vs default: %.2fx\n", d.SpeedupVsDefault)
	fmt.Printf("  rationale: %s\n", d.Rationale)
	if len(d.Ranked) > 1 {
		fmt.Printf("  runners-up:\n")
		for _, c := range d.Ranked[1:] {
			fmt.Printf("    %-34s %10.3f ms  %8.1f Gflop/s\n", c.Describe(), c.PredictedMS, c.PredictedGflops)
		}
	}
}

// loadPlanMachine parses the -plan-machine spec.
func loadPlanMachine(spec string) (simulate.Machine, error) {
	switch {
	case strings.HasPrefix(spec, "kraken:"):
		nodes, err := strconv.Atoi(strings.TrimPrefix(spec, "kraken:"))
		if err != nil || nodes < 1 {
			return simulate.Machine{}, fmt.Errorf("bad -plan-machine %q (want kraken:<nodes>)", spec)
		}
		return simulate.Kraken(nodes), nil
	case strings.HasPrefix(spec, "localhost:"):
		parts := strings.Split(strings.TrimPrefix(spec, "localhost:"), ",")
		if len(parts) != 2 {
			return simulate.Machine{}, fmt.Errorf("bad -plan-machine %q (want localhost:<nodes>,<cores>)", spec)
		}
		nodes, err1 := strconv.Atoi(parts[0])
		cores, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil || nodes < 1 || cores < 1 {
			return simulate.Machine{}, fmt.Errorf("bad -plan-machine %q (want localhost:<nodes>,<cores>)", spec)
		}
		return simulate.LocalHost(nodes, cores), nil
	default:
		data, err := os.ReadFile(spec)
		if err != nil {
			return simulate.Machine{}, fmt.Errorf("-plan-machine %q: not kraken:/localhost: and %w", spec, err)
		}
		return simulate.MachineFromModelResponse(data)
	}
}
