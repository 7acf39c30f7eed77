package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"pulsarqr/internal/blas"
)

// host is the record of where a results file was measured.
type host struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	CPUModel    string `json:"cpu_model"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	MicroKernel string `json:"micro_kernel"`
}

func hostRecord() host {
	h := host{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		MicroKernel: blas.MicroKernelName(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// warnFewCPUs says so when the host cannot run the workloads' threads side by
// side.
func warnFewCPUs() {
	if n := runtime.NumCPU(); n < threads {
		fmt.Printf("WARNING: %d CPU(s) for %d worker threads: timings on this host are not comparable\n", n, threads)
	}
}

// series is one metric over the runs of a results file.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Spread float64   `json:"spread"` // interquartile range ÷ median
}

// workloadResult is one workload's section of a results file.
type workloadResult struct {
	Why       string            `json:"why"`
	Attempted []int             `json:"attempted"` // ops per untraced run: the sample counts
	Failed    []int             `json:"failed"`
	EndToEnd  map[string]series `json:"end_to_end"`
	PerLayer  map[string]series `json:"per_layer"`
}

// results is the file a full run writes and -compare reads.
type results struct {
	Commit    string                    `json:"commit"`
	Host      host                      `json:"host"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Scale     float64                   `json:"scale"` // seconds ÷ runSeconds: how far op counts are scaled from the benchmark's own
	Runs      int                       `json:"runs"`
	Smoke     bool                      `json:"smoke,omitempty"`
	Workloads map[string]workloadResult `json:"workloads"`
	Derived   map[string]float64        `json:"derived"`
}

func newSeries(unit string, values []float64) series {
	return series{Unit: unit, Values: values, Median: median(values), Spread: spread(values)}
}

// runAll runs every workload in child processes of this binary — runs
// untraced runs on consecutive seeds for the end-to-end metrics, then one
// traced run for the per-layer metrics — and writes the results file. It
// reports whether every run was correct.
func runAll(seed int64, seconds float64, runs int, smoke bool, outPath string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
		return false, err
	}
	res := results{
		Commit: commit(), Host: hostRecord(), Seed: seed, Seconds: seconds,
		Scale: seconds / runSeconds, Runs: runs, Smoke: smoke,
		Workloads: map[string]workloadResult{}, Derived: map[string]float64{},
	}
	fmt.Printf("host: %d CPUs, GOMAXPROCS %d, %s, %s, micro-kernel %s\n",
		res.Host.NProc, res.Host.GOMAXPROCS, res.Host.CPUModel, res.Host.GoVersion, res.Host.MicroKernel)
	warnFewCPUs()
	allCorrect := true
	child := func(w workload, traced int, s int64) (outcome, error) {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(s), "-seconds", fmt.Sprint(seconds),
			"-trace", fmt.Sprint(traced), "-out", outPath}
		if smoke {
			args = append(args, "-smoke")
		}
		return runChild(self, args)
	}
	for _, w := range workloads {
		wr := workloadResult{Why: w.why, EndToEnd: map[string]series{}, PerLayer: map[string]series{}}
		values := map[string][]float64{}
		for k := 0; k < runs; k++ {
			o, err := child(w, 0, seed+int64(k))
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
			allCorrect = allCorrect && o.Correct
			wr.Attempted = append(wr.Attempted, o.Attempted)
			wr.Failed = append(wr.Failed, o.Failed)
			for name, m := range o.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, d := range endToEnd {
			wr.EndToEnd[d.Name] = newSeries(d.Unit, values[d.Name])
		}
		o, err := child(w, 1, seed)
		if err != nil {
			return false, fmt.Errorf("%s traced: %w", w.name, err)
		}
		allCorrect = allCorrect && o.Correct
		for _, d := range perLayer {
			wr.PerLayer[d.Name] = newSeries(d.Unit, []float64{o.Metrics[d.Name].Value})
		}
		res.Workloads[w.name] = wr
	}

	fmt.Printf("\n%-16s %-18s %14s %-8s %8s  runs=%d\n", "workload", "metric", "median", "unit", "spread", runs)
	for _, w := range workloads {
		wr := res.Workloads[w.name]
		for _, d := range endToEnd {
			s := wr.EndToEnd[d.Name]
			fmt.Printf("%-16s %-18s %14.6g %-8s %7.1f%%\n", w.name, d.Name, s.Median, s.Unit, 100*s.Spread)
		}
		att, failed := 0, 0
		for i := range wr.Attempted {
			att += wr.Attempted[i]
			failed += wr.Failed[i]
		}
		fmt.Printf("%-16s %-18s %14.6g %-8s          (%d of %d ops)\n", w.name, "failed_ratio", float64(failed)/float64(att), "ratio", failed, att)
	}
	// The repository's stack-efficiency ratio: what the whole stack
	// delivers on a shape over what the library call delivers on it.
	tall, fleet := res.Workloads["factor_tall"], res.Workloads["job_fleet"]
	if g := tall.EndToEnd["gflops"].Median; g > 0 {
		res.Derived["stack_efficiency"] = fleet.EndToEnd["gflops"].Median / g
		fmt.Printf("\nstack_efficiency = job_fleet.gflops / factor_tall.gflops = %.4f (derived; not a claimable metric)\n",
			res.Derived["stack_efficiency"])
	}

	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Printf("wrote %s\n", outPath)
	return allCorrect, nil
}

// runChild runs one workload run as a child process, relays what it prints,
// and decodes the result object on its last line. A child that printed a
// result but exited non-zero ran an incorrect workload: that is reported
// through the result, not as an error.
func runChild(self string, args []string) (outcome, error) {
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var o outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
		if runErr != nil {
			return outcome{}, fmt.Errorf("child %v: %w", args, runErr)
		}
		return outcome{}, fmt.Errorf("child %v: no result line: %w", args, err)
	}
	return o, nil
}

// commit is the checkout's commit hash, "unknown" outside a git repository.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
