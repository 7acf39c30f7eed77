// Command benchcheck is the kernel bench-regression gate behind
// `make bench-kernels-check`. It parses `go test -bench` output (one or
// more runs per benchmark), reduces each benchmark to its median ns/op,
// and compares against the committed BENCH_kernels.json baseline: any
// kernel more than -threshold slower than its recorded median fails the
// gate, as does a baseline kernel missing from the fresh run (a silent
// rename would otherwise open a hole in the gate).
//
// With -update it instead rewrites the baseline JSON from the fresh run,
// stamping the host and active micro-kernel so the recorded numbers are
// attributable to a code path:
//
//	go run ./scripts/benchcheck -update -baseline BENCH_kernels.json bench.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"pulsarqr/internal/blas"
)

type baseline struct {
	Description string             `json:"description"`
	Host        hostInfo           `json:"host"`
	Benchmarks  map[string]measure `json:"benchmarks"`
}

type hostInfo struct {
	CPU         string `json:"cpu"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	Microkernel string `json:"microkernel"`
}

type measure struct {
	NsPerOp     float64 `json:"ns_per_op"`
	Gflops      float64 `json:"gflops"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// sample accumulates the per-run observations of one benchmark.
type sample struct {
	name   string
	ns     []float64
	gflops []float64
	allocs int64
}

func main() {
	basePath := flag.String("baseline", "BENCH_kernels.json", "committed baseline JSON")
	threshold := flag.Float64("threshold", 0.20, "max allowed fractional ns/op regression")
	update := flag.Bool("update", false, "rewrite the baseline from the fresh run instead of checking")
	features := flag.Bool("features", false, "print detected CPU features and the chosen micro-kernel, then exit")
	flag.Parse()
	if *features {
		fmt.Printf("cpu: %s\nfeatures: %s\nmicro-kernel: %s\n", cpuModel(), blas.CPUFeatures(), blas.MicroKernelName())
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: benchcheck [-baseline f] [-threshold x] [-update] bench-output.txt")
		os.Exit(2)
	}
	samples, order, err := parseBench(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}
	if len(order) == 0 {
		fmt.Fprintln(os.Stderr, "benchcheck: no benchmark lines in", flag.Arg(0))
		os.Exit(2)
	}
	if *update {
		if err := writeBaseline(*basePath, samples, order); err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(2)
		}
		fmt.Printf("benchcheck: wrote %s (%d benchmarks, micro-kernel %s)\n",
			*basePath, len(order), blas.MicroKernelName())
		return
	}
	os.Exit(check(*basePath, samples, *threshold))
}

// parseBench reads `go test -bench` output, returning per-benchmark
// samples and the order benchmarks first appeared (for stable -update
// output).
func parseBench(path string) (map[string]*sample, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	samples := map[string]*sample{}
	var order []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
		s := samples[name]
		if s == nil {
			s = &sample{name: name}
			samples[name] = s
			order = append(order, name)
		}
		// fields[1] is the iteration count; the rest are "value unit" pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				s.ns = append(s.ns, v)
			case "Gflop/s":
				s.gflops = append(s.gflops, v)
			case "allocs/op":
				if int64(v) > s.allocs {
					s.allocs = int64(v)
				}
			}
		}
	}
	return samples, order, sc.Err()
}

// minOf is the reduction used for the fresh run in check mode: timing
// noise on a shared host is one-sided (preemption only ever slows a run),
// so the fastest of N samples is the most stable estimate of the kernel's
// true rate, and a real code regression raises the minimum just the same.
// The committed baseline stays a median (it is recorded once, deliberately,
// on a quiet host).
func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func check(basePath string, samples map[string]*sample, threshold float64) int {
	raw, err := os.ReadFile(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		return 2
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", basePath, err)
		return 2
	}
	if mk := blas.MicroKernelName(); mk != base.Host.Microkernel {
		fmt.Printf("note: active micro-kernel %q differs from baseline host %q; deltas reflect both code and kernel level\n",
			mk, base.Host.Microkernel)
	}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := 0
	for _, name := range names {
		want := base.Benchmarks[name]
		s := samples[name]
		if s == nil || len(s.ns) == 0 {
			fmt.Printf("FAIL %-18s missing from this run (baseline %.0f ns/op)\n", name, want.NsPerOp)
			failed++
			continue
		}
		got := minOf(s.ns)
		delta := (got - want.NsPerOp) / want.NsPerOp
		status := "ok  "
		if delta > threshold {
			status = "FAIL"
			failed++
		}
		fmt.Printf("%s %-18s %9.0f ns/op (baseline %9.0f, %+6.1f%%, best of %d)\n",
			status, name, got, want.NsPerOp, 100*delta, len(s.ns))
	}
	if failed > 0 {
		fmt.Printf("benchcheck: %d kernel(s) regressed beyond %.0f%%\n", failed, 100*threshold)
		return 1
	}
	fmt.Printf("benchcheck: all %d kernels within %.0f%% of baseline\n", len(names), 100*threshold)
	return 0
}

// writeBaseline emits the baseline JSON with benchmarks in first-appearance
// order (matching the committed file's layout, which json.Marshal's sorted
// maps would scramble).
func writeBaseline(path string, samples map[string]*sample, order []string) error {
	cpu := cpuModel()
	var b strings.Builder
	b.WriteString("{\n")
	fmt.Fprintf(&b, "  %q: %q,\n", "description",
		"Kernel/BLAS benchmark baseline for `make bench-kernels` (median of every run in the recorded output, -benchtime 200ms; on a host that drifts between phases, concatenate several `make bench-kernels` outputs before -update); the tile kernels run at the library's default tile, qr.DefaultOptions.")
	fmt.Fprintf(&b, "  %q: {\n", "host")
	fmt.Fprintf(&b, "    %q: %q,\n", "cpu", cpu)
	fmt.Fprintf(&b, "    %q: %q,\n", "goos", runtime.GOOS)
	fmt.Fprintf(&b, "    %q: %q,\n", "goarch", runtime.GOARCH)
	fmt.Fprintf(&b, "    %q: %q\n", "microkernel", blas.MicroKernelName())
	b.WriteString("  },\n")
	fmt.Fprintf(&b, "  %q: {\n", "benchmarks")
	for i, name := range order {
		s := samples[name]
		fmt.Fprintf(&b, "    %q: {\n", name)
		fmt.Fprintf(&b, "      %q: %.1f,\n", "ns_per_op", median(s.ns))
		fmt.Fprintf(&b, "      %q: %s,\n", "gflops", strconv.FormatFloat(median(s.gflops), 'f', 2, 64))
		fmt.Fprintf(&b, "      %q: %d\n", "allocs_per_op", s.allocs)
		if i == len(order)-1 {
			b.WriteString("    }\n")
		} else {
			b.WriteString("    },\n")
		}
	}
	b.WriteString("  }\n}\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// cpuModel reads the CPU model name from /proc/cpuinfo, falling back to
// GOARCH on hosts without it.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				return strings.TrimSpace(val)
			}
		}
	}
	return runtime.GOARCH
}
