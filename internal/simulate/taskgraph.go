package simulate

import (
	"fmt"

	"pulsarqr/internal/qr"
)

// Workload describes one factorization to simulate.
type Workload struct {
	M, N int
	Opts qr.Options
}

func (w Workload) String() string {
	return fmt.Sprintf("m=%d n=%d %v", w.M, w.N, w.Opts)
}

// edge is a dependency with its delivery delay (computed at build time
// from the placement of both endpoints).
type edge struct {
	to    int32
	delay float64
}

// task is one kernel invocation in the DAG.
type task struct {
	dur     float64
	worker  int32
	deps    int32
	readyAt float64
	kind    qr.Kernel
	panel   int32 // panel step j, for trace generation
	succs   []edge
}

// graph is the complete DAG of one workload on one machine.
type graph struct {
	m     Machine
	tasks []task
	msgs  int64
	bytes int64
	// nodeFlops is the flops the DAG places on each node, by kernel.
	nodeFlops [][qr.NumKernels]float64
	// onExec, when set, observes every task execution (trace generation).
	onExec func(t *task, worker int32, start, finish float64)
}

// buildGraph prices the listing (qr.List) of workload w on machine m: one
// task per kernel call, its flops at the machine's rate, placed by the
// array's own rule (qr.Place). Each datum a call touches draws an edge from
// the datum's last writer: reflectors it only reads cost vtBytes plus the
// by-pass hops to its column, a tile or R it overwrites costs nbBytes. An
// unset h is the one dispatch would run: one domain per worker of the machine.
func buildGraph(w Workload, m Machine) *graph {
	nb := w.Opts.NB
	mt := (w.M + nb - 1) / nb
	nt := (w.N + nb - 1) / nb
	if mt < nt {
		panic(fmt.Sprintf("simulate: m=%d < n=%d", w.M, w.N))
	}
	workers := m.Workers()
	opts := w.Opts.Resolve(mt, m.Nodes*workers)

	g := &graph{m: m, nodeFlops: make([][qr.NumKernels]float64, m.Nodes)}
	rate := m.kernelGflops(nb, opts.IB)
	nbBytes := 8 * nb * nb
	vtBytes := 8 * (nb*nb + opts.IB*nb)

	// writer[slot(d)] is 1 + the task that last wrote datum d, 0 before
	// any: the mt×nt tiles, then the R of each (panel, domain top).
	writer := make([]int32, 2*mt*nt)
	slot := func(d qr.Datum) int {
		if d.R {
			return mt*nt + d.L*mt + d.I
		}
		return d.I*nt + d.L
	}
	qr.List(mt, nt, 0, opts, func(c qr.Call) {
		if c.Kernel == qr.WriteBack {
			return // it runs no kernel, so it is no task
		}
		id := int32(len(g.tasks))
		fl := c.Flops(w.M, w.N, nb)
		node, thread := qr.Place(c, mt, m.Nodes, workers)
		g.nodeFlops[node][c.Kernel] += fl
		g.tasks = append(g.tasks, task{
			dur:    m.taskTime(rate[c.Kernel], fl),
			worker: int32(node*workers + thread),
			kind:   c.Kernel,
			panel:  int32(c.J),
		})
		c.Access(func(d qr.Datum, write bool) {
			// Reflectors travel the by-pass chain to column L; a datum the
			// call overwrites is handed on as one tile.
			bytes, extra := vtBytes, float64(c.L-c.J-1)*m.HopIntra
			if write {
				bytes, extra = nbBytes, 0
			}
			if w := writer[slot(d)]; w > 0 {
				src, dst := &g.tasks[w-1], &g.tasks[id]
				same := src.worker/int32(workers) == dst.worker/int32(workers)
				if !same {
					g.msgs++
					g.bytes += int64(bytes)
				}
				src.succs = append(src.succs, edge{to: id, delay: m.transfer(same, bytes) + extra})
				dst.deps++
			}
			if write {
				writer[slot(d)] = id + 1
			}
		})
	})
	return g
}
