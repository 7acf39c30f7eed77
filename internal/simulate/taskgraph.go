package simulate

import (
	"fmt"

	"pulsarqr/internal/kernels"
	"pulsarqr/internal/pulsar"
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
	crit    bool // panel/merge task: on the reduction critical path
	kind    Kernel
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
	nodeFlops [][numKernels]float64
	// onExec, when set, observes every task execution (trace generation).
	onExec func(t *task, worker int32, start, finish float64)
}

// buildGraph generates the task graph the 3D VSA executes for workload w:
// the same plans, the same chains, and the runtime's own placement rule
// (pulsar.PlaceTile). An unset h is the one dispatch would run: one domain
// per worker of the machine.
func buildGraph(w Workload, m Machine) *graph {
	nb := w.Opts.NB
	mt := (w.M + nb - 1) / nb
	nt := (w.N + nb - 1) / nb
	if mt < nt {
		panic(fmt.Sprintf("simulate: m=%d < n=%d", w.M, w.N))
	}
	workers := m.Workers()
	opts := w.Opts.Resolve(mt, m.Nodes*workers)
	ib := opts.IB

	g := &graph{m: m, nodeFlops: make([][numKernels]float64, m.Nodes)}
	rate := m.kernelGflops(nb, ib)
	nbBytes := 8 * nb * nb
	vtBytes := 8 * (nb*nb + ib*nb)

	// Edge tiles are as ragged as the matrix: at nb=192 a 640-column matrix
	// ends in a 64-wide tile, and costing it as a full one would overstate
	// the whole factorization by half.
	rows := func(i int) int { return min(nb, w.M-i*nb) }
	cols := func(j int) int { return min(nb, w.N-j*nb) }

	curPanel := 0
	newTask := func(k Kernel, row, col int, fl float64, crit bool) int32 {
		id := int32(len(g.tasks))
		node, thread := pulsar.PlaceTile(mt, m.Nodes, workers, row, col)
		g.nodeFlops[node][k] += fl
		g.tasks = append(g.tasks, task{
			dur:    m.taskTime(rate[k], fl),
			worker: int32(node*workers + thread),
			kind:   k,
			crit:   crit,
			panel:  int32(curPanel),
		})
		return id
	}
	// dep connects src -> dst with a message of the given size and an
	// extra fixed delay (pipelined by-pass hops).
	dep := func(src, dst int32, bytes int, extra float64) {
		if src < 0 {
			return
		}
		s, d := &g.tasks[src], &g.tasks[dst]
		same := s.worker/int32(workers) == d.worker/int32(workers)
		delay := m.transfer(same, bytes) + extra
		if !same {
			g.msgs++
			g.bytes += int64(bytes)
		}
		s.succs = append(s.succs, edge{to: dst, delay: delay})
		d.deps++
	}

	// lastTouch[i*nt+l] is the task that released tile (i,l), -1 initially.
	lastTouch := make([]int32, mt*nt)
	for i := range lastTouch {
		lastTouch[i] = -1
	}
	lt := func(i, l int) int32 { return lastTouch[i*nt+l] }
	setLT := func(i, l int, t int32) { lastTouch[i*nt+l] = t }

	for j := 0; j < nt; j++ {
		curPanel = j
		plan := qr.Plan(j, mt, opts)

		// Panel chains and merges (the R stream).
		panelTask := map[int]int32{}
		streamEnd := map[int]int32{}
		for _, d := range plan.Domains {
			tg := newTask(Geqrt, d.Top, j, kernels.FlopsGeqrt(rows(d.Top), cols(j)), true)
			dep(lt(d.Top, j), tg, nbBytes, 0)
			panelTask[d.Top] = tg
			prev := tg
			for _, k := range d.Rows {
				ts := newTask(Tsqrt, k, j, kernels.FlopsTsqrt(rows(k), cols(j)), true)
				dep(prev, ts, nbBytes, 0)
				dep(lt(k, j), ts, nbBytes, 0)
				panelTask[k] = ts
				prev = ts
			}
			streamEnd[d.Top] = prev
		}
		mergeTask := make([]int32, len(plan.Merges))
		for mi, mg := range plan.Merges {
			t := newTask(Ttqrt, mg.Surv, j, kernels.FlopsTtqrt(cols(j)), true)
			dep(streamEnd[mg.Surv], t, nbBytes, 0)
			dep(streamEnd[mg.K], t, nbBytes, 0)
			streamEnd[mg.Surv] = t
			mergeTask[mi] = t
		}

		// Update chains per trailing column.
		for l := j + 1; l < nt; l++ {
			hop := float64(l-j-1) * m.HopIntra // by-pass pipeline depth
			updEnd := map[int]int32{}
			for _, d := range plan.Domains {
				u := newTask(Ormqr, d.Top, l, kernels.FlopsOrmqr(rows(d.Top), cols(l), min(rows(d.Top), cols(j))), false)
				dep(panelTask[d.Top], u, vtBytes, hop)
				dep(lt(d.Top, l), u, nbBytes, 0)
				prev := u
				for _, k := range d.Rows {
					ut := newTask(Tsmqr, k, l, kernels.FlopsTsmqr(rows(k), cols(j), cols(l)), false)
					dep(panelTask[k], ut, vtBytes, hop)
					dep(prev, ut, nbBytes, 0)
					dep(lt(k, l), ut, nbBytes, 0)
					setLT(k, l, ut)
					prev = ut
				}
				updEnd[d.Top] = prev
			}
			for mi, mg := range plan.Merges {
				mu := newTask(Ttmqr, mg.Surv, l, kernels.FlopsTtmqr(cols(j), cols(l)), false)
				dep(mergeTask[mi], mu, vtBytes, hop)
				dep(updEnd[mg.Surv], mu, nbBytes, 0)
				dep(updEnd[mg.K], mu, nbBytes, 0)
				updEnd[mg.Surv] = mu
				setLT(mg.K, l, mu)
			}
		}
	}
	return g
}
