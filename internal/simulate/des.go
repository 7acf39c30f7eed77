package simulate

import (
	"container/heap"
	"fmt"
	"time"

	"pulsarqr/internal/kernels"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/trace"
)

// Profile selects the scheduling behavior being modeled.
type Profile int

const (
	// SystolicProfile models the PULSAR execution: cheap dataflow firing,
	// and the reduction chains effectively prioritized — the lazy sweep
	// plus the dedicated VDP placement keeps panel/merge tasks moving
	// (the lookahead effect of §V-D).
	SystolicProfile Profile = iota
	// GenericProfile models a generic centralized task runtime (the
	// PaRSEC-class comparison of §VI-A): higher per-task cost, no
	// by-pass pipelining of broadcasts, and no preference for
	// critical-path tasks over bulk updates.
	GenericProfile
)

func (p Profile) String() string {
	if p == GenericProfile {
		return "generic"
	}
	return "systolic"
}

// Result reports one simulated run.
type Result struct {
	Seconds  float64
	Gflops   float64
	Tasks    int
	Messages int64
	BytesInt int64
	// Utilization is busy worker-seconds divided by workers × makespan.
	Utilization float64
	// KernelSeconds is total busy time per kernel.
	KernelSeconds [qr.NumKernels]float64
	// NodeFlops is the work the task graph places on each node, by kernel:
	// a property of the workload and the node count, not of the machine's
	// speeds — what a rank's share of a job is, for comparing the kernel
	// time it measured against what the kernels take alone.
	NodeFlops [][qr.NumKernels]float64
	// CriticalPath is the longest dependency chain duration ignoring
	// resource limits (an unreachable lower bound on the makespan).
	CriticalPath float64
}

// Run simulates workload w on machine m under the given profile and
// returns the predicted performance. Reported Gflop/s always uses the
// conventional 2n²(m − n/3) count.
func Run(w Workload, m Machine, p Profile) Result {
	res, _ := RunTraced(w, m, p, 0)
	return res
}

// RunTraced simulates like Run and additionally returns the execution
// trace of the first maxWorkers workers (node 0 first), converted to
// trace events — enough to render paper-Fig.-7-style timelines for
// machine sizes no real host could run. maxWorkers <= 0 records nothing.
func RunTraced(w Workload, m Machine, p Profile, maxWorkers int) (Result, []trace.Event) {
	if p == GenericProfile {
		// Calibrated to the PaRSEC-class gap the paper reports (≥10 %
		// strong scaling, ≥20 % weak): centralized dependency tracking
		// costs tens of microseconds per task, intra-node hand-offs go
		// through the scheduler rather than a FIFO, and message injection
		// is not overlapped by a dedicated proxy.
		m.TaskOverhead *= 30
		m.HopIntra *= 5
		m.AlphaInter *= 3
	}
	g := buildGraph(w, m)
	var events []trace.Event
	perNode := m.Workers()
	if maxWorkers > 0 {
		g.onExec = func(t *task, worker int32, start, finish float64) {
			if int(worker) >= maxWorkers {
				return
			}
			events = append(events, trace.Event{
				Class:  t.kind.Class(),
				Panel:  int(t.panel),
				Node:   int(worker) / perNode,
				Thread: int(worker) % perNode,
				Start:  time.Duration(start * float64(time.Second)),
				End:    time.Duration(finish * float64(time.Second)),
			})
		}
	}
	res := g.execute(p == SystolicProfile, w)
	return res, events
}

// workerState holds the per-worker scheduling state: two ready heaps (the
// critical reduction tasks and the bulk updates) and the time the worker
// frees up.
type workerState struct {
	freeAt float64
	crit   taskHeap
	bulk   taskHeap
	stamp  int64
}

// taskHeap orders task ids by readyAt (ties by id for determinism).
type taskHeap struct {
	ids   []int32
	tasks []task
}

func (h taskHeap) Len() int { return len(h.ids) }
func (h taskHeap) Less(a, b int) bool {
	ta, tb := h.tasks[h.ids[a]].readyAt, h.tasks[h.ids[b]].readyAt
	if ta != tb {
		return ta < tb
	}
	return h.ids[a] < h.ids[b]
}
func (h taskHeap) Swap(a, b int) { h.ids[a], h.ids[b] = h.ids[b], h.ids[a] }
func (h *taskHeap) Push(x any)   { h.ids = append(h.ids, x.(int32)) }
func (h *taskHeap) Pop() any {
	old := h.ids
	n := len(old)
	x := old[n-1]
	h.ids = old[:n-1]
	return x
}

// candidate is a global event: worker w could start a task at time t.
type candidate struct {
	t     float64
	w     int32
	stamp int64
}

type candHeap []candidate

func (h candHeap) Len() int { return len(h) }
func (h candHeap) Less(a, b int) bool {
	if h[a].t != h[b].t {
		return h[a].t < h[b].t
	}
	return h[a].w < h[b].w
}
func (h candHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *candHeap) Push(x any)   { *h = append(*h, x.(candidate)) }
func (h *candHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func (g *graph) execute(critFirst bool, w Workload) Result {
	nWorkers := int32(g.m.Nodes * g.m.Workers())
	ws := make([]workerState, nWorkers)
	for i := range ws {
		ws[i].crit.tasks = g.tasks
		ws[i].bulk.tasks = g.tasks
	}
	var cands candHeap

	refresh := func(wi int32) {
		st := &ws[wi]
		if st.crit.Len() == 0 && st.bulk.Len() == 0 {
			return
		}
		next := func(h *taskHeap) float64 {
			if h.Len() == 0 {
				return -1
			}
			return g.tasks[h.ids[0]].readyAt
		}
		t := next(&st.crit)
		if b := next(&st.bulk); t < 0 || (b >= 0 && b < t) {
			t = b
		}
		if t < st.freeAt {
			t = st.freeAt
		}
		st.stamp++
		heap.Push(&cands, candidate{t: t, w: wi, stamp: st.stamp})
	}

	enqueue := func(id int32) {
		tk := &g.tasks[id]
		st := &ws[tk.worker]
		if tk.kind <= qr.Ttqrt { // a panel or merge: the reduction's critical path
			heap.Push(&st.crit, id)
		} else {
			heap.Push(&st.bulk, id)
		}
		refresh(tk.worker)
	}

	for id := range g.tasks {
		if g.tasks[id].deps == 0 {
			enqueue(int32(id))
		}
	}

	var makespan, busy float64
	var kernelBusy [qr.NumKernels]float64
	executed := 0
	for cands.Len() > 0 {
		c := heap.Pop(&cands).(candidate)
		st := &ws[c.w]
		if c.stamp != st.stamp {
			continue // stale
		}
		// Choose the heap: prefer the critical heap when its task can
		// start no later than the bulk one (systolic lookahead); the
		// generic profile just takes the earliest-ready task.
		pick := func() int32 {
			cr, bl := &st.crit, &st.bulk
			if cr.Len() == 0 {
				return int32(heap.Pop(bl).(int32))
			}
			if bl.Len() == 0 {
				return int32(heap.Pop(cr).(int32))
			}
			tc := g.tasks[cr.ids[0]].readyAt
			tb := g.tasks[bl.ids[0]].readyAt
			if tc < st.freeAt {
				tc = st.freeAt
			}
			if tb < st.freeAt {
				tb = st.freeAt
			}
			if critFirst {
				if tc <= tb {
					return int32(heap.Pop(cr).(int32))
				}
				return int32(heap.Pop(bl).(int32))
			}
			if tb <= tc {
				return int32(heap.Pop(bl).(int32))
			}
			return int32(heap.Pop(cr).(int32))
		}
		id := pick()
		tk := &g.tasks[id]
		start := tk.readyAt
		if st.freeAt > start {
			start = st.freeAt
		}
		finish := start + tk.dur
		st.freeAt = finish
		busy += tk.dur
		kernelBusy[tk.kind] += tk.dur
		if g.onExec != nil {
			g.onExec(tk, c.w, start, finish)
		}
		if finish > makespan {
			makespan = finish
		}
		executed++
		for _, e := range tk.succs {
			s := &g.tasks[e.to]
			if arr := finish + e.delay; arr > s.readyAt {
				s.readyAt = arr
			}
			s.deps--
			if s.deps == 0 {
				enqueue(e.to)
			}
		}
		refresh(c.w)
	}
	if executed != len(g.tasks) {
		panic(fmt.Sprintf("simulate: executed %d of %d tasks (dependency cycle?)", executed, len(g.tasks)))
	}

	res := Result{
		Seconds:       makespan,
		Tasks:         len(g.tasks),
		Messages:      g.msgs,
		BytesInt:      g.bytes,
		KernelSeconds: kernelBusy,
		NodeFlops:     g.nodeFlops,
		CriticalPath:  g.criticalPath(),
	}
	if makespan > 0 {
		res.Gflops = kernels.FlopsQR(w.M, w.N) / 1e9 / makespan
		res.Utilization = busy / (float64(nWorkers) * makespan)
	}
	return res
}

// criticalPath returns the longest duration chain through the DAG
// (including message delays), the no-resource-limit lower bound.
func (g *graph) criticalPath() float64 {
	// Tasks were created in topological order (dependencies always point
	// from earlier to later ids), so one forward sweep suffices.
	longest := make([]float64, len(g.tasks))
	var best float64
	for id := range g.tasks {
		tk := &g.tasks[id]
		fin := longest[id] + tk.dur
		if fin > best {
			best = fin
		}
		for _, e := range tk.succs {
			if v := fin + e.delay; v > longest[e.to] {
				longest[e.to] = v
			}
		}
	}
	return best
}
