package main

import (
	"fmt"

	"pulsarqr"
	"pulsarqr/internal/blas"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/trace"
)

// factorEnv is factor_tall and factor_square: the documented library entry
// point, pulsarqr.Factor then R(), on one fixed seeded matrix.
type factorEnv struct {
	tr   *tracer
	a    *matrix.Mat
	opts pulsarqr.Options
	ref  *matrix.Mat // R of the sequential reference, set by oracle

	r *matrix.Mat // the last op's R

	// What the last traced op left for collect.
	rec                        *trace.Recorder
	fromDense, factorize, asmR int
}

func newFactorEnv(r rig, m, n int) (env, error) {
	opts := pulsarqr.DefaultOptions()
	opts.Nodes, opts.Threads = 1, threads
	return &factorEnv{tr: r.tr, a: pulsarqr.RandomMatrix(m, n, r.seed), opts: opts}, nil
}

func (e *factorEnv) op(i int) error {
	if e.tr.active() {
		return e.tracedOp(i)
	}
	f, err := pulsarqr.Factor(e.a, e.opts)
	if err != nil {
		return err
	}
	e.r = f.R()
	return nil
}

// tracedOp makes the two calls pulsarqr.Factor makes for the systolic
// engine, with a span around each and a trace recorder hooked into the run.
func (e *factorEnv) tracedOp(i int) error {
	sp := e.tr.rec
	op := sp.begin("op", -1, i)
	defer sp.end(op)

	e.fromDense = sp.begin("matrix.from_dense", op, i)
	ta := matrix.FromDense(e.a, e.opts.NB)
	sp.end(e.fromDense)

	e.rec = trace.NewRecorder()
	o := e.opts
	qo := qr.Options{NB: o.NB, IB: o.IB, Tree: o.Tree, H: o.H, Boundary: o.Boundary, Inter: o.Inter}
	rc := qr.RunConfig{Nodes: o.Nodes, Threads: o.Threads, Scheduling: o.Scheduling,
		FireHook: e.rec.Hook(), WaitHook: e.rec.WaitHook()}
	e.factorize = sp.begin("qr.factorize", op, i)
	f, err := qr.FactorizeVSA(ta, nil, qo, rc)
	sp.end(e.factorize)
	if err != nil {
		return err
	}

	e.asmR = sp.begin("qr.assemble_r", op, i)
	e.r = f.R()
	sp.end(e.asmR)
	return nil
}

func (e *factorEnv) collect(i int) error {
	t := e.tr
	spans := t.rec.spans
	factorize := spans[e.factorize].dur()
	t.sample("matrix.from_dense_s", spans[e.fromDense].dur())
	t.sample("qr.assemble_r_s", spans[e.asmR].dur())
	sh := shapeOf(e.rec.Events())
	if d := e.rec.Drops(); d > 0 {
		return fmt.Errorf("trace recorder dropped %d events", d)
	}
	t.sampleRun(sh, factorize)
	t.sample("pulsar.park_s", sh.park)
	if sh.firings > 0 {
		// What the workers' fire window holds beyond kernels and parking:
		// the runtime's own cost per firing (ready sweeps, channel pushes,
		// wake-ups).
		over := threads*sh.window - sh.busyTotal - sh.park
		t.sample("pulsar.fire_overhead_us", over/float64(sh.firings)*1e6)
	}
	return nil
}

func (e *factorEnv) verify(i int) error {
	if e.r == nil {
		return fmt.Errorf("no R")
	}
	if d := matrix.MaxAbsDiff(e.r, e.ref); d != 0 {
		return fmt.Errorf("R differs from the sequential reference by %g (want elementwise equality)", d)
	}
	return nil
}

func (e *factorEnv) oracle() error {
	seq := e.opts
	seq.Engine = pulsarqr.Sequential
	ref, err := pulsarqr.Factor(e.a, seq)
	if err != nil {
		return fmt.Errorf("sequential reference: %w", err)
	}
	e.ref = ref.R()
	if err := e.op(0); err != nil {
		return err
	}
	if err := e.verify(0); err != nil {
		return err
	}
	if res := gramResidual(e.a, e.r); !(res <= 1e-12) {
		return fmt.Errorf("residual %g exceeds 1e-12", res)
	}
	return nil
}

func (e *factorEnv) close() {}

// gramResidual is Factorization.Residual's quantity, ‖AᵀA − RᵀR‖_F/‖AᵀA‖_F,
// with the two products formed by blas.Dgemm instead of the naive
// matrix.Mul: on 2048×1024 the naive form costs seconds, which an oracle
// that runs in every benchmark process cannot afford.
func gramResidual(a, r *matrix.Mat) float64 {
	n := a.Cols
	ata, rtr := matrix.New(n, n), matrix.New(n, n)
	blas.Dgemm(true, false, n, n, a.Rows, 1, a.Data, a.LD, a.Data, a.LD, 0, ata.Data, ata.LD)
	blas.Dgemm(true, false, n, n, r.Rows, 1, r.Data, r.LD, r.Data, r.LD, 0, rtr.Data, rtr.LD)
	return ata.Sub(rtr).FrobNorm() / ata.FrobNorm()
}
