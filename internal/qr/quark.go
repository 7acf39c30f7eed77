package qr

import (
	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/quark"
)

// FactorizeQuark computes the same factorization as Factorize by
// submitting the kernel calls as tasks to a QUARK-style task-superscalar
// runtime with the given number of workers. The dependency declarations
// reproduce the sequential data flow exactly, so the result is
// elementwise identical to the reference; the execution schedule, however,
// is the centralized dynamic one the paper compares against.
func FactorizeQuark(a *matrix.Tiled, b *matrix.Tiled, opts Options, workers int) (*Factorization, error) {
	rt := quark.New(workers)
	defer rt.Close()
	// A task's kernel borrows a pooled workspace for its duration: the
	// runtime's workers carry no state of their own.
	submit := func(label string, call func(*kernels.Workspace), deps ...quark.Dep) {
		rt.Submit(label, func() { call(nil) }, deps...)
	}
	return walk(a, b, opts.Resolve(a.MT, workers), submit, rt.Wait)
}
