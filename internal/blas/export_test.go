package blas

// forceKernel swaps the active micro-kernel configuration for the duration
// of a test and returns a restore function. Pooled scratch is sized for the
// largest config (scratchAP/scratchBP), so buffers packed under one config
// and reused under another stay in bounds; callers must not hold packed
// panels across the swap (the packing geometry changes with it).
func forceKernel(p kernelParams) (restore func()) {
	old := kp
	kp = p
	return func() { kp = old }
}

// Exported-for-test kernel configs and capability flags.
var (
	testParamsAVX512 = paramsAVX512
	testParamsAVX2   = paramsAVX2
	testParamsScalar = paramsScalar

	testHaveAVX512 = haveAVX512
	testHaveAVX2   = haveFastKernel
)
