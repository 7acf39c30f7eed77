//go:build !race

package kernels_test

const raceEnabled = false
