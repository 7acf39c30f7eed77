//go:build race

package qr

// raceEnabled reports whether the race detector is active, which slows the
// runtime's goroutine hand-offs about thirtyfold.
const raceEnabled = true
