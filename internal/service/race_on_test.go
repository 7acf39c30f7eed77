//go:build race

package service

// raceEnabled reports whether the race detector is active; sync.Pool
// deliberately drops items under it, so alloc-count assertions are skipped.
const raceEnabled = true
