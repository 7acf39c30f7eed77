//go:build race

package session

// raceEnabled reports whether the race detector is active: it allocates
// beside every access, so alloc-count assertions are skipped.
const raceEnabled = true
