package obs

import "sort"

// DefaultFlightCap is the default flight-recorder bound in events. At ~150
// bytes per event the default ring tops out around 150 KiB — small enough
// to sit resident forever, large enough to cover the minutes before a
// failure at service event rates.
const DefaultFlightCap = 1024

// flightStripes is the ring's stripe count; events hash to a stripe by
// their job/session identity so concurrent emitters rarely contend on one
// mutex. Far fewer than trace.Recorder's: the service event rate is low.
const flightStripes = 8

// Ring is the flight recorder: a StripedRing of recent events keyed by
// identity, read back as a time-ordered tail.
type Ring struct{ *StripedRing[Event] }

// NewRing builds a ring bounded at capacity events (rounded up to a
// multiple of the stripe count); capacity <= 0 takes DefaultFlightCap.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	return &Ring{NewStripedRing[Event](capacity, flightStripes)}
}

// Push records one event, overwriting its stripe's oldest when full.
func (r *Ring) Push(e Event) {
	h := uint32(e.Job)*2654435761 + uint32(e.Rank+1)*40503
	for i := 0; i < len(e.Session); i++ {
		h = h*31 + uint32(e.Session[i])
	}
	r.StripedRing.Push(uint(h), e)
}

// Tail returns the most recent n events in time order (oldest of the tail
// first). n <= 0 returns everything held.
func (r *Ring) Tail(n int) []Event {
	return r.TailMatch(n, nil)
}

// TailMatch returns the most recent n events satisfying keep (nil keeps
// all), in time order.
func (r *Ring) TailMatch(n int, keep func(Event) bool) []Event {
	all := r.Snapshot(keep)
	sort.Slice(all, func(a, b int) bool { return all[a].At.Before(all[b].At) })
	if n > 0 && len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}
