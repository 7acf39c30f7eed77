package obs

import (
	"sync"
	"sync/atomic"
)

// StripedRing is a bounded, overwrite-oldest buffer striped over
// independent locks: a push takes the one stripe its caller's key selects,
// so concurrent producers with different keys rarely contend. When a stripe
// is full its oldest value is overwritten and the drop counter is bumped —
// pushing never blocks and never grows the ring. trace.Recorder (one stripe
// key per worker lane) and the flight recorder Ring (one per job or session
// identity) are both this.
type StripedRing[T any] struct {
	per     int
	drops   atomic.Int64
	stripes []ringStripe[T]
}

type ringStripe[T any] struct {
	mu   sync.Mutex
	vals []T
	next int // overwrite cursor, and the oldest value, once len(vals) == per
}

// NewStripedRing builds a ring holding at most capacity values (rounded up
// to a multiple of the stripe count, at least one per stripe).
func NewStripedRing[T any](capacity, stripes int) *StripedRing[T] {
	return &StripedRing[T]{per: max((capacity+stripes-1)/stripes, 1), stripes: make([]ringStripe[T], stripes)}
}

// Cap returns the ring's bound.
func (r *StripedRing[T]) Cap() int { return r.per * len(r.stripes) }

// Push records v in the stripe key selects, overwriting that stripe's oldest
// value when it is full.
func (r *StripedRing[T]) Push(key uint, v T) {
	s := &r.stripes[key%uint(len(r.stripes))]
	s.mu.Lock()
	if len(s.vals) < r.per {
		s.vals = append(s.vals, v)
		s.mu.Unlock()
		return
	}
	s.vals[s.next] = v
	s.next = (s.next + 1) % r.per
	s.mu.Unlock()
	r.drops.Add(1)
}

// Drops returns how many values were overwritten — the ring's honesty
// counter, so a snapshot with loss is never presented as complete.
func (r *StripedRing[T]) Drops() int64 { return r.drops.Load() }

// Len returns the number of values currently held.
func (r *StripedRing[T]) Len() int {
	n := 0
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		n += len(s.vals)
		s.mu.Unlock()
	}
	return n
}

// Snapshot returns the held values keep accepts (nil keeps all), stripe by
// stripe and oldest first within a stripe. Stripes are locked one at a time,
// so the result is not one instant's state; order across stripes is the
// caller's to impose.
func (r *StripedRing[T]) Snapshot(keep func(T) bool) []T {
	var out []T
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		for j := range s.vals {
			if v := s.vals[(s.next+j)%len(s.vals)]; keep == nil || keep(v) {
				out = append(out, v)
			}
		}
		s.mu.Unlock()
	}
	return out
}
