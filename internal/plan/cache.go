package plan

import (
	"math/bits"
	"sync"
	"time"

	"pulsarqr/internal/simulate"
)

// DefaultCacheCap bounds the planner's decision cache. Decisions are small
// (a few candidates each) so the cap is about key diversity, not memory.
const DefaultCacheCap = 128

// Planner wraps Decide with a bounded LRU cache keyed by a caller-chosen
// model version (the epoch) and the rounded job shape, so repeat shapes plan
// in microseconds instead of re-running the DES sweep each time.
type Planner struct {
	cfg Config
	cap int

	mu       sync.Mutex
	entries  map[cacheKey]Decision
	order    []cacheKey // LRU order, oldest first
	computed int64
	hits     int64
}

type cacheKey struct {
	epoch  uint64
	m, n   int
	ranks  int
	cores  int
	target int64 // TargetMS in whole ms; shapes with targets don't share entries
}

// NewPlanner builds a Planner; cacheCap <= 0 takes DefaultCacheCap.
func NewPlanner(cfg Config, cacheCap int) *Planner {
	if cacheCap <= 0 {
		cacheCap = DefaultCacheCap
	}
	return &Planner{cfg: cfg, cap: cacheCap, entries: make(map[cacheKey]Decision)}
}

// RoundDim rounds a dimension up to 3 significant bits (1000 and 1010 both
// become 1024), so near-identical job shapes share one cache entry. The
// rounding is monotone and never rounds down, so M >= N survives it and a
// cached plan's tile grid is never taller than the real matrix.
func RoundDim(x int) int {
	if x <= 128 {
		return x
	}
	shift := bits.Len(uint(x)) - 3
	step := 1 << shift
	return (x + step - 1) >> shift << shift
}

// Plan returns the decision for spec on mach at the given model version
// epoch — a new epoch whenever mach changes — consulting the cache first. Cache hits return a copy with
// FromCache set; misses run the full Decide sweep and record PlanMS.
func (p *Planner) Plan(spec Spec, mach simulate.Machine, epoch uint64) (Decision, error) {
	rounded := spec
	rounded.M = RoundDim(spec.M)
	rounded.N = RoundDim(spec.N)
	key := cacheKey{
		epoch: epoch,
		m:     rounded.M, n: rounded.N,
		ranks: mach.Nodes, cores: mach.CoresPerNode,
		target: int64(spec.TargetMS),
	}

	p.mu.Lock()
	if d, ok := p.entries[key]; ok {
		p.touch(key)
		p.hits++
		p.mu.Unlock()
		d.FromCache = true
		return d, nil
	}
	p.mu.Unlock()

	start := time.Now()
	d, err := Decide(rounded, mach, p.cfg)
	if err != nil {
		return Decision{}, err
	}
	d.Epoch = epoch
	d.PlanMS = float64(time.Since(start)) / 1e6

	p.mu.Lock()
	p.computed++
	if _, ok := p.entries[key]; !ok {
		if len(p.order) >= p.cap {
			oldest := p.order[0]
			p.order = p.order[1:]
			delete(p.entries, oldest)
		}
		p.order = append(p.order, key)
	} else {
		p.touch(key)
	}
	p.entries[key] = d
	p.mu.Unlock()
	return d, nil
}

// touch moves key to the back of the LRU order; caller holds p.mu. O(n) at
// a cap of 128 keys is cheaper than a list's pointer chasing.
func (p *Planner) touch(key cacheKey) {
	for i, k := range p.order {
		if k == key {
			p.order = append(append(p.order[:i:i], p.order[i+1:]...), key)
			return
		}
	}
}

// Stats reports how many plans were computed fresh and how many were served
// from cache.
func (p *Planner) Stats() (computed, hits int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.computed, p.hits
}
