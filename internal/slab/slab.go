// Package slab is the process's warm storage: slices a finished user gives
// back, kept in size classes for the next user of a similar size. There are
// two pools, one per element type, and every warm user in the process takes
// from and puts to them, so a class one subsystem leaves idle can serve
// another; built values keyed by what they were built for sit on a shelf:
//
//	pool    storage                     taken in                   given back in
//	Floats  a rank's tiles              service ownedInputs        runJob (server or agent), after success
//	Floats  a finished job's R          service Server.runJob      Job.evict, once no view reads it
//	Floats  an uploaded job matrix      service readJobFrame       runJob, after success
//	Floats  a fetched R                 service Client.Job         Client.Job, once JobView.R holds it
//	Floats  a kept array's scratch      qr newBuilder, for an      the shelf of arrays, as a put past
//	                                    R-only run                 its limit pushes the array off
//	Floats  a session append block      session AppendReader.Next  Session.AppendFrom, after its leaf
//	Floats  a stream leaf's R and QᵀB   qr Streamer.LeafReduce     Streamer.Release, merged away or dropped
//	Floats  a stream's folds, merge     qr Streamer.Current        Streamer.ReleaseAll, as the session
//	        victim and reply node                                  is deleted or unloaded
//	Bytes   a job frame's buffer        service writeJobFrame,     the same call
//	                                    readFloats
//	Bytes   a transport frame           transport Isend,           the writer once sent,
//	                                    ReadFrame                  Request.Release once decoded
//	Bytes   a packet's marshal buffer   pulsar VSA.route           the proxy, right after Isend
//	Shelf   a rank's built array and    qr FactorizeVSAIn, an      Factorization.Release on rank 0,
//	        its scratch                 R-only run (qr.Env.Part)   FactorizeVSAIn elsewhere, after a clean run
//
// A one-node library run (pulsarqr.Factor, the tile kernels) takes nothing
// from either pool or the shelf: storage kept across library calls would
// only raise their footprint.
//
// Unlike a sync.Pool, a slab put back by one goroutine is visible to a take
// on any other: a sync.Pool parks an item in the putting P's private slot,
// where a Get on another P cannot reach it, so a process whose jobs hop
// between Ps keeps missing storage it holds. Like a sync.Pool, an idle class
// empties at the garbage collector: a slab not taken since the collection
// before last is dropped, so one burst of large jobs does not pin its slabs
// for the life of the process.
package slab

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
)

// Class returns the size class of n elements and the capacity a fresh slab
// of that class gets: the least m·2^e ≥ n with m in [8, 16), eight classes a
// doubling, so a slab holds less than 1/8 more than asked.
func Class(n int) (class, size int) {
	n = max(n, 8)
	e := max(bits.Len(uint(n-1))-4, 0)
	m := (n-1)>>e + 1
	return 8*e + m - 8, m << e
}

// numClasses reaches 2^35 elements, past every size a caller asks for.
const numClasses = 8 * 32

// Floats and Bytes are the process's two pools.
var (
	Floats = newPool[float64]()
	Bytes  = newPool[byte]()
)

// Pool holds slabs of T by size class. The zero Pool is not usable: the
// collector ages only the pools newPool made.
type Pool[T any] struct {
	classes [numClasses]class[T]
}

// class is one size class: the slabs put since the last collection, and
// those put before it, which the next collection drops.
type class[T any] struct {
	mu       sync.Mutex
	fresh    [][]T
	previous [][]T
}

// newPool returns an empty pool whose idle classes empty at the garbage
// collector.
func newPool[T any]() *Pool[T] {
	p := new(Pool[T])
	sweepMu.Lock()
	pools = append(pools, p)
	sweepMu.Unlock()
	return p
}

// Warm returns a slab of n elements with stale contents when n's class or
// one of the next doubling's holds one, and nil otherwise. It looks no
// further up, so one huge slab is not cut down to every small request.
func (p *Pool[T]) Warm(n int) []T {
	c, _ := Class(n)
	for k := c; k <= c+8 && k < numClasses; k++ {
		if s := p.classes[k].pop(); s != nil {
			return s[:n]
		}
	}
	return nil
}

// Take returns a slab of n elements with stale contents: Warm's, or a fresh
// one with its class's capacity, which Put files back under the same class.
func (p *Pool[T]) Take(n int) []T {
	if s := p.Warm(n); s != nil {
		return s
	}
	_, size := Class(n)
	return make([]T, n, size)
}

// Put gives s back, to the largest class whose size its capacity holds:
// every slab of a class holds any request of that class. The caller must not
// touch s afterwards.
func (p *Pool[T]) Put(s []T) {
	c, size := Class(cap(s))
	if size > cap(s) {
		c--
	}
	if c < 0 || c >= numClasses {
		return
	}
	k := &p.classes[c]
	k.mu.Lock()
	k.fresh = append(k.fresh, s[:0])
	k.mu.Unlock()
}

// pop takes the class's most recently put slab, nil when it holds none.
func (k *class[T]) pop() []T {
	k.mu.Lock()
	defer k.mu.Unlock()
	if s := popLast(&k.fresh); s != nil {
		return s
	}
	return popLast(&k.previous)
}

func popLast[T any](list *[][]T) []T {
	n := len(*list)
	if n == 0 {
		return nil
	}
	s := (*list)[n-1]
	(*list)[n-1] = nil
	*list = (*list)[:n-1]
	return s
}

// Shelf keeps built values that are costly to make, such as a rank's
// systolic arrays, by the key they were built for: a value put back is what
// the next take of its key finds, on any goroutine, and a value nobody took
// since the collection before last is dropped, as an idle class of a pool
// is. Each value goes to one taker at a time. A shelf holds at most limit
// values: a put past it drops the value put longest ago, so a stream of
// keys that never repeat holds limit values, not every value it built
// since the last collection (which, counted live, would raise the heap's
// goal and with it what the next collection lets the shelf hold).
type Shelf[K comparable, V any] struct {
	mu    sync.Mutex
	limit int
	drop  func(V)
	idle  []shelved[K, V] // in put order
}

// shelved is a value on a shelf; aged says it sat through a collection.
type shelved[K comparable, V any] struct {
	k    K
	v    V
	aged bool
}

// NewShelf returns an empty shelf of at most limit values, whose idle values
// go at the garbage collector. drop, when non-nil, is given each value a put
// past the limit pushes off, once no take can find it, to recover what it
// holds (a value the collector ages out is left to it). A shelf is
// registered for life: make one per process.
func NewShelf[K comparable, V any](limit int, drop func(V)) *Shelf[K, V] {
	s := &Shelf[K, V]{limit: limit, drop: drop}
	sweepMu.Lock()
	pools = append(pools, s)
	sweepMu.Unlock()
	return s
}

// Take returns the value most recently put under k, and false when the
// shelf holds none.
func (s *Shelf[K, V]) Take(k K) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.idle) - 1; i >= 0; i-- {
		if s.idle[i].k == k {
			v := s.idle[i].v
			s.idle = slices.Delete(s.idle, i, i+1)
			return v, true
		}
	}
	var zero V
	return zero, false
}

// Put shelves v under k, dropping the value put longest ago if the shelf
// is full. The caller must not touch v afterwards.
func (s *Shelf[K, V]) Put(k K, v V) {
	s.mu.Lock()
	s.idle = append(s.idle, shelved[K, V]{k: k, v: v})
	full := len(s.idle) > s.limit
	out := s.idle[0].v
	if full {
		s.idle = slices.Delete(s.idle, 0, 1)
	}
	s.mu.Unlock()
	if full && s.drop != nil {
		s.drop(out)
	}
}

// age drops the values put before the last collection and marks the rest
// as having sat through this one.
func (s *Shelf[K, V]) age() {
	s.mu.Lock()
	s.idle = slices.DeleteFunc(s.idle, func(e shelved[K, V]) bool { return e.aged })
	for i := range s.idle {
		s.idle[i].aged = true
	}
	s.mu.Unlock()
}

// age drops the slabs that sat through a whole collection and marks the
// rest as having sat through this one.
func (p *Pool[T]) age() {
	for c := range p.classes {
		k := &p.classes[c]
		k.mu.Lock()
		if len(k.fresh) > 0 || len(k.previous) > 0 {
			k.previous, k.fresh = k.fresh, k.previous[:0]
			clear(k.fresh[:cap(k.fresh)])
		}
		k.mu.Unlock()
	}
}

var (
	sweepMu sync.Mutex
	pools   []interface{ age() }
)

// gcTick carries the finalizer that ages every pool after each collection:
// the tick is unreachable the moment it is armed, so the next collection
// queues its finalizer, which ages the pools and arms a new tick.
type gcTick struct{ _ *int } // a pointer keeps it out of the tiny allocator, whose objects may never be finalized

func arm() {
	runtime.SetFinalizer(&gcTick{}, func(*gcTick) {
		sweepMu.Lock()
		for _, p := range pools {
			p.age()
		}
		sweepMu.Unlock()
		arm()
	})
}

func init() { arm() }
