// Package slab is the process's warm storage: slices a finished user gives
// back, kept in size classes for the next user of a similar size. There are
// two pools, one per element type, and every warm user in the process takes
// from and puts to them, so a class one subsystem leaves idle can serve
// another:
//
//	pool    storage                     taken in                   given back in
//	Floats  a rank's tiles and scratch  service ownedInputs        runJob (server or agent), after success
//	Floats  an uploaded job matrix      service readJobFrame       runJob, after success
//	Floats  a fetched R                 service Client.Job         Client.Job, once JobView.R holds it
//	Floats  a session append block      session AppendReader.Next  Session.AppendFrom, after its leaf
//	Floats  a stream leaf's R and QᵀB   qr Streamer.LeafReduce     Streamer.Release, merged away or dropped
//	Bytes   a job frame's buffer        service writeJobFrame,     the same call
//	                                    readFloats
//	Bytes   a transport frame           transport Isend,           the writer once sent,
//	                                    ReadFrame                  Request.Release once decoded
//	Bytes   a packet's marshal buffer   pulsar VSA.route           the proxy, right after Isend
//
// A one-node library run (pulsarqr.Factor, the tile kernels) takes nothing
// from either pool: storage kept across library calls would only raise their
// footprint.
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
