package slab

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// A class's capacity holds its request, by less than an eighth, and Put
// files a slab under a class every request of which it holds.
func TestClassSizes(t *testing.T) {
	for n := 0; n < 1<<16; n++ {
		c, size := Class(n)
		if size < n || size > max(8, n+n/8) {
			t.Fatalf("n=%d: class %d of size %d", n, c, size)
		}
		if c2, size2 := Class(size); c2 != c || size2 != size {
			t.Fatalf("n=%d: its class's size %d is in class %d of size %d, not %d", n, size, c2, size2, c)
		}
	}
}

// A slab put back on one goroutine is what the next take of its class finds
// on another, whichever P either runs on; a take one doubling below finds it
// too, a take two doublings below does not.
func TestPutIsVisibleToEveryTaker(t *testing.T) {
	p := newPool[float64]()
	for round := 0; round < 100; round++ {
		s := p.Take(1000)
		s[0] = float64(round)
		done := make(chan []float64)
		go func() { p.Put(s); done <- nil }()
		<-done
		got := make(chan []float64)
		go func() { got <- p.Warm(1000) }()
		w := <-got
		if w == nil || &w[0] != &s[0] || len(w) != 1000 {
			t.Fatalf("round %d: the slab put back on another goroutine was not taken", round)
		}
		p.Put(w)
		if w := p.Warm(500); w == nil || &w[0] != &s[0] || len(w) != 500 {
			t.Fatalf("round %d: a take of half the size missed the slab", round)
		} else {
			p.Put(w)
		}
		if w := p.Warm(200); w != nil {
			t.Fatalf("round %d: a take two doublings down took the slab", round)
		}
		p.Warm(1000)
	}
}

// Takers and putters on many goroutines never share a slab.
func TestConcurrentTakersNeverShare(t *testing.T) {
	p := newPool[byte]()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(mark byte) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s := p.Take(100 + i%50)
				for k := range s {
					s[k] = mark
				}
				for k := range s {
					if s[k] != mark {
						t.Errorf("goroutine %d: slab written by another taker", mark)
						return
					}
				}
				p.Put(s)
			}
		}(byte(g + 1))
	}
	wg.Wait()
}

// An idle class empties at the collector: a slab nobody took through two
// collections is dropped.
func TestIdleClassEmptiesAtCollection(t *testing.T) {
	p := newPool[float64]()
	p.Put(p.Take(4096))
	held := func() int {
		c, _ := Class(4096)
		k := &p.classes[c]
		k.mu.Lock()
		defer k.mu.Unlock()
		return len(k.fresh) + len(k.previous)
	}
	if held() != 1 {
		t.Fatal("the slab put back is not held")
	}
	// The pools age on a finalizer, which runs on its own goroutine after
	// the collection that queued it.
	for deadline := time.Now().Add(10 * time.Second); held() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("an idle class still holds its slab after many collections")
		}
		runtime.GC()
	}
}

// A shelved value is what the next take of its key finds, on any goroutine,
// and only that key's; one value goes to one taker; and a value nobody took
// through two collections is dropped.
func TestShelfKeepsByKeyUntilIdle(t *testing.T) {
	s := NewShelf[int, *int](8, nil)
	a, b := new(int), new(int)
	done := make(chan struct{})
	go func() { s.Put(1, a); s.Put(2, b); close(done) }()
	<-done
	if v, ok := s.Take(3); ok {
		t.Fatalf("a take of an unshelved key found %p", v)
	}
	if v, ok := s.Take(1); !ok || v != a {
		t.Fatalf("a take of key 1 found %p, want %p", v, a)
	}
	if v, ok := s.Take(1); ok {
		t.Fatalf("the value of key 1 went to a second taker: %p", v)
	}
	s.Put(1, a)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		held := len(s.idle)
		s.mu.Unlock()
		if held == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("an idle shelf still holds its values after many collections")
		}
		runtime.GC()
	}
}

// A shelf holds at most its limit: a put past it pushes off the value put
// longest ago, whatever its key, and hands it to drop; the rest stay
// takeable.
func TestShelfDropsPastItsLimit(t *testing.T) {
	var dropped []int
	s := NewShelf[int, int](3, func(v int) { dropped = append(dropped, v) })
	s.Put(1, 10)
	s.Put(2, 20)
	s.Put(1, 11)
	if len(dropped) != 0 {
		t.Fatalf("a shelf within its limit dropped %v", dropped)
	}
	s.Put(3, 30) // pushes off 10, the oldest
	s.Put(4, 40) // pushes off 20
	if len(dropped) != 2 || dropped[0] != 10 || dropped[1] != 20 {
		t.Fatalf("puts past the limit dropped %v, want [10 20]", dropped)
	}
	if v, ok := s.Take(2); ok {
		t.Fatalf("a dropped value was taken: %d", v)
	}
	for _, want := range [][2]int{{1, 11}, {3, 30}, {4, 40}} {
		if v, ok := s.Take(want[0]); !ok || v != want[1] {
			t.Fatalf("a take of key %d found %d, %v; want %d", want[0], v, ok, want[1])
		}
	}
	if _, ok := s.Take(1); ok {
		t.Fatal("key 1 held a second value after a put past the limit")
	}
}
