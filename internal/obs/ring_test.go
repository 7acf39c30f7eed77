package obs

import (
	"reflect"
	"sync"
	"testing"
)

// TestStripedRing pushes the integers 0..pushes-1, each to the stripe its
// own value selects, and checks what the ring under trace.Recorder and the
// flight recorder promises: the bound, which values survive an overflow and
// in what order, and an honest drop count.
func TestStripedRing(t *testing.T) {
	for _, tc := range []struct {
		name             string
		capacity, stripe int
		pushes           int
		wantCap          int
		want             []int // Snapshot(nil): stripe by stripe, oldest first
		wantDrops        int64
	}{
		{name: "under the bound", capacity: 8, stripe: 2, pushes: 5, wantCap: 8, want: []int{0, 2, 4, 1, 3}},
		{name: "exactly full", capacity: 4, stripe: 2, pushes: 4, wantCap: 4, want: []int{0, 2, 1, 3}},
		{name: "overflow keeps each stripe's newest", capacity: 4, stripe: 2, pushes: 9, wantCap: 4,
			want: []int{6, 8, 5, 7}, wantDrops: 5},
		{name: "capacity rounds up to the stripes", capacity: 5, stripe: 4, pushes: 16, wantCap: 8,
			want: []int{8, 12, 9, 13, 10, 14, 11, 15}, wantDrops: 8},
		{name: "never less than one per stripe", capacity: 0, stripe: 3, pushes: 7, wantCap: 3,
			want: []int{6, 4, 5}, wantDrops: 4},
		{name: "one stripe is a plain ring", capacity: 3, stripe: 1, pushes: 8, wantCap: 3,
			want: []int{5, 6, 7}, wantDrops: 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewStripedRing[int](tc.capacity, tc.stripe)
			for v := 0; v < tc.pushes; v++ {
				r.Push(uint(v), v)
			}
			if r.Cap() != tc.wantCap {
				t.Errorf("Cap() = %d, want %d", r.Cap(), tc.wantCap)
			}
			if got := r.Snapshot(nil); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Snapshot = %v, want %v", got, tc.want)
			}
			if r.Len() != len(tc.want) || r.Drops() != tc.wantDrops {
				t.Errorf("Len %d Drops %d, want %d and %d", r.Len(), r.Drops(), len(tc.want), tc.wantDrops)
			}
			even := func(v int) bool { return v%2 == 0 }
			var wantEven []int
			for _, v := range tc.want {
				if even(v) {
					wantEven = append(wantEven, v)
				}
			}
			if got := r.Snapshot(even); !reflect.DeepEqual(got, wantEven) {
				t.Errorf("filtered Snapshot = %v, want %v", got, wantEven)
			}
		})
	}
}

// Concurrent producers, some sharing a stripe: nothing is lost uncounted,
// and the ring never exceeds its bound.
func TestStripedRingConcurrentPush(t *testing.T) {
	const producers, each = 8, 2000
	r := NewStripedRing[int](256, 4)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Push(uint(p), p*each+i)
				if i%500 == 0 {
					r.Snapshot(nil) // readers interleave with writers
				}
			}
		}(p)
	}
	wg.Wait()
	if r.Len() != r.Cap() {
		t.Fatalf("Len() = %d after overfilling, want the bound %d", r.Len(), r.Cap())
	}
	if got := int64(r.Len()) + r.Drops(); got != producers*each {
		t.Fatalf("held %d + dropped %d = %d, pushed %d", r.Len(), r.Drops(), got, producers*each)
	}
	seen := map[int]bool{}
	for _, v := range r.Snapshot(nil) {
		if seen[v] {
			t.Fatalf("value %d held twice", v)
		}
		seen[v] = true
	}
}
