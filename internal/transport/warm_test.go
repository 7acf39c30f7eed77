package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// pattern fills b with message k of stream s: a byte sequence no other
// message of the test shares at any offset long enough to matter.
func pattern(b []byte, s, k int) {
	x := uint32(s*7919+k*104729) | 1
	for i := range b {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		b[i] = byte(x)
	}
}

// Frames move through warm storage both ways: a sender's frame goes back to
// frames once it is on the wire (or acknowledged), and a receiver's payload
// once it is released. On every substrate a mux runs over, two ranks stream
// messages of several size classes to each other on two jobs at once, each a
// distinct bit pattern; the sender scribbles over its own buffer the moment
// Isend returns, and the receiver holds a window of payloads unreleased
// while later ones arrive. Every payload must read bit for bit as sent when
// it arrives and still when it is released: a buffer recycled while a frame
// or a receiver still held it would carry another message's bytes.
func TestMuxRecycledBuffersCarryEveryPayload(t *testing.T) {
	const (
		msgs   = 120
		window = 4
		tag    = 3
	)
	sizes := []int{1, 13, 4096, 70000, 300001}
	for _, sub := range []struct {
		name string
		eps  func(t *testing.T) []Endpoint
	}{
		{"local", func(t *testing.T) []Endpoint { l := NewLocal(2); return []Endpoint{l.Endpoint(0), l.Endpoint(1)} }},
		{"tcp", func(t *testing.T) []Endpoint { return newTCPMesh(t, 2) }},
		{"tcp reconnect", func(t *testing.T) []Endpoint {
			return newTCPMeshCfg(t, 2, func(c *TCPConfig) { c.Reconnect = 5 * time.Second })
		}},
	} {
		t.Run(sub.name, func(t *testing.T) {
			eps := sub.eps(t)
			muxes := []*Mux{NewMux(eps[0]), NewMux(eps[1])}
			defer muxes[0].Close()
			defer muxes[1].Close()
			var wg sync.WaitGroup
			for job := uint32(1); job <= 2; job++ {
				jeps := make([]*JobEndpoint, 2)
				for r, m := range muxes {
					e, err := m.Open(job)
					if err != nil {
						t.Fatal(err)
					}
					defer e.Close()
					jeps[r] = e
				}
				for r, e := range jeps {
					stream := func(from int) int { return int(job)*10 + from }
					wg.Add(2)
					go func() { // send to the other rank
						defer wg.Done()
						buf := make([]byte, sizes[len(sizes)-1])
						for k := 0; k < msgs; k++ {
							b := buf[:sizes[k%len(sizes)]]
							pattern(b, stream(r), k)
							if k%2 == 0 {
								e.Isend(b, 1-r, tag)
							} else {
								e.IsendPrefixed(b[:len(b)/2], b[len(b)/2:], 1-r, tag)
							}
							pattern(b, -1, k) // the transport must have copied it
						}
					}()
					go func() { // receive from it
						defer wg.Done()
						var held []Request
						want := make([]byte, sizes[len(sizes)-1])
						check := func(req Request, k int, when string) bool {
							w := want[:sizes[k%len(sizes)]]
							pattern(w, stream(1-r), k)
							if got := req.Data(); string(got) != string(w) {
								t.Errorf("job %d rank %d: message %d of %d bytes reads %d other bytes %s", job, r, k, len(w), len(got), when)
								return false
							}
							return true
						}
						for k := 0; k < msgs; k++ {
							req := e.Irecv(1-r, tag)
							req.Wait()
							if req.Canceled() || !check(req, k, "on arrival") {
								return
							}
							held = append(held, req)
							if len(held) > window {
								if !check(held[0], k-window, fmt.Sprintf("after %d later arrivals", window)) {
									return
								}
								held[0].Release()
								held = held[1:]
							}
						}
						for i, req := range held {
							if !check(req, msgs-len(held)+i, "at the end") {
								return
							}
							req.Release()
						}
					}()
				}
			}
			wg.Wait()
		})
	}
}
