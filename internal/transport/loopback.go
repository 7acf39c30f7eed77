package transport

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// ListenLoopback binds n listeners on ephemeral loopback ports and returns
// them with their addresses in rank order — a peer list of which no other
// process can take a port for as long as its listener stays open. Hand each
// to its rank as TCPConfig.Listener; a launcher that must release one for a
// child process to re-bind keeps that window to the ranks it does not run.
func ListenLoopback(n int) ([]net.Listener, []string, error) {
	lns, peers := make([]net.Listener, n), make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, nil, fmt.Errorf("transport: reserve loopback port: %w", err)
		}
		lns[i], peers[i] = ln, ln.Addr().String()
	}
	return lns, peers, nil
}

// DialLoopback stands up an n-rank TCP mesh inside this process: real
// sockets, real frames, no port races (every rank dials in on a listener
// bound before any address was published). mod, when non-nil, adjusts each
// rank's configuration before it dials. All n endpoints come back or none
// does: if any rank fails, the ones that came up are closed.
func DialLoopback(n int, mod func(*TCPConfig)) ([]Endpoint, error) {
	lns, peers, err := ListenLoopback(n)
	if err != nil {
		return nil, err
	}
	eps, errs := make([]Endpoint, n), make([]error, n)
	var wg sync.WaitGroup
	for i := range eps {
		cfg := TCPConfig{Rank: i, Peers: peers, Listener: lns[i], RendezvousTimeout: 10 * time.Second}
		if mod != nil {
			mod(&cfg)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			eps[i], errs[i] = DialTCP(cfg)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			for j, ep := range eps {
				if ep != nil {
					ep.Close()
				}
				lns[j].Close() // again, unless its rank was refused before it took it
			}
			return nil, fmt.Errorf("transport: loopback rank %d: %w", i, err)
		}
	}
	return eps, nil
}
