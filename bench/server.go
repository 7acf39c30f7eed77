package main

import (
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"pulsarqr/internal/obs"
	"pulsarqr/internal/service"
	"pulsarqr/internal/transport"
)

// server is an in-process qrserve: a service.Server behind an http.Server
// on a loopback listener, optionally rank 0 of a 2-rank fleet whose rank 1
// is a service.Agent in this process, joined over a real TCP mesh.
type server struct {
	srv   *service.Server
	hs    *http.Server
	cli   *service.Client
	meter *meter // nil in the untraced run

	eps       []transport.Endpoint
	agent     *service.Agent
	agentDone chan error
	stopAgent context.CancelFunc
}

// newObserver builds the observability layer the way cmd/qrserve does by
// default — flight recorder of 1024 events, text handler at info level — with
// the log lines discarded, so the always-on cost is inside the numbers.
func newObserver() *obs.Observer {
	logger := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
	return obs.New(obs.Options{Logger: logger, FlightCap: 1024})
}

// bootServer starts a 1-rank server with poolThreads workers, or with fleet
// set a 2-rank fleet of poolThreads workers each.
func bootServer(poolThreads int, fleet bool, tr *tracer) (*server, error) {
	s := &server{}
	cfg := service.Config{Threads: poolThreads, Obs: newObserver()}
	if fleet {
		if err := s.dialFleet(poolThreads); err != nil {
			s.close()
			return nil, err
		}
		cfg.Ep = s.eps[0]
	}
	srv, err := service.NewServer(cfg)
	if err != nil {
		s.close()
		return nil, err
	}
	s.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.hs = &http.Server{Handler: srv.Handler()}
	go s.hs.Serve(ln) // returns http.ErrServerClosed from close
	// A transport of its own, so closing the server drops its idle
	// connections instead of leaving them in http.DefaultTransport.
	var rt http.RoundTripper = &http.Transport{}
	if tr != nil {
		s.meter = &meter{tr: tr, base: rt}
		rt = s.meter
	}
	s.cli = &service.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: rt}}
	return s, nil
}

// dialFleet joins a 2-rank loopback TCP mesh and starts the agent on rank 1.
func (s *server) dialFleet(agentThreads int) error {
	eps, err := dialMesh(2)
	if err != nil {
		return err
	}
	s.eps = eps
	agent, err := service.NewAgent(eps[1], agentThreads, nil)
	if err != nil {
		return err
	}
	s.agent = agent
	ctx, cancel := context.WithCancel(context.Background())
	s.stopAgent = cancel
	s.agentDone = make(chan error, 1)
	go func() { s.agentDone <- agent.Run(ctx) }()
	return nil
}

// close shuts everything down and waits for it: HTTP first, then the
// server (which tells the agent to exit), the agent, and the mesh.
func (s *server) close() {
	if s.hs != nil {
		s.hs.Close()
	}
	if s.cli != nil {
		s.cli.HTTP.CloseIdleConnections()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.agent != nil {
		select {
		case <-s.agentDone:
		case <-time.After(5 * time.Second):
			s.stopAgent()
			<-s.agentDone
		}
		s.stopAgent()
		s.agent.Close()
	}
	closeAll(s.eps)
}

// meter is the traced run's http.RoundTripper: it notes when each request
// of the current op left the client and counts body bytes both ways. It is
// installed through the Client.HTTP field, so the traced run still goes
// through service.Client's own encode and decode.
type meter struct {
	tr    *tracer
	base  http.RoundTripper
	calls []*call // requests of the current op, reset by the workload
}

type call struct {
	start               float64 // recorder time the request left the client
	reqBytes, respBytes atomic.Int64
}

func (m *meter) RoundTrip(req *http.Request) (*http.Response, error) {
	if !m.tr.active() {
		return m.base.RoundTrip(req)
	}
	c := &call{start: m.tr.rec.now()}
	m.calls = append(m.calls, c)
	if req.Body != nil {
		r2 := *req // a RoundTripper may not modify the caller's request
		r2.Body = &countingBody{ReadCloser: req.Body, n: &c.reqBytes}
		req = &r2
	}
	resp, err := m.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.respBytes}
	return resp, nil
}

func (m *meter) CloseIdleConnections() {
	if c, ok := m.base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// countingBody counts the bytes read through it. A request body is read on
// the transport's write goroutine, hence the atomic.
type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
