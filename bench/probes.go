package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"time"

	"pulsarqr/internal/batch"
	"pulsarqr/internal/blas"
	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/obs"
	"pulsarqr/internal/plan"
	"pulsarqr/internal/pulsar"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/session"
	"pulsarqr/internal/simulate"
	"pulsarqr/internal/transport"
	"pulsarqr/internal/tuple"
)

// The probes are direct timed calls into single layers, run in every traced
// run whatever the workload: they say what a layer costs alone, so a change
// in an end-to-end metric can be held against the layer that moved.

// timed calls prep (untimed, may be nil) then fn (timed) until the tracer's
// probe budget is spent — at least three times whatever their length — and
// returns the median seconds per fn call.
func (t *tracer) timed(prep, fn func()) float64 {
	var samples []float64
	for start := time.Now(); len(samples) < 3 || time.Since(start) < t.probeBudget; {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		fn()
		samples = append(samples, time.Since(t0).Seconds())
	}
	return median(samples)
}

// probeAll runs every probe and records its result in t.
func probeAll(t *tracer, r rig, outDir string) error {
	probeBLAS(t)
	probeKernels(t)
	if err := probePulsar(t); err != nil {
		return err
	}
	if err := probeTransport(t); err != nil {
		return err
	}
	if err := probePlan(t, r.sz); err != nil {
		return err
	}
	probeObs(t)
	if err := probeBatch(t, r); err != nil {
		return err
	}
	return probeSession(t, r, outDir)
}

func probeBLAS(t *tracer) {
	rng := rand.New(rand.NewSource(1))
	const n = 256
	a, b, c := matrix.NewRand(n, n, rng), matrix.NewRand(n, n, rng), matrix.New(n, n)
	s := t.timed(nil, func() {
		blas.Dgemm(false, false, n, n, n, 1, a.Data, a.LD, b.Data, b.LD, 0, c.Data, c.LD)
	})
	t.sample("blas.dgemm_gflops", 2*float64(n)*float64(n)*float64(n)/s/1e9)

	// One tile-row-sized triangular multiply, the shape the kernels'
	// T-factor applications make: a 64×64 triangle from the left on 64×256.
	const m, w = 64, 256
	tri := matrix.NewRand(m, m, rng).UpperTriangle()
	src, dst := matrix.NewRand(m, w, rng), matrix.New(m, w)
	s = t.timed(func() { dst.CopyFrom(src) }, func() {
		blas.Dtrmm(true, true, false, false, m, w, 1, tri.Data, tri.LD, dst.Data, dst.LD)
	})
	t.sample("blas.dtrmm_gflops", float64(m)*float64(m)*float64(w)/s/1e9)
}

// probeKernels times the six tile kernels at the tile shape the workloads
// run (nb=64, ib=16) on a warm workspace.
func probeKernels(t *tracer) {
	const nb, ib = 64, 16
	rng := rand.New(rand.NewSource(1))
	ws := kernels.NewWorkspace()
	full := matrix.NewRand(nb, nb, rng)
	upper := matrix.NewRand(nb, nb, rng).UpperTriangle()
	tf := matrix.New(ib, nb)
	rate := func(name string, flops float64, prep, fn func()) {
		fn() // grow the workspace
		t.sample(name, flops/t.timed(prep, fn)/1e9)
	}

	a := full.Clone()
	rate("kernels.dgeqrt_gflops", kernels.FlopsGeqrt(nb, nb),
		func() { a.CopyFrom(full) },
		func() { kernels.DgeqrtWS(ws, ib, a, tf) })

	r, a2 := upper.Clone(), full.Clone()
	rate("kernels.dtsqrt_gflops", kernels.FlopsTsqrt(nb, nb),
		func() { r.CopyFrom(upper); a2.CopyFrom(full) },
		func() { kernels.DtsqrtWS(ws, ib, r, a2, tf) })

	lower := full.UpperTriangle()
	rate("kernels.dttqrt_gflops", kernels.FlopsTtqrt(nb),
		func() { r.CopyFrom(upper); a2.CopyFrom(lower) },
		func() { kernels.DttqrtWS(ws, ib, r, a2, tf) })

	// The apply kernels run against reflectors left by the factor kernels;
	// they are orthogonal transformations, so repeated application keeps
	// the target tiles bounded and no refill is needed.
	c1, c2 := matrix.NewRand(nb, nb, rng), matrix.NewRand(nb, nb, rng)
	v := full.Clone()
	kernels.DgeqrtWS(ws, ib, v, tf)
	rate("kernels.dormqr_gflops", kernels.FlopsOrmqr(nb, nb, nb), nil,
		func() { kernels.DormqrWS(ws, true, ib, v, tf, c1) })

	r.CopyFrom(upper)
	v2, t2 := full.Clone(), matrix.New(ib, nb)
	kernels.DtsqrtWS(ws, ib, r, v2, t2)
	rate("kernels.dtsmqr_gflops", kernels.FlopsTsmqr(nb, nb, nb), nil,
		func() { kernels.DtsmqrWS(ws, true, ib, v2, t2, c1, c2) })

	r.CopyFrom(upper)
	v3, t3 := lower.Clone(), matrix.New(ib, nb)
	kernels.DttqrtWS(ws, ib, r, v3, t3)
	rate("kernels.dttmqr_gflops", kernels.FlopsTtmqr(nb, nb), nil,
		func() { kernels.DttmqrWS(ws, true, ib, v3, t3, c1, c2) })
}

// probePulsar times the runtime with nothing to compute: a chain of 64
// VDPs passing 32 packets through empty bodies (the shape of the root
// package's BenchmarkRuntimeFiringOverhead), and an empty Pool.Exec round
// trip.
func probePulsar(t *tracer) error {
	const chainLen, packets = 64, 32
	var s *pulsar.VSA
	var runErr error
	sec := t.timed(func() {
		s = pulsar.New(pulsar.Config{Nodes: 1, ThreadsPerNode: threads})
		for c := 0; c < chainLen; c++ {
			s.NewVDP(tuple.New(c), packets, func(v *pulsar.VDP) { v.Push(0, v.Pop(0)) }, "", 1, 1)
		}
		for c := 0; c+1 < chainLen; c++ {
			s.Connect(tuple.New(c), 0, tuple.New(c+1), 0, 8, false)
		}
		s.Input(tuple.New(0), 0, 8)
		s.Output(tuple.New(chainLen-1), 0, 8)
		for p := 0; p < packets; p++ {
			s.Inject(tuple.New(0), 0, pulsar.NewPacket([]int{p}))
		}
	}, func() {
		if err := s.Run(); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		return fmt.Errorf("firing-overhead chain: %w", runErr)
	}
	t.sample("pulsar.vdp_fire_us", sec/(chainLen*packets)*1e6)

	pool := pulsar.NewPool(threads, nil)
	defer pool.Close()
	const trips = 256
	done := make(chan struct{})
	sec = t.timed(nil, func() {
		for i := 0; i < trips; i++ {
			pool.Exec(func(any) { done <- struct{}{} })
			<-done
		}
	})
	t.sample("pulsar.exec_task_us", sec/trips*1e6)
	return nil
}

// dialMesh joins ranks endpoints into a loopback TCP mesh on pre-bound
// listeners, all in this process.
func dialMesh(ranks int) ([]transport.Endpoint, error) {
	lns := make([]net.Listener, ranks)
	addrs := make([]string, ranks)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	type dialed struct {
		rank int
		ep   transport.Endpoint
		err  error
	}
	ch := make(chan dialed, ranks) // one send per rank
	for i := 0; i < ranks; i++ {
		go func(i int) {
			ep, err := transport.DialTCP(transport.TCPConfig{
				Rank: i, Peers: addrs, Listener: lns[i], RendezvousTimeout: 10 * time.Second})
			ch <- dialed{i, ep, err}
		}(i)
	}
	eps := make([]transport.Endpoint, ranks)
	var firstErr error
	for i := 0; i < ranks; i++ {
		d := <-ch
		if d.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("dial rank %d: %w", d.rank, d.err)
		}
		eps[d.rank] = d.ep
	}
	if firstErr != nil {
		closeAll(eps)
		return nil, firstErr
	}
	return eps, nil
}

func closeAll(eps []transport.Endpoint) {
	for _, ep := range eps {
		if ep != nil {
			ep.Close()
		}
	}
}

// Tags of the two-endpoint probes.
const (
	tagPing = 1
	tagPong = 2
	tagData = 3
	tagAck  = 4
)

// pairProbe measures one pair of connected endpoints: 8-byte ping-pong
// latency and one-way streaming throughput of tile-sized (32 KiB) messages.
// Rank 1's side runs on a goroutine that ends when it is told to.
func pairProbe(t *tracer, a, b transport.Endpoint) (pingpongUS, streamMBs float64) {
	const (
		trips    = 200
		tile     = 32 << 10
		messages = 256
	)
	stop := make(chan struct{})
	go func() { // rank 1: echo pings, acknowledge streams, stop on an empty ping
		defer close(stop)
		for {
			req := b.Irecv(0, transport.Any)
			req.Wait()
			if req.Canceled() {
				return
			}
			switch req.Tag() {
			case tagPing:
				if req.GetCount() == 0 {
					return
				}
				b.Isend(req.Data(), 0, tagPong)
			case tagData:
				for i := 1; i < messages; i++ {
					r := b.Irecv(0, tagData)
					r.Wait()
					if r.Canceled() {
						return
					}
				}
				b.Isend([]byte{1}, 0, tagAck)
			}
		}
	}()
	ping := make([]byte, 8)
	sec := t.timed(nil, func() {
		for i := 0; i < trips; i++ {
			a.Isend(ping, 1, tagPing)
			a.Irecv(1, tagPong).Wait()
		}
	})
	pingpongUS = sec / trips * 1e6
	payload := make([]byte, tile)
	sec = t.timed(nil, func() {
		for i := 0; i < messages; i++ {
			a.Isend(payload, 1, tagData)
		}
		a.Irecv(1, tagAck).Wait()
	})
	streamMBs = float64(messages*tile) / sec / 1e6
	a.Isend(nil, 1, tagPing)
	<-stop
	return pingpongUS, streamMBs
}

// probeTransport measures the three substrates a job's packets can cross:
// the in-process Local communicator, a TCP mesh, and a Mux job session over
// that mesh; plus the TCP barrier and the cost of opening a job session.
func probeTransport(t *tracer) error {
	local := transport.NewLocal(2)
	us, _ := pairProbe(t, local.Endpoint(0), local.Endpoint(1))
	t.sample("transport.local_pingpong_us", us)

	eps, err := dialMesh(2)
	if err != nil {
		return err
	}
	defer closeAll(eps)
	us, mbs := pairProbe(t, eps[0], eps[1])
	t.sample("transport.tcp_pingpong_us", us)
	t.sample("transport.tcp_stream_mb_s", mbs)

	const barriers = 100
	var barrierErr error
	sec := t.timed(nil, func() {
		peer := make(chan error, 1)
		go func() {
			var err error
			for i := 0; i < barriers && err == nil; i++ {
				err = eps[1].Barrier()
			}
			peer <- err
		}()
		for i := 0; i < barriers; i++ {
			if err := eps[0].Barrier(); err != nil {
				barrierErr = err
				break
			}
		}
		if err := <-peer; err != nil {
			barrierErr = err
		}
	})
	if barrierErr != nil {
		return fmt.Errorf("tcp barrier: %w", barrierErr)
	}
	t.sample("transport.tcp_barrier_us", sec/barriers*1e6)

	// From here the muxes own the endpoints' receive side.
	m0, m1 := transport.NewMux(eps[0]), transport.NewMux(eps[1])
	defer m0.Close()
	defer m1.Close()
	j0, err := m0.Open(1)
	if err != nil {
		return err
	}
	j1, err := m1.Open(1)
	if err != nil {
		return err
	}
	us, mbs = pairProbe(t, j0, j1)
	j0.Close()
	j1.Close()
	t.sample("transport.mux_pingpong_us", us)
	t.sample("transport.mux_stream_mb_s", mbs)

	const opens = 64
	next := uint32(2)
	var openErr error
	sec = t.timed(nil, func() {
		for i := 0; i < opens; i++ {
			j, err := m0.Open(next)
			next++
			if err != nil {
				openErr = err
				return
			}
			j.Close()
		}
	})
	if openErr != nil {
		return fmt.Errorf("mux open: %w", openErr)
	}
	t.sample("transport.mux_open_us", sec/opens*1e6)
	return nil
}

// probePlan times the planner on the job_fleet shape against the machine the
// server would model for this fleet (2 ranks × 1 worker + proxy), computed
// and then served from the plan cache.
func probePlan(t *tracer, sz sizes) error {
	spec := plan.Spec{M: sz.fleetM, N: sz.fleetN}
	mach := simulate.LocalHost(2, threads/2+1)
	t0 := time.Now()
	if _, err := plan.Decide(spec, mach, plan.Config{}); err != nil {
		return err
	}
	t.sample("plan.decide_ms", time.Since(t0).Seconds()*1e3)

	p := plan.NewPlanner(plan.Config{}, plan.DefaultCacheCap)
	if _, err := p.Plan(spec, mach, 0); err != nil {
		return err
	}
	const hits = 1000
	sec := t.timed(nil, func() {
		for i := 0; i < hits; i++ {
			p.Plan(spec, mach, 0)
		}
	})
	t.sample("plan.cached_decide_us", sec/hits*1e6)
	return nil
}

// probeObs times Observer.Emit over the four events every job emits
// (queued, dispatched, running, done) on the nil observer and on one built
// like the servers' here.
func probeObs(t *tracer) {
	kinds := []obs.Kind{obs.EvQueued, obs.EvDispatched, obs.EvRunning, obs.EvDone}
	const emits = 4000
	emit := func(o *obs.Observer) func() {
		return func() {
			for i := 0; i < emits; i++ {
				o.Emit(obs.Event{Kind: kinds[i%len(kinds)], Class: "job", Job: uint32(i), DurMS: 1})
			}
		}
	}
	t.sample("obs.emit_disabled_ns", t.timed(nil, emit(nil))/emits*1e9)
	t.sample("obs.emit_enabled_ns", t.timed(nil, emit(newObserver()))/emits*1e9)
}

// probeBatch measures the batch path without the wire: the kernel on one
// matrix, the chunk scheduler on a warm pool over one request's matrices,
// and the request codec each way.
func probeBatch(t *tracer, r rig) error {
	rng := rand.New(rand.NewSource(r.seed))
	src := randSquares(rng, r.sz.batchCount, r.sz.batchN)
	work := randSquares(rng, len(src), r.sz.batchN) // overwritten by refill
	refill := func() {
		for i := range work {
			work[i].CopyFrom(src[i])
		}
	}

	ws := kernels.NewWorkspace()
	var factorErr error
	sec := t.timed(refill, func() {
		for _, m := range work {
			if err := batch.FactorWS(ws, m, 0); err != nil {
				factorErr = err
			}
		}
	})
	if factorErr != nil {
		return factorErr
	}
	t.sample("batch.factor_us", sec/float64(len(work))*1e6)

	pool := pulsar.NewPool(threads, func(int) any { return kernels.NewWorkspace() })
	defer pool.Close()
	sched := batch.NewScheduler(batch.SchedConfig{Pool: pool})
	var streamErr error
	stream := func() {
		idx := 0
		done, err := sched.Stream(context.Background(),
			func() (*matrix.Mat, error) {
				if idx == len(work) {
					return nil, io.EOF
				}
				idx++
				return work[idx-1], nil
			},
			func(int, *matrix.Mat) error { return nil })
		if err == nil && done != len(work) {
			err = fmt.Errorf("scheduler emitted %d of %d", done, len(work))
		}
		if err != nil {
			streamErr = err
		}
	}
	stream() // warm the pool's workspaces
	sec = t.timed(refill, stream)
	if streamErr != nil {
		return fmt.Errorf("scheduler stream: %w", streamErr)
	}
	t.sample("batch.sched_direct_ops_s", 1/sec)

	var wire bytes.Buffer
	var buf []byte
	sec = t.timed(nil, func() {
		wire.Reset()
		batch.WriteRequestHeader(&wire, len(src))
		for _, m := range src {
			buf = batch.AppendMatrix(buf[:0], m)
			wire.Write(buf)
		}
	})
	mb := float64(wire.Len()) / 1e6
	t.sample("batch.encode_mb_s", mb/sec)
	var decodeErr error
	sec = t.timed(nil, func() {
		rd, err := batch.NewRequestReader(bytes.NewReader(wire.Bytes()))
		for err == nil {
			_, err = rd.Next()
		}
		if err != io.EOF {
			decodeErr = err
		}
	})
	if decodeErr != nil {
		return fmt.Errorf("batch decode: %w", decodeErr)
	}
	t.sample("batch.decode_mb_s", mb/sec)
	return nil
}

// probeSession measures the session path without the wire: the Streamer on
// one stream's blocks, the append codec, and a durable checkpoint of the
// deepest spine that stream reaches, written to and read from a scratch
// directory under outDir (fsync included — it is what a durable session
// pays, and why durable sessions are kept out of the end-to-end numbers).
func probeSession(t *tracer, r rig, outDir string) error {
	rng := rand.New(rand.NewSource(r.seed))
	n := r.sz.sessN
	src := randSquares(rng, r.sz.sessBlocks, n)
	work := randSquares(rng, len(src), n) // overwritten by refill
	refill := func() {
		for i := range work {
			work[i].CopyFrom(src[i])
		}
	}
	ws := kernels.NewWorkspace()
	var str *qr.Streamer
	var engineErr error
	sec := t.timed(refill, func() {
		s, err := qr.NewStreamer(n, 0, qr.Options{})
		if err != nil {
			engineErr = err
			return
		}
		var cur *qr.StreamNode
		// All but the last block: 2^k − 1 blocks leave the deepest spine.
		for _, b := range work[:len(work)-1] {
			nd, err := s.LeafReduce(ws, b, nil)
			if err != nil {
				engineErr = err
				return
			}
			s.Commit(ws, nd)
			cur = s.Current(ws, cur)
		}
		str = s
	})
	if engineErr != nil {
		return fmt.Errorf("streamer: %w", engineErr)
	}
	t.sample("session.engine_append_us", sec/float64(len(work)-1)*1e6)

	var buf []byte
	total := 0
	sec = t.timed(nil, func() {
		total = 0
		for _, b := range src {
			buf = session.AppendBlock(buf[:0], b, nil)
			total += len(buf)
		}
	})
	t.sample("session.append_encode_mb_s", float64(total)/1e6/sec)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cp := &session.Checkpoint{ID: "bench", N: n, Opts: str.Opts(), Every: 1,
		Blocks: str.Blocks(), Rows: str.Rows(), Spine: str.Spine()}
	var size int64
	var ioErr error
	sec = t.timed(nil, func() {
		if size, err = session.WriteCheckpointFile(dir, cp); err != nil {
			ioErr = err
		}
	})
	if ioErr != nil {
		return fmt.Errorf("checkpoint write: %w", ioErr)
	}
	t.sample("session.checkpoint_write_ms", sec*1e3)
	t.sample("session.checkpoint_bytes", float64(size))
	sec = t.timed(nil, func() {
		if _, err := session.ReadCheckpointFile(session.CheckpointPath(dir, cp.ID)); err != nil {
			ioErr = err
		}
	})
	if ioErr != nil {
		return fmt.Errorf("checkpoint read: %w", ioErr)
	}
	t.sample("session.checkpoint_read_ms", sec*1e3)
	return nil
}
