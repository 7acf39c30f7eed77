package main

import (
	"fmt"
	"math/rand"

	"pulsarqr/internal/batch"
	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/service"
	"pulsarqr/internal/session"
)

// batchEnv is batch_small: one Client.Batch of sz.batchCount random small
// matrices over /v1/batch, every R received, the trailer checked.
type batchEnv struct {
	tr   *tracer
	s    *server
	mats []*matrix.Mat

	sampleIdx [3]int         // result indices checked against batch.Factor
	sampled   [3]*matrix.Mat // their R from the last op
	received  int
	trailer   batch.Trailer
}

func newBatchEnv(r rig) (env, error) {
	rng := rand.New(rand.NewSource(r.seed))
	e := &batchEnv{tr: r.tr, mats: randSquares(rng, r.sz.batchCount, r.sz.batchN)}
	for k := range e.sampleIdx {
		e.sampleIdx[k] = rng.Intn(len(e.mats))
	}
	s, err := bootServer(threads, false, r.tr)
	if err != nil {
		return nil, err
	}
	e.s = s
	return e, nil
}

func (e *batchEnv) op(i int) error {
	sp := e.tr.spans()
	if e.s.meter != nil {
		e.s.meter.calls = e.s.meter.calls[:0]
	}
	op := sp.begin("op", -1, i)
	defer sp.end(op)
	e.received = 0
	e.sampled = [3]*matrix.Mat{}
	tr, err := e.s.cli.Batch(e.mats, func(res batch.Result) error {
		e.received++
		for k, idx := range e.sampleIdx {
			if res.Index == idx {
				e.sampled[k] = res.R
			}
		}
		return nil
	})
	e.trailer = tr
	return err
}

// verify: the client has already checked the trailer's checksum against the
// bytes it received; here the accounting and three sampled R factors.
func (e *batchEnv) verify(i int) error {
	n := len(e.mats)
	if e.trailer.Done != n || e.trailer.Shed != 0 || e.received != n {
		return fmt.Errorf("batch accounting: done=%d shed=%d received=%d, want %d/0/%d",
			e.trailer.Done, e.trailer.Shed, e.received, n, n)
	}
	for k, idx := range e.sampleIdx {
		want := e.mats[idx].Clone()
		if err := batch.Factor(want); err != nil {
			return err
		}
		if e.sampled[k] == nil {
			return fmt.Errorf("result %d never arrived", idx)
		}
		if d := matrix.MaxAbsDiff(e.sampled[k], want); d != 0 {
			return fmt.Errorf("R of matrix %d differs from local batch.Factor by %g", idx, d)
		}
	}
	return nil
}

func (e *batchEnv) oracle() error {
	if err := e.op(0); err != nil {
		return err
	}
	return e.verify(0)
}

func (e *batchEnv) collect(i int) error {
	c := e.s.meter.calls[0]
	e.tr.sample("batch.req_bytes", float64(c.reqBytes.Load()))
	e.tr.sample("batch.resp_bytes", float64(c.respBytes.Load()))
	return nil
}

func (e *batchEnv) close() { e.s.close() }

// sessionEnv is session_append: open a memory-only session, stream
// sz.sessBlocks square blocks through one SessionAppend with an updated R
// back per block, close the session.
type sessionEnv struct {
	tr     *tracer
	s      *server
	n      int
	blocks []*matrix.Mat
	ref    *matrix.Mat // R of a local Streamer replay, set by oracle

	updates int
	lastR   *matrix.Mat
	trailer session.Trailer
}

func newSessionEnv(r rig) (env, error) {
	rng := rand.New(rand.NewSource(r.seed))
	e := &sessionEnv{tr: r.tr, n: r.sz.sessN, blocks: randSquares(rng, r.sz.sessBlocks, r.sz.sessN)}
	s, err := bootServer(threads, false, r.tr)
	if err != nil {
		return nil, err
	}
	e.s = s
	return e, nil
}

func (e *sessionEnv) op(i int) error {
	sp := e.tr.spans()
	op := sp.begin("op", -1, i)
	defer sp.end(op)
	cli := e.s.cli
	info, err := cli.OpenSession(service.SessionSpec{N: e.n})
	if err != nil {
		return fmt.Errorf("open session: %w", err)
	}
	e.updates, e.lastR = 0, nil
	tr, err := cli.SessionAppend(info.ID, e.n, e.blocks, nil, func(u session.Update) error {
		e.updates++
		e.lastR = u.R
		return nil
	})
	e.trailer = tr
	if err != nil {
		cli.CloseSession(info.ID) // best effort; the append error is the one to report
		return fmt.Errorf("append: %w", err)
	}
	if err := cli.CloseSession(info.ID); err != nil {
		return fmt.Errorf("close session: %w", err)
	}
	return nil
}

func (e *sessionEnv) verify(i int) error {
	n := len(e.blocks)
	if e.trailer.Done != n || e.trailer.Shed != 0 || e.updates != n {
		return fmt.Errorf("append accounting: done=%d shed=%d updates=%d, want %d/0/%d",
			e.trailer.Done, e.trailer.Shed, e.updates, n, n)
	}
	if e.lastR == nil {
		return fmt.Errorf("no R on the last update")
	}
	if d := matrix.MaxAbsDiff(e.lastR, e.ref); d != 0 {
		return fmt.Errorf("final R differs from the local Streamer replay by %g (want bitwise equality)", d)
	}
	return nil
}

// oracle folds the same blocks through a local sequential Streamer — bitwise
// what the server computes, pipelined or not — and checks one op against it.
func (e *sessionEnv) oracle() error {
	str, err := qr.NewStreamer(e.n, 0, qr.Options{})
	if err != nil {
		return err
	}
	ws := kernels.NewWorkspace()
	for _, b := range e.blocks {
		nd, err := str.LeafReduce(ws, b.Clone(), nil) // LeafReduce consumes its block
		if err != nil {
			return err
		}
		str.Commit(ws, nd)
	}
	e.ref = str.Current(ws, nil).R
	if err := e.op(0); err != nil {
		return err
	}
	return e.verify(0)
}

func (e *sessionEnv) collect(i int) error { return nil }

func (e *sessionEnv) close() { e.s.close() }
