package main

import (
	"fmt"
	"log"
	"math/rand"

	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/service"
)

// sessionWorkload builds the deterministic append stream the seed and
// verify smoke actions share, so a restarted server can be checked bitwise
// against a local replay.
func sessionWorkload(count, n, blockRows int) []*matrix.Mat {
	rng := rand.New(rand.NewSource(4242))
	blocks := make([]*matrix.Mat, count)
	for i := range blocks {
		blocks[i] = matrix.NewRand(blockRows, n, rng)
	}
	return blocks
}

// replayR folds the first count blocks of the deterministic workload through
// a local sequential Streamer — bitwise what any server computes for the
// same prefix, pipelined or not.
func replayR(count, n, blockRows int) *matrix.Mat {
	blocks := sessionWorkload(count, n, blockRows)
	str, err := qr.NewStreamer(n, 0, qr.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ws := kernels.NewWorkspace()
	for _, b := range blocks {
		nd, err := str.LeafReduce(ws, b, nil)
		if err != nil {
			log.Fatal(err)
		}
		str.Commit(ws, nd)
	}
	return str.Current(ws, nil).R
}

// sessionSeed is the smoke script's first half: open a session on a running
// qrserve and stream the first count workload blocks into it. The printed id
// is the handle the verify action (and the kill -9 between them) pivots on.
func sessionSeed(base string, count, n, blockRows int) {
	cli := &service.Client{Base: base}
	info, err := cli.OpenSession(service.SessionSpec{Tenant: "smoke", N: n, CheckpointEvery: 1})
	if err != nil {
		log.Fatalf("open session against %s: %v", base, err)
	}
	blocks := sessionWorkload(count, n, blockRows)
	tr, err := cli.SessionAppend(info.ID, n, blocks, nil, nil)
	if err != nil {
		log.Fatalf("append: %v", err)
	}
	if tr.Done != count || tr.Shed != 0 {
		log.Fatalf("append accounting: done=%d shed=%d, want %d/0", tr.Done, tr.Shed, count)
	}
	fmt.Printf("session-id %s\n", info.ID)
	fmt.Printf("session seeded: %d appends, %d rows\n", count, count*blockRows)
}

// sessionVerify is the smoke script's second half: after a restart, the
// session must still exist, report the seeded row count, and serve an R
// bitwise equal to a local sequential replay of the same blocks.
func sessionVerify(base, id string, count, n, blockRows int) {
	cli := &service.Client{Base: base}
	info, err := cli.SessionInfo(id)
	if err != nil {
		log.Fatalf("session %s after restart: %v", id, err)
	}
	if info.Blocks != int64(count) || info.Rows != int64(count*blockRows) {
		log.Fatalf("restored session reports %d blocks / %d rows, want %d / %d",
			info.Blocks, info.Rows, count, count*blockRows)
	}
	got, err := cli.SessionR(id, n)
	if err != nil {
		log.Fatalf("fetch restored R: %v", err)
	}
	want := replayR(count, n, blockRows)
	if d := matrix.MaxAbsDiff(got.R, want); d != 0 {
		log.Fatalf("restored R differs from local replay by %g (want bitwise equality)", d)
	}
	fmt.Printf("session verify ok: %d appends restored, R bitwise equal\n", count)
}
