package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"pulsarqr/internal/batch"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/service"
)

// batchServe drives one batch of count random dim×dim matrices against a
// live qrserve at base (the batch-smoke script's client — curl cannot speak
// the packed binary protocol). The client verifies the trailer checksum
// against every received byte, so success here certifies count and integrity
// both. The rate it prints is one run's, for the eye; the benchmark of this
// path is `go run ./bench -workload batch_small`.
func batchServe(base string, count, dim int) {
	cli := &service.Client{Base: base}
	rng := rand.New(rand.NewSource(42))
	mats := make([]*matrix.Mat, count)
	for i := range mats {
		mats[i] = matrix.NewRand(dim, dim, rng)
	}
	start := time.Now()
	recv := 0
	tr, err := cli.Batch(mats, func(batch.Result) error {
		recv++
		return nil
	})
	sec := time.Since(start).Seconds()
	if err != nil {
		log.Fatalf("batch against %s: %v", base, err)
	}
	if tr.Done != count || tr.Shed != 0 || recv != count {
		log.Fatalf("batch accounting: done=%d shed=%d recv=%d want %d/0/%d", tr.Done, tr.Shed, recv, count, count)
	}
	fmt.Printf("  batch-api %8.3fs  %10.0f mat/s\n", sec, float64(count)/sec)
	fmt.Printf("batch ok: %d matrices, trailer checksum verified\n", count)
}
