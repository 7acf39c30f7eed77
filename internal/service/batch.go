package service

import (
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"pulsarqr/internal/batch"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/obs"
)

// batchSeq numbers batch streams for event correlation: a batch request has
// no job id, so its start/end events share a synthetic "b<N>" session tag.
var batchSeq atomic.Int64

// batchFlushEvery bounds how many result frames accumulate before an
// explicit flush of the result writer's slab and the HTTP response: frequent
// enough that a slow stream shows progress, rare enough that flush syscalls
// stay off the per-matrix path.
const batchFlushEvery = 64

// handleBatch serves POST /v1/batch: a length-prefixed stream of packed
// small matrices in, a stream of R factors out (request order, trailer
// last — see docs/BATCH.md). Admission is a separate class from the job
// queue (admitStream): at most cfg.BatchStreams streams factorize at once,
// and an arrival beyond that is shed immediately with 429 + Retry-After,
// buffering nothing. A stream cut short — client gone, shutdown, decode
// error — still ends with a trailer carrying partial-progress accounting,
// since the response headers are already out by then.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	ctx, end, ok := s.admitStream(w, r, &s.batchStreams)
	if !ok {
		return
	}
	defer end()

	rr, err := batch.NewRequestReader(r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{"bad batch request: " + err.Error()})
		return
	}

	s.metrics.BatchRequests.Add(1)
	bid := fmt.Sprintf("b%d", batchSeq.Add(1))
	bstart := time.Now()
	s.obs.Emit(obs.Event{Kind: obs.EvBatchStart, Class: "batch", Session: bid})

	// Results stream while the request body is still arriving, which on
	// HTTP/1.1 requires explicit opt-in — without it the server closes the
	// body at the first response write. HTTP/2 is full duplex already, so
	// the error is advisory.
	http.NewResponseController(w).EnableFullDuplex()

	w.Header().Set("Content-Type", "application/octet-stream")
	rw, err := batch.NewResultWriter(w)
	if err != nil {
		return // client already gone; the stream never started
	}
	flusher, _ := w.(http.Flusher)
	sinceFlush := 0
	done, serr := s.batchSched.Stream(ctx, rr.Next, func(index int, res *matrix.Mat) error {
		// The frame is in the writer's slab: the next Next may decode into res.
		if err := rw.WriteResult(index, res); err != nil {
			return err
		}
		rr.Recycle(res)
		if sinceFlush++; sinceFlush >= batchFlushEvery && flusher != nil {
			sinceFlush = 0
			if err := rw.Flush(); err != nil {
				return err
			}
			flusher.Flush()
		}
		return nil
	})

	// Whatever ended the stream, the trailer reconciles it: shed is every
	// matrix the request declared that no result frame answered. Writes may
	// fail if the client is gone — nothing left to do about it.
	shed := rr.Count() - done
	if shed < 0 {
		shed = 0
	}
	s.metrics.BatchShed.Add(int64(shed))
	rw.WriteTrailer(shed)
	if flusher != nil {
		flusher.Flush()
	}
	s.metrics.ObserveStreamSpan("batch", time.Since(bstart))
	endDetail := fmt.Sprintf("%d/%d matrices", done, rr.Count())
	if serr != nil {
		endDetail += ": " + serr.Error()
	}
	s.obs.Emit(obs.Event{Kind: obs.EvBatchEnd, Class: "batch", Session: bid,
		DurMS: float64(time.Since(bstart)) / float64(time.Millisecond), Detail: endDetail})
	if serr != nil {
		s.cfg.Logf("batch stream ended early after %d/%d matrices: %v", done, rr.Count(), serr)
		return
	}
	// A complete stream leaves only the chunked-encoding terminator in the
	// body; consuming it here, on the handler goroutine, keeps net/http's
	// full-duplex close-time drain from racing the keepalive reader. Early
	// exits skip this — their bodies may stall, and those connections are
	// not worth reusing anyway.
	io.Copy(io.Discard, r.Body)
}
