package batch

import (
	"context"
	"errors"
	"io"
	"time"

	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/pulsar"
)

// Scheduler dispatches batched factorizations onto a warm pulsar.Pool. The
// unit of dispatch is a chunk of ChunkSize matrices: one Pool.Exec task
// factorizes the whole chunk on a worker, amortizing task-queue traffic over
// many matrices, and the pool's work stealing keeps every worker busy even
// when round-robin placement is unlucky. A bounded window of in-flight
// chunks couples the request reader to the factorization rate, so a huge
// request body is pulled through the decoder no faster than the workers can
// retire it — the scheduler's memory footprint is Window×ChunkSize matrices
// regardless of request size.
type Scheduler struct {
	pool      *pulsar.Pool
	chunkSize int
	window    int
	onChunk   func(matrices int, d time.Duration)
}

// SchedConfig configures a Scheduler.
type SchedConfig struct {
	// Pool executes the chunks. Required.
	Pool *pulsar.Pool

	// ChunkSize is the number of matrices per dispatched task (default 64).
	ChunkSize int

	// Window caps in-flight chunks (default 2× the pool's threads): enough
	// that every worker has a chunk running and one queued, small enough to
	// bound memory.
	Window int

	// OnChunk, when set, observes every completed chunk: its matrix count
	// and wall time from dispatch to completion. Called from pool worker
	// goroutines — it must be safe for concurrent use.
	OnChunk func(matrices int, d time.Duration)
}

// NewScheduler returns a Scheduler over cfg.Pool.
func NewScheduler(cfg SchedConfig) *Scheduler {
	if cfg.Pool == nil {
		panic("batch: SchedConfig.Pool is required")
	}
	s := &Scheduler{
		pool:      cfg.Pool,
		chunkSize: cfg.ChunkSize,
		window:    cfg.Window,
		onChunk:   cfg.OnChunk,
	}
	if s.chunkSize <= 0 {
		s.chunkSize = 64
	}
	if s.window <= 0 {
		s.window = 2 * cfg.Pool.Threads()
	}
	return s
}

// chunk is one dispatch unit: mats[i] is request matrix base+i, factorized
// in place by the worker task.
type chunk struct {
	base int
	mats []*matrix.Mat
}

// ErrPoolClosed reports that the pool stopped accepting work mid-stream.
var ErrPoolClosed = errors.New("batch: pool closed")

// Stream pulls matrices from next until io.EOF, factorizes them on the pool
// and hands each result to emit in completion order — chunk boundaries and
// ordering are not observable beyond the index. next runs in a scheduler
// goroutine and emit on the calling goroutine, each serially, so a wire
// RequestReader and ResultWriter can be passed in directly.
//
// Stream returns the number of matrices emitted. It stops early — returning
// the partial count and the cause — when next fails, emit fails, ctx is
// canceled, or the pool closes; chunks already in flight are abandoned to
// the pool (their tasks complete or are dropped harmlessly). next should
// return an error once ctx is canceled — an HTTP request body does, because
// the server closes it — or the reader goroutine outlives the call. The
// caller reconciles done against the declared request count to report shed
// work.
func (s *Scheduler) Stream(ctx context.Context, next func() (*matrix.Mat, error), emit func(index int, r *matrix.Mat) error) (done int, err error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // unblock the reader goroutine on any exit path

	// results never blocks a worker: at most window chunks are in flight
	// (each holding a sem slot released only after collection), and the
	// channel buffers exactly that many.
	results := make(chan *chunk, s.window)
	sem := make(chan struct{}, s.window)
	type readEnd struct {
		chunks int
		err    error
	}
	readerDone := make(chan readEnd, 1)

	go func() {
		submitted := 0
		base := 0
		for {
			c := &chunk{base: base}
			for len(c.mats) < s.chunkSize {
				m, err := next()
				if err != nil {
					if !errors.Is(err, io.EOF) {
						s.flush(ctx, c, sem, results, &submitted)
						readerDone <- readEnd{chunks: submitted, err: err}
						return
					}
					err = s.flush(ctx, c, sem, results, &submitted)
					readerDone <- readEnd{chunks: submitted, err: err}
					return
				}
				c.mats = append(c.mats, m)
				base++
			}
			if err := s.flush(ctx, c, sem, results, &submitted); err != nil {
				readerDone <- readEnd{chunks: submitted, err: err}
				return
			}
		}
	}()

	collected, total := 0, -1
	var readErr error
	for total < 0 || collected < total {
		select {
		case c := <-results:
			collected++
			for i, m := range c.mats {
				if m == nil {
					continue
				}
				if err := emit(c.base+i, m); err != nil {
					return done, err
				}
				done++
			}
			<-sem
		case end := <-readerDone:
			total, readErr = end.chunks, end.err
		case <-ctx.Done():
			return done, ctx.Err()
		}
	}
	return done, readErr
}

// flush dispatches c (if non-empty) onto the pool, blocking for a window
// slot first. The worker task factorizes every matrix in the chunk with its
// warm per-worker workspace and reports the chunk on results.
func (s *Scheduler) flush(ctx context.Context, c *chunk, sem chan struct{}, results chan *chunk, submitted *int) error {
	if len(c.mats) == 0 {
		return nil
	}
	select {
	case sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	start := time.Now()
	ok := s.pool.Exec(func(state any) {
		ws, _ := state.(*kernels.Workspace)
		if ws == nil {
			ws = kernels.BorrowWorkspace()
			defer kernels.ReturnWorkspace(ws)
		}
		for i, m := range c.mats {
			if FactorWS(ws, m, DefaultCrossover) != nil {
				c.mats[i] = nil // unfactorizable shapes are shed, not fatal
			}
		}
		if s.onChunk != nil {
			s.onChunk(len(c.mats), time.Since(start))
		}
		results <- c
	})
	if !ok {
		<-sem
		return ErrPoolClosed
	}
	*submitted++
	return nil
}
