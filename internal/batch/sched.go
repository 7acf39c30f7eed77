package batch

import (
	"context"
	"time"

	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/pulsar"
)

// Scheduler dispatches batched factorizations onto a warm pulsar.Pool. The
// unit of dispatch is a chunk of ChunkSize matrices: one pool task
// factorizes the whole chunk on a worker, amortizing task-queue traffic over
// many matrices, and the pool's work stealing keeps every worker busy even
// when round-robin placement is unlucky. The chunks go through
// pulsar.Stream, whose window of in-flight items couples the request reader
// to the factorization rate, so a huge request body is pulled through the
// decoder no faster than the workers can retire it — the scheduler's memory
// footprint is 2× the pool's threads chunks of ChunkSize matrices,
// regardless of request size.
type Scheduler struct {
	pool      *pulsar.Pool
	chunkSize int
	onChunk   func(matrices int, d time.Duration)
}

// SchedConfig configures a Scheduler.
type SchedConfig struct {
	// Pool executes the chunks. Required.
	Pool *pulsar.Pool

	// ChunkSize is the number of matrices per dispatched task (default 64).
	ChunkSize int

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
		onChunk:   cfg.OnChunk,
	}
	if s.chunkSize <= 0 {
		s.chunkSize = 64
	}
	return s
}

// chunk is one dispatch unit: mats[i] is request matrix base+i, factorized
// in place by the worker task, which was dispatched at start.
type chunk struct {
	base  int
	mats  []*matrix.Mat
	start time.Time
}

// Stream pulls matrices from next until io.EOF, factorizes them on the pool
// and hands each result to emit in request order — chunk boundaries are not
// observable beyond the index. next runs in a goroutine of its own and emit
// on the calling goroutine, each serially, so a wire RequestReader and
// ResultWriter can be passed in directly.
//
// Stream returns the number of matrices emitted. It stops early — returning
// the partial count and the cause — when next fails (after emitting what it
// read before), emit fails, ctx is canceled, or the pool closes
// (pulsar.ErrPoolClosed); chunks already in flight are abandoned to the
// pool. next should return an error once ctx is canceled — an HTTP request
// body does, because the server closes it — or its goroutine outlives the
// call. The caller reconciles done against the declared request count to
// report shed work.
func (s *Scheduler) Stream(ctx context.Context, next func() (*matrix.Mat, error), emit func(index int, r *matrix.Mat) error) (done int, err error) {
	base := 0
	var end error // what ended next: the chunk it cut short goes out first
	nextChunk := func() (*chunk, error) {
		c := &chunk{base: base}
		for end == nil && len(c.mats) < s.chunkSize {
			m, err := next()
			if err != nil {
				end = err
				break
			}
			c.mats = append(c.mats, m)
		}
		if len(c.mats) == 0 {
			return nil, end
		}
		base += len(c.mats)
		c.start = time.Now()
		return c, nil
	}
	err = pulsar.Stream(ctx, s.pool, nextChunk, s.factor, func(c *chunk) error {
		for i, m := range c.mats {
			if m == nil {
				continue
			}
			if err := emit(c.base+i, m); err != nil {
				return err
			}
			done++
		}
		return nil
	}, nil)
	return done, err
}

// factor is a chunk's pool task: it factorizes every matrix of c with the
// worker's warm workspace.
func (s *Scheduler) factor(state any, c *chunk) *chunk {
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
		s.onChunk(len(c.mats), time.Since(c.start))
	}
	return c
}
