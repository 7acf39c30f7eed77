package pulsar

import (
	"context"
	"errors"
	"io"
	"sync"
)

// ErrPoolClosed reports that a pool stopped accepting work mid-stream.
var ErrPoolClosed = errors.New("pulsar: pool closed")

// Stream runs work on p's workers over every item next yields, and hands
// each result to emit on the calling goroutine in the order next yielded
// its item. next runs on a goroutine of its own and ends the stream with
// io.EOF; work runs on a pool worker with that worker's state (what Exec
// passes). At most 2× the pool's threads items are dispatched and not yet
// emitted: an item next yields past that waits for emit to take a result,
// so a slow consumer bounds how far a fast producer reads ahead.
//
// Stream stops on the first error — from next (after emitting every result
// already dispatched), from emit, from ctx, or ErrPoolClosed when the pool
// refuses an item — and returns it; io.EOF returns nil. It does not wait
// for next: a call blocked when Stream returns must fail soon after (an
// HTTP request body does once its handler returns), and what it yields is
// not used. emit owns every result it is called with; drop, when not nil,
// is handed every other result of a dispatched item exactly once — on the
// calling goroutine or on a worker, during or after Stream — so an aborted
// stream can give its results' storage back.
func Stream[I, O any](ctx context.Context, p *Pool, next func() (I, error), work func(state any, in I) O, emit func(O) error, drop func(O)) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// slots bounds the dispatched and unemitted items. pending holds one
	// future per dispatched item, in next's order: one per slot, and one for
	// the item next had read when the stream stopped, so it never blocks.
	slots := make(chan struct{}, 2*p.threads)
	pending := make(chan chan O, cap(slots)+1)
	var (
		end     error // why next's goroutine stopped; read once pending is closed
		mu      sync.Mutex
		stopped bool // no result is emitted any more: a finished worker drops its own
	)
	go func() {
		defer close(pending)
		for {
			if end = context.Cause(ctx); end != nil {
				return
			}
			in, err := next()
			if err != nil {
				end = err
				return
			}
			select {
			case slots <- struct{}{}:
			case <-ctx.Done(): // in is dispatched all the same, so its result reaches drop
			}
			// The future is pending before the item is dispatched, so a stop
			// either finds it or comes before its worker finishes.
			fut := make(chan O, 1)
			pending <- fut
			if !p.Exec(func(state any) {
				out := work(state, in)
				mu.Lock()
				keep := !stopped
				if keep {
					fut <- out
				}
				mu.Unlock()
				if !keep && drop != nil {
					drop(out)
				}
			}) {
				close(fut)
				return
			}
		}
	}()

	// stop ends the stream with err: every result already delivered to a
	// future it holds or finds pending is dropped; a worker still running
	// drops its own.
	stop := func(held chan O, err error) error {
		cancel()
		mu.Lock()
		stopped = true
		mu.Unlock()
		for ok := true; ok; {
			select {
			case out, got := <-held:
				if got && drop != nil {
					drop(out)
				}
			default:
			}
			select {
			case held, ok = <-pending:
			default:
				ok = false
			}
		}
		return err
	}
	for {
		var fut chan O
		var ok bool
		select {
		case fut, ok = <-pending:
		case <-ctx.Done():
			return stop(nil, context.Cause(ctx))
		}
		if !ok {
			if errors.Is(end, io.EOF) {
				return nil
			}
			return end
		}
		var out O
		select {
		case out, ok = <-fut:
		case <-ctx.Done():
			return stop(fut, context.Cause(ctx))
		}
		if !ok {
			return stop(nil, ErrPoolClosed)
		}
		if err := emit(out); err != nil {
			return stop(nil, err)
		}
		<-slots
	}
}
