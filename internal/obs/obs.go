// Package obs is the service's always-on observability layer: a structured
// event log (log/slog), a bounded in-memory flight recorder, per-request
// lifecycle spans, and an online α–β machine-model estimator.
//
// Everything is nil-safe: a nil *Observer accepts every call and does
// nothing, so callers thread one pointer through without guards and the
// disabled path stays allocation-free (the zero-alloc tests hold it there).
// Event is a flat value struct for the same reason — emitting one through a
// nil observer must not force a variadic slice or an interface box.
package obs

import (
	"context"
	"log/slog"
	"sync/atomic"
	"time"
)

// Kind names one event type; the value is the slog message and the "kind"
// field of the JSON log line.
type Kind string

const (
	EvQueued       Kind = "job_queued"     // admitted to the priority queue
	EvDispatched   Kind = "job_dispatched" // popped by a dispatcher worker
	EvRunning      Kind = "job_running"    // factorization started
	EvGathering    Kind = "job_gathering"  // run done, collecting trace shards
	EvDone         Kind = "job_done"       // terminal: success
	EvFailed       Kind = "job_failed"     // terminal: factorization error
	EvCanceled     Kind = "job_canceled"   // terminal: client or shutdown cancel
	EvExpired      Kind = "job_expired"    // terminal: deadline passed before dispatch
	EvRetry        Kind = "job_retry"      // attempt lost a fleet rank; requeued
	EvShed         Kind = "shed"           // 429 from any admission class
	EvAgentJoin    Kind = "agent_join"     // fleet rank present at boot
	EvAgentEvict   Kind = "agent_evict"    // fleet rank declared dead
	EvBarrierAbort Kind = "barrier_abort"  // collective barrier failed
	EvCheckpoint   Kind = "checkpoint"     // durable session checkpoint written
	EvSessionOpen  Kind = "session_open"   // streaming session created
	EvSessionClose Kind = "session_close"  // streaming session deleted
	EvAppendStream Kind = "append_stream"  // session append stream finished
	EvBatchStart   Kind = "batch_start"    // batch stream admitted
	EvBatchEnd     Kind = "batch_end"      // batch stream finished
	EvModelLoaded  Kind = "model_loaded"   // machine model restored from disk
	EvModelSaved   Kind = "model_saved"    // machine model persisted
	EvPlan         Kind = "job_planned"    // autotuner chose a configuration
)

// Event is one structured log record. It is a flat value type: every field
// rides in the struct itself so emitting an event allocates nothing until a
// sink (slog, the flight ring) decides to keep it.
type Event struct {
	At      time.Time `json:"t"`
	Kind    Kind      `json:"kind"`
	Class   string    `json:"class,omitempty"` // admission class: job, batch, session
	Job     uint32    `json:"job,omitempty"`
	Session string    `json:"session,omitempty"`
	Tenant  string    `json:"tenant,omitempty"`
	Attempt int       `json:"attempt,omitempty"`
	Rank    int       `json:"rank,omitempty"`
	Bytes   int64     `json:"bytes,omitempty"`
	DurMS   float64   `json:"dur_ms,omitempty"`
	RetryS  int       `json:"retry_after_s,omitempty"` // Retry-After hint on sheds
	Detail  string    `json:"detail,omitempty"`
}

// Options parameterizes an Observer.
type Options struct {
	// Logger receives one record per event; nil keeps events in the flight
	// ring only.
	Logger *slog.Logger
	// FlightCap bounds the flight-recorder ring; <= 0 takes
	// DefaultFlightCap. Overflow overwrites the oldest events and bumps the
	// drop counter — recording never blocks and never grows.
	FlightCap int
}

// Observer is the event sink threaded through the service. The nil Observer
// is valid and free: every method checks the receiver first.
type Observer struct {
	log    *slog.Logger
	ring   *Ring
	est    *ABEstimator
	events atomic.Int64
}

// New builds an Observer; see Options for the defaults.
func New(o Options) *Observer {
	return &Observer{
		log:  o.Logger,
		ring: NewRing(o.FlightCap),
		est:  NewABEstimator(DefaultHalfLife),
	}
}

// Enabled reports whether events go anywhere (false exactly on the nil
// observer).
func (o *Observer) Enabled() bool { return o != nil }

// Emit records one event in the flight ring and, when a logger is attached,
// as one structured log record. Safe on nil.
func (o *Observer) Emit(e Event) {
	if o == nil {
		return
	}
	if e.At.IsZero() {
		e.At = time.Now()
	}
	o.events.Add(1)
	o.ring.Push(e)
	o.logEvent(e)
}

// level maps event kinds onto log severities: frequent lifecycle chatter is
// debug, landmarks are info, trouble is warn.
func level(k Kind) slog.Level {
	switch k {
	case EvQueued, EvDispatched, EvRunning, EvGathering, EvCheckpoint, EvAppendStream, EvPlan:
		return slog.LevelDebug
	case EvShed, EvAgentEvict, EvFailed, EvExpired, EvRetry, EvBarrierAbort:
		return slog.LevelWarn
	default:
		return slog.LevelInfo
	}
}

func (o *Observer) logEvent(e Event) {
	if o.log == nil {
		return
	}
	lvl := level(e.Kind)
	ctx := context.Background()
	if !o.log.Enabled(ctx, lvl) {
		return
	}
	attrs := make([]slog.Attr, 0, 11)
	attrs = append(attrs, slog.String("kind", string(e.Kind)))
	if e.Class != "" {
		attrs = append(attrs, slog.String("class", e.Class))
	}
	if e.Job != 0 {
		attrs = append(attrs, slog.Uint64("job", uint64(e.Job)))
	}
	if e.Session != "" {
		attrs = append(attrs, slog.String("session", e.Session))
	}
	if e.Tenant != "" {
		attrs = append(attrs, slog.String("tenant", e.Tenant))
	}
	if e.Attempt != 0 {
		attrs = append(attrs, slog.Int("attempt", e.Attempt))
	}
	if e.Rank != 0 {
		attrs = append(attrs, slog.Int("rank", e.Rank))
	}
	if e.Bytes != 0 {
		attrs = append(attrs, slog.Int64("bytes", e.Bytes))
	}
	if e.DurMS != 0 {
		attrs = append(attrs, slog.Float64("dur_ms", e.DurMS))
	}
	if e.RetryS != 0 {
		attrs = append(attrs, slog.Int("retry_after_s", e.RetryS))
	}
	if e.Detail != "" {
		attrs = append(attrs, slog.String("detail", e.Detail))
	}
	o.log.LogAttrs(ctx, lvl, string(e.Kind), attrs...)
}

// Tail returns the most recent n events across the whole ring, oldest
// first. Safe on nil (returns nil).
func (o *Observer) Tail(n int) []Event {
	if o == nil {
		return nil
	}
	return o.ring.Tail(n)
}

// TailJob returns the most recent events mentioning one job id — the flight
// tail attached to a failed job's record. Safe on nil.
func (o *Observer) TailJob(job uint32, n int) []Event {
	if o == nil {
		return nil
	}
	return o.ring.TailMatch(n, func(e Event) bool { return e.Job == job })
}

// Stats returns how many events were emitted and how many the ring
// overwrote. Safe on nil.
func (o *Observer) Stats() (events, drops int64) {
	if o == nil {
		return 0, 0
	}
	return o.events.Load(), o.ring.Drops()
}

// Estimator exposes the α–β machine-model estimator (nil on the nil
// observer).
func (o *Observer) Estimator() *ABEstimator {
	if o == nil {
		return nil
	}
	return o.est
}

// Links returns the current per-link machine-model estimates. Safe on nil.
func (o *Observer) Links() []LinkModel {
	if o == nil {
		return nil
	}
	return o.est.Links()
}

// DumpTail writes the flight-recorder tail to the structured log — the
// postmortem on agent eviction, so operators see the events leading up to a
// fleet degradation without scraping counters. Safe on nil; a no-op without
// a logger.
func (o *Observer) DumpTail(reason string, n int) {
	if o == nil || o.log == nil {
		return
	}
	ctx := context.Background()
	if !o.log.Enabled(ctx, slog.LevelWarn) {
		return
	}
	tail := o.ring.Tail(n)
	o.log.LogAttrs(ctx, slog.LevelWarn, "flight_dump",
		slog.String("reason", reason), slog.Int("events", len(tail)), slog.Int64("dropped", o.ring.Drops()))
	for _, e := range tail {
		attrs := []slog.Attr{
			slog.Time("at", e.At),
			slog.String("kind", string(e.Kind)),
		}
		if e.Job != 0 {
			attrs = append(attrs, slog.Uint64("job", uint64(e.Job)))
		}
		if e.Session != "" {
			attrs = append(attrs, slog.String("session", e.Session))
		}
		if e.Detail != "" {
			attrs = append(attrs, slog.String("detail", e.Detail))
		}
		o.log.LogAttrs(ctx, slog.LevelWarn, "flight_event", attrs...)
	}
}
