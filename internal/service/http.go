package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/obs"
	"pulsarqr/internal/trace"
)

// JobView is the JSON shape of a job on the HTTP surface.
type JobView struct {
	ID        uint32          `json:"id"`
	Status    string          `json:"status"`
	Error     string          `json:"error,omitempty"`
	Tenant    string          `json:"tenant,omitempty"`
	Attempts  int             `json:"attempts,omitempty"` // requeues after fleet failures
	M         int             `json:"m"`
	N         int             `json:"n"`
	Priority  int             `json:"priority,omitempty"`
	ElapsedMS float64         `json:"elapsed_ms,omitempty"`
	Gflops    float64         `json:"gflops,omitempty"`
	Residual  float64         `json:"residual,omitempty"`
	OK        bool            `json:"ok"`
	Firings   int64           `json:"firings,omitempty"`
	Messages  int64           `json:"messages,omitempty"`
	Bytes     int64           `json:"bytes,omitempty"`
	Spans     *obs.SpanReport `json:"spans,omitempty"`  // lifecycle span accounting, live or final
	Flight    []obs.Event     `json:"flight,omitempty"` // flight-recorder tail on troubled terminals
	R         [][]float64     `json:"r,omitempty"`
}

// viewOf is the job's JSON view, without R (handleGet adds it).
func viewOf(j *Job) JobView {
	v, _ := jobView(j)
	return v
}

// jobView renders the job without R, and returns the result it rendered.
func jobView(j *Job) (JobView, *Result) {
	state, errMsg, r := j.outcome()
	v := JobView{
		ID:       j.ID,
		Status:   string(state),
		Error:    errMsg,
		Tenant:   j.Spec.Tenant,
		Attempts: j.Attempts(),
		M:        j.Spec.M,
		N:        j.Spec.N,
		Priority: j.Spec.Priority,
	}
	if j.life.Started() {
		rep := j.Spans().Report()
		v.Spans = &rep
	}
	v.Flight = j.Flight()
	if r != nil {
		v.ElapsedMS = float64(r.Elapsed) / float64(time.Millisecond)
		v.Gflops = r.Gflops
		if !math.IsNaN(r.Residual) && !math.IsInf(r.Residual, 0) {
			// A non-finite residual — a NaN or Inf somewhere in the input —
			// has no JSON form: the view leaves it out and reads ok=false.
			v.Residual = r.Residual
		}
		v.OK = r.OK
		v.Firings = r.Stats.Firings
		v.Messages = r.Stats.Messages
		v.Bytes = r.Stats.Bytes
	}
	return v, r
}

// submitRequest is the POST /v1/factorize body — as JSON, or as the head of
// a job frame whose matrix is the spec's Data: a JobSpec plus the wait flag,
// which blocks the response until the job is terminal.
type submitRequest struct {
	JobSpec
	Wait bool `json:"wait,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the service's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/factorize", s.handleSubmit)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/sessions", s.handleSessionOpen)
	mux.HandleFunc("GET /v1/sessions", s.handleSessionList)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	mux.HandleFunc("GET /v1/sessions/{id}/r", s.handleSessionR)
	mux.HandleFunc("POST /v1/sessions/{id}/append", s.handleSessionAppend)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// decodeSubmit reads a POST /v1/factorize body in the form its content type
// names — a job frame, or JSON for everything else (curl's default type
// included) — into the one request both become. Either way the server owns
// the Data it decoded: a frame's matrix lands in a warm slab when slab.Floats
// has one, and the job gives it back to the pool once it has run
// successfully.
func decodeSubmit(w http.ResponseWriter, r *http.Request) (req submitRequest, err error) {
	if r.Header.Get("Content-Type") != jobFrameType {
		return req, json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes)).Decode(&req)
	}
	a, err := readJobFrame(http.MaxBytesReader(w, r.Body, maxFrameBytes), true, func(head []byte, rows, cols int) error {
		if err := json.Unmarshal(head, &req); err != nil {
			return err
		}
		if len(req.Data) != 0 {
			return errors.New(`frame head carries "data"; the matrix follows the head`)
		}
		if err := req.checkShape(true); err != nil {
			return err
		}
		if rows != req.M || cols != req.N {
			return fmt.Errorf("frame matrix is %dx%d, spec says %dx%d", rows, cols, req.M, req.N)
		}
		return nil
	})
	if err == nil {
		req.Data = a.Data
	}
	return req, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeSubmit(w, r)
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, errorResponse{"bad request body: " + err.Error()})
		return
	}
	j, err := s.submit(req.JobSpec, true)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Explicit backpressure: 429, nothing buffered. Retry-After scales
		// with how many queued jobs must drain per execution slot before a
		// retry can be admitted, so clients back off harder the deeper the
		// queue — without any client-side knowledge of server sizing.
		s.shed429(w, "job", req.Tenant, s.mgr.Depth(), s.cfg.MaxConcurrent, err.Error())
		return
	case errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	if req.Wait {
		select {
		case <-j.Done():
		case <-r.Context().Done():
			// Client went away while waiting; the job keeps running.
			writeJSON(w, http.StatusAccepted, viewOf(j))
			return
		}
		writeJSON(w, http.StatusOK, viewOf(j))
		return
	}
	writeJSON(w, http.StatusAccepted, viewOf(j))
}

func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) *Job {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 32)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{"bad job id"})
		return nil
	}
	j, err := s.Get(uint32(id))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{err.Error()})
		return nil
	}
	return j
}

// handleGet answers with the job's JSON view. With ?include=r the view
// carries R — as rows inside the JSON, or, for a client whose Accept names
// the job frame, as the frame's matrix after a view without it.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r)
	if j == nil {
		return
	}
	includeR := r.URL.Query().Get("include") == "r"
	if !includeR {
		writeJSON(w, http.StatusOK, viewOf(j))
		return
	}
	// R is read under a hold until the response is written: an eviction
	// meanwhile gives its slab back only after that. A job evicted before
	// the hold is gone, as if it had been before the lookup.
	v, res := jobView(j)
	var rm *matrix.Mat
	if res != nil {
		if !j.holdR() {
			writeJSON(w, http.StatusNotFound, errorResponse{ErrNotFound.Error()})
			return
		}
		defer j.dropR()
		rm = res.R
	}
	if !strings.Contains(r.Header.Get("Accept"), jobFrameType) {
		v.R = rRows(rm)
		writeJSON(w, http.StatusOK, v)
		return
	}
	head, err := json.Marshal(v)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
		return
	}
	w.Header().Set("Content-Type", jobFrameType)
	writeJobFrame(w, head, rm)
}

// handleTrace streams the job's gathered per-rank trace shards as JSONL,
// ready for qrtrace -merge. 404 until the job completed with Trace set.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r)
	if j == nil {
		return
	}
	shards := j.TraceShards()
	if shards == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{"no trace for this job (submit with \"trace\": true and wait for completion)"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	trace.WriteShards(w, shards...)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r)
	if j == nil {
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, viewOf(j))
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	bi := buildInfo(s.cfg.Threads)
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":           true,
		"ranks":        s.Ranks(),
		"ranks_live":   s.AgentsLive(),
		"degraded":     s.Degraded(),
		"threads":      s.cfg.Threads,
		"version":      bi.Version,
		"kernel":       bi.Kernel,
		"cpu_features": bi.CPUFeatures,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WriteProm(w, s.mgr.Depth(), s.resident())
	// Process-level goroutine count: the smoke tests diff it across a batch
	// stream to prove the scheduler leaks nothing.
	promWriter{w}.gauge("qrserve_goroutines", "Goroutines live in the server process.", runtime.NumGoroutine())
	s.writeSessionProm(w)
	s.writeTransportProm(w)
	s.writeObsProm(w)
}

// retryAfterSeconds derives a 429 Retry-After hint from queue depth: one
// second per queued job per execution slot, clamped to [1, 30].
func retryAfterSeconds(depth, slots int) int {
	if slots < 1 {
		slots = 1
	}
	sec := 1 + depth/slots
	if sec > 30 {
		sec = 30
	}
	return sec
}

// shed429 is the one load-shedding response for every admission class — the
// job queue, batch streams, session opens and session append streams all
// refuse work through it, so clients see a uniform 429 + Retry-After
// contract (depth is the work already admitted in that class, slots its
// drain parallelism) and every shed emits one structured event carrying the
// class, the tenant and the hint it was sent.
func (s *Server) shed429(w http.ResponseWriter, class, tenant string, depth, slots int, msg string) {
	sec := retryAfterSeconds(depth, slots)
	s.obs.Emit(obs.Event{Kind: obs.EvShed, Class: class, Tenant: tenant, RetryS: sec, Detail: msg})
	w.Header().Set("Retry-After", strconv.Itoa(sec))
	writeJSON(w, http.StatusTooManyRequests, errorResponse{msg})
}

// streamClass is one admission class of full-duplex streams, batch requests
// or session appends: at most cap(slots) run at once, active gauges them,
// rejected counts the sheds and busy is what a shed says. Busy slots drain
// in stream time, not job time: a shed's depth is the streams already
// running and its slots the class's cap, so the hint stays short.
type streamClass struct {
	name             string
	slots            chan struct{}
	active, rejected *atomic.Int64
	busy             string
}

// admitStream is the prologue both streaming handlers share. It takes a
// slot of c or answers 429, answers 503 once the server is closed, counts
// the stream in c's active gauge, and merges the request context with the
// server's, so the stream ends when either the client or the server goes
// away: Close cancels baseCtx before it closes the pool, so a stream wedged
// on a dropped task is always unblocked here first. When ok, the caller
// calls end once the stream is over.
func (s *Server) admitStream(w http.ResponseWriter, r *http.Request, c *streamClass) (ctx context.Context, end func(), ok bool) {
	select {
	case c.slots <- struct{}{}:
	default:
		c.rejected.Add(1)
		s.shed429(w, c.name, "", int(c.active.Load()), cap(c.slots), c.busy)
		return nil, nil, false
	}
	if s.baseCtx.Err() != nil {
		<-c.slots
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{ErrClosed.Error()})
		return nil, nil, false
	}
	c.active.Add(1)
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() {
		stop()
		cancel()
		c.active.Add(-1)
		<-c.slots
	}, true
}
