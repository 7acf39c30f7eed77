package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/obs"
	"pulsarqr/internal/pulsar"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/session"
)

// SessionSpec is the POST /v1/sessions body. NB/IB default to the engine's
// tile configuration when zero; checkpoint_every defaults to the server's
// cadence; ack_only sessions get block receipts without R payloads.
type SessionSpec struct {
	Tenant          string `json:"tenant,omitempty"`
	N               int    `json:"n"`
	NRHS            int    `json:"nrhs,omitempty"`
	NB              int    `json:"nb,omitempty"`
	IB              int    `json:"ib,omitempty"`
	CheckpointEvery int    `json:"checkpoint_every,omitempty"`
	AckOnly         bool   `json:"ack_only,omitempty"`
}

// sessionErrStatus maps session-package sentinels onto the HTTP surface.
func sessionErrStatus(err error) int {
	switch {
	case errors.Is(err, session.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, session.ErrBusy):
		return http.StatusConflict
	case errors.Is(err, session.ErrGone):
		return http.StatusGone
	case errors.Is(err, session.ErrClosed), errors.Is(err, pulsar.ErrPoolClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	var req SessionSpec
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{"bad request body: " + err.Error()})
		return
	}
	sess, err := s.sessions.Open(req.Tenant, req.N, req.NRHS,
		qr.Options{NB: req.NB, IB: req.IB}, req.CheckpointEvery, req.AckOnly)
	if err != nil {
		if errors.Is(err, session.ErrTableFull) || errors.Is(err, session.ErrTenantFull) {
			// Sessions are capacity, not queued work: Retry-After scales with
			// how full the table is, and frees require a client DELETE or the
			// idle janitor — so the hint is deliberately coarse.
			s.metrics.SessionsRejected.Add(1)
			s.shed429(w, "session", req.Tenant, s.sessions.Stats().Sessions, s.sessions.Cap(), err.Error())
			return
		}
		writeJSON(w, sessionErrStatus(err), errorResponse{err.Error()})
		return
	}
	s.metrics.SessionsOpened.Add(1)
	s.obs.Emit(obs.Event{Kind: obs.EvSessionOpen, Class: "session", Session: sess.ID, Tenant: sess.Tenant})
	s.cfg.Logf("session %s opened: tenant=%q n=%d nrhs=%d every=%d ack=%v",
		sess.ID, sess.Tenant, sess.N, sess.NRHS, sess.Every, sess.Ack)
	writeJSON(w, http.StatusCreated, sess.Info())
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"sessions": s.sessions.List()})
}

func (s *Server) sessionFromPath(w http.ResponseWriter, r *http.Request) *session.Session {
	sess, err := s.sessions.Get(r.PathValue("id"))
	if err != nil {
		writeJSON(w, sessionErrStatus(err), errorResponse{err.Error()})
		return nil
	}
	return sess
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sess := s.sessionFromPath(w, r)
	if sess == nil {
		return
	}
	writeJSON(w, http.StatusOK, sess.Info())
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.sessions.Delete(id); err != nil {
		writeJSON(w, sessionErrStatus(err), errorResponse{err.Error()})
		return
	}
	s.obs.Emit(obs.Event{Kind: obs.EvSessionClose, Class: "session", Session: id})
	s.cfg.Logf("session %s deleted", id)
	writeJSON(w, http.StatusOK, map[string]any{"deleted": id})
}

// handleSessionR serves the session's current global state as a one-frame
// QSB1 stream: a single update carrying R (and the fold is fresh, so a parked
// session reloads its spine first), then the trailer.
func (s *Server) handleSessionR(w http.ResponseWriter, r *http.Request) {
	sess := s.sessionFromPath(w, r)
	if sess == nil {
		return
	}
	cur, err := sess.Current()
	if err != nil {
		writeJSON(w, sessionErrStatus(err), errorResponse{err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	rw, err := session.NewReplyWriter(w)
	if err != nil {
		return // headers are out; nothing more to say
	}
	if err := rw.WriteUpdate(cur.Blocks, cur.Rows, cur.R); err != nil {
		return
	}
	rw.WriteTrailer(0)
}

// handleSessionAppend serves POST /v1/sessions/{id}/append: a QSA1 stream of
// row blocks in, a QSB1 stream of committed updates out, full duplex — each
// reply frame carries the session's new global R (or a bare receipt for
// ack-only sessions), so the client holds an up-to-date factorization after
// every block it streams. Admission is its own class (cfg.SessionStreams
// slots, admitStream) shed with 429 + Retry-After, and the response commits
// to an octet stream only once the first append has actually committed:
// failures before that — busy session, deleted session, malformed stream —
// return clean JSON statuses instead of a 200 with an error trailer.
func (s *Server) handleSessionAppend(w http.ResponseWriter, r *http.Request) {
	// A client disconnect ends the stream, and so does server shutdown:
	// committed-but-unsent updates are recoverable from the checkpoint.
	ctx, end, ok := s.admitStream(w, r, &s.appendStreams)
	if !ok {
		return
	}
	defer end()
	sess := s.sessionFromPath(w, r)
	if sess == nil {
		return
	}
	ar, err := session.NewAppendReader(r.Body, sess.N, sess.NRHS)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{"bad append stream: " + err.Error()})
		return
	}

	// Full duplex lets updates flow while the client is still streaming
	// blocks at us. It is on before anything is written, so that an error
	// reply does not wait on the body either: net/http would otherwise
	// take the body's lock to discard what is unread, and the stream's
	// reader may be holding it, blocked on an interactive client that waits
	// for this very reply.
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex()
	var rw *session.ReplyWriter
	emit := func(blocks, rows int64, cur *qr.StreamNode) error {
		if rw == nil {
			// First committed append: commit the response to a QSB1 stream.
			w.Header().Set("Content-Type", "application/octet-stream")
			var err error
			if rw, err = session.NewReplyWriter(w); err != nil {
				return err
			}
		}
		var rm *matrix.Mat
		if cur != nil {
			rm = cur.R
		}
		if err := rw.WriteUpdate(blocks, rows, rm); err != nil {
			return err
		}
		// Appends are interactive — the client blocks on each update to
		// decide its next block — so every frame flushes.
		return rc.Flush()
	}

	start := time.Now()
	var done int64
	var streamErr error
	// Every append stream ends with one structured event and one run-span
	// observation, whichever exit path it takes.
	defer func() {
		detail := fmt.Sprintf("%d blocks", done)
		if streamErr != nil {
			detail += ": " + streamErr.Error()
		}
		s.metrics.ObserveStreamSpan("session", time.Since(start))
		s.obs.Emit(obs.Event{Kind: obs.EvAppendStream, Class: "session",
			Session: sess.ID, Tenant: sess.Tenant,
			DurMS: float64(time.Since(start)) / float64(time.Millisecond), Detail: detail})
	}()
	done, streamErr = sess.AppendFrom(ctx, ar, emit)
	if rw == nil {
		// Nothing committed and no bytes out: the error (or the empty
		// stream) still gets a clean status line.
		if streamErr != nil {
			writeJSON(w, sessionErrStatus(streamErr), errorResponse{streamErr.Error()})
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		var err error
		if rw, err = session.NewReplyWriter(w); err != nil {
			return
		}
	}
	shed := ar.Count() - int(done)
	if shed < 0 {
		shed = 0 // count is a client claim; never trust it below reality
	}
	if streamErr != nil {
		s.cfg.Logf("session %s: append stream ended after %d/%d blocks: %v",
			sess.ID, done, ar.Count(), streamErr)
	} else {
		// Only a cleanly completed stream drains the request body; an
		// aborted one must not block on a client still sending.
		io.Copy(io.Discard, r.Body)
		s.cfg.Logf("session %s: appended %d blocks (%d rows total) in %v",
			sess.ID, done, sess.Info().Rows, time.Since(start))
	}
	rw.WriteTrailer(shed)
}

// writeSessionProm renders the sampled session-table gauges after the
// counter block on /metrics: occupancy, per-tenant shares, and checkpoint
// freshness — the dashboard's view of how much streamed state would survive
// a crash right now.
func (s *Server) writeSessionProm(w io.Writer) {
	p := promWriter{w}
	st := s.sessions.Stats()
	p.gauge("qrserve_sessions_active", "Streaming sessions registered (loaded or parked).", st.Sessions)
	p.gauge("qrserve_sessions_loaded", "Sessions with a live in-memory spine.", st.Loaded)
	p.family("qrserve_tenant_sessions", "Sessions registered per tenant.", "gauge")
	for _, tn := range sortedKeys(st.PerTenant) {
		p.sample("qrserve_tenant_sessions", fmt.Sprintf("tenant=%q", tn), st.PerTenant[tn])
	}
	p.gauge("qrserve_checkpoint_resident_bytes", "Bytes held by the latest checkpoint of every session.", st.CheckpointBytes)
	if !st.LastCheckpoint.IsZero() {
		p.gauge("qrserve_checkpoint_age_seconds", "Seconds since the most recent durable checkpoint write.", time.Since(st.LastCheckpoint).Seconds())
	}
}
