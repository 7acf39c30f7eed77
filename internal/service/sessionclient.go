package service

import (
	"fmt"
	"io"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/session"
)

// OpenSession creates a streaming session and returns its descriptor. 429
// responses (table or tenant full) are retried Retry429 times, honoring
// Retry-After.
func (c *Client) OpenSession(spec SessionSpec) (session.Info, error) {
	var info session.Info
	_, err := c.call("POST", "/v1/sessions", spec, &info)
	return info, err
}

// SessionInfo fetches one session's descriptor.
func (c *Client) SessionInfo(id string) (session.Info, error) {
	var info session.Info
	_, err := c.call("GET", "/v1/sessions/"+id, nil, &info)
	return info, err
}

// Sessions lists every registered session.
func (c *Client) Sessions() ([]session.Info, error) {
	var out struct {
		Sessions []session.Info `json:"sessions"`
	}
	_, err := c.call("GET", "/v1/sessions", nil, &out)
	return out.Sessions, err
}

// CloseSession deletes a session and its checkpoint.
func (c *Client) CloseSession(id string) error {
	_, err := c.call("DELETE", "/v1/sessions/"+id, nil, nil)
	return err
}

// SessionAppend streams row blocks into a session over one full-duplex
// request and calls each for every committed update as it arrives — each
// update carries the session's new global R (nil for ack-only sessions).
// blocks[i] must be m×n; rhs is nil for nrhs=0 sessions, else rhs[i] is
// m×nrhs. n is the session's column count (from its Info). 429 responses are
// retried Retry429 times, honoring Retry-After.
func (c *Client) SessionAppend(id string, n int, blocks, rhs []*matrix.Mat, each func(u session.Update) error) (session.Trailer, error) {
	_, resp, err := c.open("POST", "/v1/sessions/"+id+"/append", "application/octet-stream", func() io.Reader {
		return appendBody(blocks, rhs)
	}, "")
	if err != nil {
		return session.Trailer{}, err
	}
	defer resp.Body.Close()
	rd, err := session.NewReplyReader(resp.Body, n)
	if err != nil {
		return session.Trailer{}, err
	}
	for {
		u, tr, err := rd.Next()
		if err != nil {
			return session.Trailer{}, err
		}
		if tr != nil {
			return *tr, nil
		}
		if each != nil {
			if err := each(*u); err != nil {
				return session.Trailer{}, err
			}
		}
	}
}

// appendBody streams an append request through a pipe so a long-lived
// append session never materializes its blocks as one buffer.
func appendBody(blocks, rhs []*matrix.Mat) io.Reader {
	pr, pw := io.Pipe()
	go func() {
		if err := session.WriteAppendHeader(pw, len(blocks)); err != nil {
			pw.CloseWithError(err)
			return
		}
		var buf []byte
		for i, b := range blocks {
			var r *matrix.Mat
			if rhs != nil {
				r = rhs[i]
			}
			buf = session.AppendBlock(buf[:0], b, r)
			if _, err := pw.Write(buf); err != nil {
				pw.CloseWithError(err)
				return
			}
		}
		pw.Close()
	}()
	return pr
}

// SessionR fetches the session's current global state (blocks, rows, R) as
// a one-frame QSB1 stream. n is the session's column count.
func (c *Client) SessionR(id string, n int) (session.Update, error) {
	_, resp, err := c.open("GET", "/v1/sessions/"+id+"/r", "", nil, "")
	if err != nil {
		return session.Update{}, err
	}
	defer resp.Body.Close()
	rd, err := session.NewReplyReader(resp.Body, n)
	if err != nil {
		return session.Update{}, err
	}
	var got session.Update
	seen := false
	for {
		u, tr, err := rd.Next()
		if err != nil {
			return session.Update{}, err
		}
		if tr != nil {
			if !seen {
				return session.Update{}, fmt.Errorf("session: empty R stream")
			}
			return got, nil
		}
		got, seen = *u, true
	}
}
