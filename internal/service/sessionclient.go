package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

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
	for attempt := 0; ; attempt++ {
		tr, status, retryAfter, err := c.sessionAppendOnce(id, n, blocks, rhs, each)
		if status == http.StatusTooManyRequests && attempt < c.Retry429 {
			wait := retryAfter
			if wait <= 0 {
				if wait = c.Backoff; wait <= 0 {
					wait = time.Second
				}
			}
			time.Sleep(wait)
			continue
		}
		return tr, err
	}
}

func (c *Client) sessionAppendOnce(id string, n int, blocks, rhs []*matrix.Mat, each func(u session.Update) error) (session.Trailer, int, time.Duration, error) {
	// The request streams through a pipe so a long-lived append session
	// never materializes its blocks as one buffer.
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

	req, err := http.NewRequest("POST", c.Base+"/v1/sessions/"+id+"/append", pr)
	if err != nil {
		return session.Trailer{}, 0, 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.http().Do(req)
	if err != nil {
		return session.Trailer{}, 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var retryAfter time.Duration
		if sec, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && sec >= 0 {
			retryAfter = time.Duration(sec) * time.Second
		}
		data, _ := io.ReadAll(resp.Body)
		var e errorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return session.Trailer{}, resp.StatusCode, retryAfter, fmt.Errorf("%s", e.Error)
		}
		return session.Trailer{}, resp.StatusCode, retryAfter, fmt.Errorf("http %d", resp.StatusCode)
	}

	rd, err := session.NewReplyReader(resp.Body, n)
	if err != nil {
		return session.Trailer{}, resp.StatusCode, 0, err
	}
	for {
		u, tr, err := rd.Next()
		if err != nil {
			return session.Trailer{}, resp.StatusCode, 0, err
		}
		if tr != nil {
			return *tr, resp.StatusCode, 0, nil
		}
		if each != nil {
			if err := each(*u); err != nil {
				return session.Trailer{}, resp.StatusCode, 0, err
			}
		}
	}
}

// SessionR fetches the session's current global state (blocks, rows, R) as
// a one-frame QSB1 stream. n is the session's column count.
func (c *Client) SessionR(id string, n int) (session.Update, error) {
	req, err := http.NewRequest("GET", c.Base+"/v1/sessions/"+id+"/r", nil)
	if err != nil {
		return session.Update{}, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return session.Update{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		var e errorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return session.Update{}, fmt.Errorf("%s", e.Error)
		}
		return session.Update{}, fmt.Errorf("http %d", resp.StatusCode)
	}
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
