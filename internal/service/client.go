package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"pulsarqr/internal/batch"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/wire"
)

// Client is a thin HTTP client for qrserve, used by the smoke tests, the
// stack benchmark and callers embedding the service. Control messages are
// JSON; a matrix is never: Submit sends an upload, and Job(id, true) asks for
// R, in the job frame (frame.go), Batch and the session calls in their own
// binary streams. Every call is one HTTP request, plus Retry429 retries.
type Client struct {
	Base string // e.g. "http://127.0.0.1:7311"
	HTTP *http.Client

	// Retry429 is the number of times a 429 response is retried before it
	// surfaces as an error. Zero (the default) disables retries, so 429s
	// stay observable — tests and admission-aware callers depend on that.
	Retry429 int
	// Backoff is the wait before a 429 retry when the server sent no
	// usable Retry-After header; zero defaults to one second. A Retry-After
	// header always wins over this fallback.
	Backoff time.Duration
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// retryWait returns how long to wait before retrying a 429: the server's
// Retry-After header when present and parseable, the configured fallback
// otherwise.
func (c *Client) retryWait(resp *http.Response) time.Duration {
	if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && sec >= 0 {
		return time.Duration(sec) * time.Second
	}
	if c.Backoff > 0 {
		return c.Backoff
	}
	return time.Second
}

// open is the one request loop: body, when not nil, returns a fresh request
// body of type ctype for each attempt, so a streamed body is rebuilt rather
// than replayed. A 429 is retried Retry429 times after retryWait; any other
// status of 400 and up comes back as the error the server's JSON names. It
// returns the final status and, when err is nil, the response, whose body
// the caller closes.
func (c *Client) open(method, path, ctype string, body func() io.Reader, accept string) (int, *http.Response, error) {
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = body()
		}
		req, err := http.NewRequest(method, c.Base+path, rd)
		if err != nil {
			return 0, nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", ctype)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := c.http().Do(req)
		if err != nil {
			return 0, nil, err
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < c.Retry429 {
			wait := c.retryWait(resp)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			time.Sleep(wait)
			continue
		}
		if resp.StatusCode < 400 {
			return resp.StatusCode, resp, nil
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var e errorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return resp.StatusCode, nil, fmt.Errorf("%s", e.Error)
		}
		return resp.StatusCode, nil, fmt.Errorf("http %d", resp.StatusCode)
	}
}

// do is open for a body already encoded (nil for none): it returns the
// status, the response's content type and its body.
func (c *Client) do(method, path, ctype string, body []byte, accept string) (int, string, []byte, error) {
	var mk func() io.Reader
	if body != nil {
		mk = func() io.Reader { return bytes.NewReader(body) }
	}
	code, resp, err := c.open(method, path, ctype, mk, accept)
	if err != nil {
		return code, "", nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return code, resp.Header.Get("Content-Type"), data, err
}

// call is do for the JSON endpoints: in, when not nil, is the request body
// and out, when not nil, receives the response.
func (c *Client) call(method, path string, in, out any) (int, error) {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return 0, err
		}
	}
	code, _, data, err := c.do(method, path, "application/json", body, "")
	if err == nil && out != nil {
		err = json.Unmarshal(data, out)
	}
	return code, err
}

// Submit posts a factorization; with wait true the call blocks until the
// job is terminal. A spec with Data goes as a job frame — the spec as the
// head, the matrix as bits after it — and a seeded one as JSON. A 429
// surfaces as an error with ErrQueueFull's message.
func (c *Client) Submit(spec JobSpec, wait bool) (JobView, int, error) {
	var v JobView
	if len(spec.Data) == 0 {
		code, err := c.call("POST", "/v1/factorize", submitRequest{JobSpec: spec, Wait: wait}, &v)
		return v, code, err
	}
	if spec.M < 1 || spec.N < 1 || len(spec.Data) != spec.M*spec.N {
		return v, 0, fmt.Errorf("service: data holds %d entries for a %dx%d matrix", len(spec.Data), spec.M, spec.N)
	}
	a := matrix.FromColMajor(spec.M, spec.N, spec.M, spec.Data)
	spec.Data = nil
	head, err := json.Marshal(submitRequest{JobSpec: spec, Wait: wait})
	if err != nil {
		return v, 0, err
	}
	code, _, data, err := c.do("POST", "/v1/factorize", jobFrameType, appendJobFrame(nil, head, a), "")
	if err == nil {
		err = json.Unmarshal(data, &v)
	}
	return v, code, err
}

// Job fetches a job's state; includeR adds the R factor to the view, which
// the server is asked to send as a job frame: JobView.R is filled from the
// frame's matrix.
func (c *Client) Job(id uint32, includeR bool) (JobView, error) {
	var v JobView
	path := fmt.Sprintf("/v1/jobs/%d", id)
	if !includeR {
		_, err := c.call("GET", path, nil, &v)
		return v, err
	}
	_, ctype, data, err := c.do("GET", path+"?include=r", "", nil, jobFrameType)
	if err != nil {
		return v, err
	}
	if ctype != jobFrameType {
		return v, fmt.Errorf("service: job %d came back as %q, not the %s asked for", id, ctype, jobFrameType)
	}
	r, err := readJobFrame(bytes.NewReader(data), func(head []byte, rows, cols int) error {
		if err := json.Unmarshal(head, &v); err != nil {
			return err
		}
		if (rows != 0 || cols != 0) && (rows != v.N || cols != v.N) {
			return fmt.Errorf("frame matrix is %dx%d, R of job %d is %dx%d", rows, cols, id, v.N, v.N)
		}
		return nil
	})
	if r != nil {
		v.R = rRows(r)
	}
	return v, err
}

// Cancel requests a job's cancellation.
func (c *Client) Cancel(id uint32) (JobView, error) {
	var v JobView
	_, err := c.call("DELETE", fmt.Sprintf("/v1/jobs/%d", id), nil, &v)
	return v, err
}

// Health checks /healthz.
func (c *Client) Health() error {
	var out struct {
		OK bool `json:"ok"`
	}
	if _, err := c.call("GET", "/healthz", nil, &out); err != nil {
		return err
	}
	if !out.OK {
		return fmt.Errorf("service unhealthy")
	}
	return nil
}

// Batch streams mats through POST /v1/batch and calls each for every R
// factor as it arrives — in completion order, not submission order; the
// result's Index says which input it answers. It returns the server's
// trailer, whose Done/Shed reconcile partial progress and whose checksum the
// reader has already verified against the received bytes. Every matrix must
// be m×n with m ≥ n ≥ 1 and m ≤ batch.MaxDim, and there may be at most
// batch.MaxCount of them; otherwise Batch returns an error and sends
// nothing. 429 responses are retried Retry429 times, honoring Retry-After.
func (c *Client) Batch(mats []*matrix.Mat, each func(res batch.Result) error) (batch.Trailer, error) {
	// Refused here, before any request opens: the encoder runs on the
	// request pipe's goroutine, where a bad shape has no one to return to.
	if len(mats) > batch.MaxCount {
		return batch.Trailer{}, fmt.Errorf("batch: %d matrices, limit %d", len(mats), batch.MaxCount)
	}
	for i, m := range mats {
		if err := batch.CheckShape(m.Rows, m.Cols); err != nil {
			return batch.Trailer{}, fmt.Errorf("batch: matrix %d is %w", i, err)
		}
	}
	_, resp, err := c.open("POST", "/v1/batch", "application/octet-stream", func() io.Reader {
		return batchBody(mats)
	}, "")
	if err != nil {
		return batch.Trailer{}, err
	}
	defer resp.Body.Close()
	rd, err := batch.NewResultReader(resp.Body)
	if err != nil {
		return batch.Trailer{}, err
	}
	for {
		res, tr, err := rd.Next()
		if err != nil {
			return batch.Trailer{}, err
		}
		if tr != nil {
			// The reader reads ahead through a buffer, so the body may not
			// have reached EOF yet: drain it, or closing it drops the
			// keep-alive connection.
			io.Copy(io.Discard, resp.Body)
			return *tr, nil
		}
		if each != nil {
			if err := each(*res); err != nil {
				return batch.Trailer{}, err
			}
		}
	}
}

// batchBody streams a batch request through a pipe in wire.SlabSize writes:
// 10k matrices never exist as one contiguous buffer on either side of the
// wire, and no write carries just one small matrix.
func batchBody(mats []*matrix.Mat) io.Reader {
	pr, pw := io.Pipe()
	go func() {
		if err := batch.WriteRequestHeader(pw, len(mats)); err != nil {
			pw.CloseWithError(err)
			return
		}
		var buf []byte
		for i, m := range mats {
			buf = batch.AppendMatrix(buf, m)
			if len(buf) < wire.SlabSize && i < len(mats)-1 {
				continue
			}
			if _, err := pw.Write(buf); err != nil {
				pw.CloseWithError(err)
				return
			}
			buf = buf[:0]
		}
		pw.Close()
	}()
	return pr
}

// Metrics fetches the raw Prometheus exposition text.
func (c *Client) Metrics() (string, error) {
	_, _, data, err := c.do("GET", "/metrics", "", nil, "")
	return string(data), err
}
