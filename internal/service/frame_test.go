package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/wire"
)

// The job frame is on the wire between clients and servers of different
// builds: the three files under testdata pin it byte for byte, in the style
// of internal/wire's goldens. They were written by appendJobFrame from the
// inputs below; the heads are literal so that a field added to a view cannot
// move them.

// appendJobFrame appends the frame of head and m (nil: the empty matrix),
// built whole: the encoder the goldens were written with, and the reference
// writeJobFrame's stream is held to byte for byte.
func appendJobFrame(dst, head []byte, m *matrix.Mat) []byte {
	if m == nil {
		m = &matrix.Mat{}
	}
	dst = binary.LittleEndian.AppendUint32(append(dst, jobFrameMagic[:]...), uint32(len(head)))
	dst = append(dst, head...)
	dst, sum := wire.AppendDimMat(dst, m)
	return wire.AppendTrailer(dst, min(m.Rows*m.Cols, 1), 0, sum)
}

// frameMat is a 3×2 matrix of bit patterns a float conversion could mangle —
// a NaN with a payload, −0, the smallest denormal — among ordinary values.
func frameMat() *matrix.Mat {
	m := matrix.New(3, 2)
	for i, bits := range []uint64{
		0x7ff80000deadbeef, 0x8000000000000000, 0x0000000000000001,
		math.Float64bits(1.5), math.Float64bits(-2.25), math.Float64bits(1e-300),
	} {
		m.Data[i] = math.Float64frombits(bits)
	}
	return m
}

func sameBits(t *testing.T, what string, got, want *matrix.Mat) {
	t.Helper()
	if got == nil || got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: decoded %v, want %dx%d", what, got, want.Rows, want.Cols)
	}
	for j := 0; j < want.Cols; j++ {
		for i := 0; i < want.Rows; i++ {
			if g, w := math.Float64bits(got.At(i, j)), math.Float64bits(want.At(i, j)); g != w {
				t.Fatalf("%s: element (%d,%d) is %016x, want %016x", what, i, j, g, w)
			}
		}
	}
}

func TestGoldenJobFrames(t *testing.T) {
	r := matrix.New(2, 2)
	r.Data[0], r.Data[2], r.Data[3] = -3, math.Float64frombits(0x8000000000000000), 0.5
	for _, tc := range []struct {
		file, head string
		m          *matrix.Mat
	}{
		{"qjf1_submit.golden", `{"m":3,"n":2,"nb":2,"wait":true}`, frameMat()},
		{"qjf1_r.golden", `{"id":7,"status":"done","m":3,"n":2,"ok":true}`, r},
		{"qjf1_r_pending.golden", `{"id":8,"status":"running","m":3,"n":2,"ok":false}`, nil},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJobFrame(nil, []byte(tc.head), tc.m); !bytes.Equal(got, want) {
			t.Errorf("%s: encoder wrote %d bytes that differ from the %d recorded", tc.file, len(got), len(want))
		}
		got, err := readJobFrame(bytes.NewReader(want), false, func(head []byte, rows, cols int) error {
			if string(head) != tc.head {
				t.Errorf("%s: head reads %q, want %q", tc.file, head, tc.head)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if tc.m == nil {
			if got != nil {
				t.Errorf("%s: an empty frame decoded a %dx%d matrix", tc.file, got.Rows, got.Cols)
			}
			continue
		}
		sameBits(t, tc.file, got, tc.m)
	}

	// The recorded bytes mean the same to the two real decoders: the server
	// reads the submit frame into a spec with its data, the client reads the R
	// frames into views.
	submit, _ := os.ReadFile(filepath.Join("testdata", "qjf1_submit.golden"))
	post := httptest.NewRequest("POST", "/v1/factorize", bytes.NewReader(submit))
	post.Header.Set("Content-Type", jobFrameType)
	req, err := decodeSubmit(httptest.NewRecorder(), post)
	if err != nil {
		t.Fatal(err)
	}
	if req.M != 3 || req.N != 2 || req.NB != 2 || !req.Wait {
		t.Errorf("submit frame decoded to %+v", req)
	}
	sameBits(t, "submit data", matrix.FromColMajor(3, 2, 3, req.Data), frameMat())

	for file, want := range map[string]JobView{
		"qjf1_r.golden":         {ID: 7, Status: "done", M: 3, N: 2, OK: true, R: rRows(r)},
		"qjf1_r_pending.golden": {ID: 8, Status: "running", M: 3, N: 2},
	} {
		frame, _ := os.ReadFile(filepath.Join("testdata", file))
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", jobFrameType)
			w.Write(frame)
		}))
		v, err := (&Client{Base: ts.URL}).Job(want.ID, true)
		ts.Close()
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if v.ID != want.ID || v.Status != want.Status || v.OK != want.OK || len(v.R) != len(want.R) {
			t.Errorf("%s: client read %+v, want %+v", file, v, want)
		}
		if want.R != nil {
			sameBits(t, file, rowsMat(t, v.R), r)
		}
	}
}

// hostileFrame is one POST /v1/factorize body of the frame content type that
// must be refused, and cheaply.
type hostileFrame struct {
	name string
	body []byte
	pad  int64 // zero bytes streamed after body
	code int
}

// hostileFrames is the table TestSubmitFrameHostile walks and FuzzJobFrame
// starts from.
func hostileFrames() []hostileFrame {
	good := appendJobFrame(nil, []byte(`{"m":3,"n":2,"nb":2}`), frameMat())
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	// declare is a frame up to its dims prefix: everything a sender can
	// claim without sending a matrix.
	declare := func(headLen int, head string, rows, cols uint32) []byte {
		b := append(append([]byte("QJF1"), u32(uint32(headLen))...), head...)
		return append(append(b, u32(rows)...), u32(cols)...)
	}
	at := func(b []byte, i int, x byte) []byte {
		b = bytes.Clone(b)
		b[i] ^= x
		return b
	}
	spec, over, largest, wide := `{"m":3,"n":2}`, `{"m":1048576,"n":1024}`, `{"m":16384,"n":256}`, `{"m":2,"n":3}`
	return []hostileFrame{
		{name: "head length 4 GiB", body: declare(math.MaxUint32, spec, 3, 2), code: 400},
		{name: "head over the head bound", body: declare(maxFrameHead+1, spec, 3, 2), code: 400},
		{name: "head longer than the body", body: declare(1000, spec, 3, 2), code: 400},
		{name: "head is not JSON", body: declare(3, "{m}", 3, 2), code: 400},
		{name: "bad magic", body: at(good, 0, 0x20), code: 400},
		{name: "dims differ from the spec", body: declare(len(spec), spec, 2, 3), code: 400},
		{name: "elements over the upload limit, nothing sent", body: declare(len(over), over, 1048576, 1024), code: 400},
		{name: "the largest upload declared, nothing sent", body: declare(len(largest), largest, 16384, 256), code: 400},
		{name: "wide matrix", body: declare(len(wide), wide, 2, 3), code: 400},
		{name: "one element short", body: append(bytes.Clone(good[:len(good)-24]), good[len(good)-16:]...), code: 400},
		{name: "one checksum bit flipped", body: at(good, len(good)-1, 1), code: 400},
		{name: "one payload bit flipped", body: at(good, len(good)-17, 0x80), code: 400},
		{name: "trailer counts no matrix", body: at(good, len(good)-16, 1), code: 400},
		{name: "trailer sheds a matrix", body: at(good, len(good)-12, 1), code: 400},
		{name: "trailing garbage", body: append(bytes.Clone(good), 0), code: 400},
		{name: "data in the head and a matrix", body: appendJobFrame(nil, []byte(`{"m":3,"n":2,"data":[1,2,3,4,5,6]}`), frameMat()), code: 400},
		{name: "body over the byte bound", body: good, pad: maxFrameBytes, code: 413},
	}
}

type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// Every hostile frame is refused with the right status, admits nothing, and
// costs the server no allocation sized from what the frame declares: the
// whole request is handled inside a fixed budget however large the declared
// head or matrix. The table runs twice: on a cold pool, and after good
// uploads of the shapes it declares have left warm storage that a refused
// decode may take and must give back.
func TestSubmitFrameHostile(t *testing.T) {
	s, err := NewServer(Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	const budget = 512 << 10 // request, recorder, JSON error, one read chunk and its floats
	refuse := func(pool string) {
		for _, tc := range hostileFrames() {
			req := httptest.NewRequest("POST", "/v1/factorize", io.MultiReader(bytes.NewReader(tc.body), io.LimitReader(zeros{}, tc.pad)))
			req.Header.Set("Content-Type", jobFrameType)
			rec := httptest.NewRecorder()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			h.ServeHTTP(rec, req)
			runtime.ReadMemStats(&after)
			var e errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Errorf("%s, %s pool: status %d with no JSON error: %q", tc.name, pool, rec.Code, rec.Body)
			}
			if rec.Code != tc.code {
				t.Errorf("%s, %s pool: status %d (%s), want %d", tc.name, pool, rec.Code, e.Error, tc.code)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > budget {
				t.Errorf("%s, %s pool: refusing a %d-byte body allocated %d bytes, budget %d", tc.name, pool, len(tc.body), got, budget)
			}
		}
	}
	refuse("cold")
	if got := s.Metrics().Accepted.Load(); got != 0 {
		t.Errorf("%d jobs admitted from hostile frames", got)
	}

	// The frame the table's rows are damaged copies of is one the server
	// admits.
	good := httptest.NewRequest("POST", "/v1/factorize",
		bytes.NewReader(appendJobFrame(nil, []byte(`{"m":3,"n":2,"nb":2,"wait":true}`), frameMat())))
	good.Header.Set("Content-Type", jobFrameType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, good)
	var v JobView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil || rec.Code != http.StatusOK || v.Status != string(StateDone) {
		t.Fatalf("well-formed frame: status %d, body %q", rec.Code, rec.Body)
	}
	// A NaN is bits like any other to the decoder; it is the residual check
	// that says the job is not OK.
	if v.OK {
		t.Errorf("a job over a NaN input read ok: %+v", v)
	}

	// That upload left its 3×2 storage warm; one of the largest shape the
	// table declares does the same for that shape.
	postFrame(t, s, h, uploadFrame(t, JobSpec{M: 16384, N: 256}, matrix.NewSeeded(16384, 256, 3)))
	admitted := s.Metrics().Accepted.Load()
	refuse("warm")
	if got := s.Metrics().Accepted.Load() - admitted; got != 0 {
		t.Errorf("%d jobs admitted from hostile frames on a warm pool", got)
	}
}

// FuzzJobFrame feeds POST /v1/factorize frame bodies through the handler's
// decode. Nothing may panic, and what decodes must be what the frame format
// promises: a spec whose shape passed the upload bound before the matrix was
// sized, with exactly m·n entries of data, which re-encodes behind the same
// head to the bytes that came in.
func FuzzJobFrame(f *testing.F) {
	for _, tc := range hostileFrames() {
		f.Add(tc.body)
	}
	f.Add(appendJobFrame(nil, []byte(`{"m":3,"n":2,"nb":2,"wait":true}`), frameMat()))
	f.Add(appendJobFrame(nil, []byte(`{"m":1,"n":1,"tenant":"t"}`), matrix.Identity(1)))
	f.Fuzz(func(t *testing.T, body []byte) {
		post := httptest.NewRequest("POST", "/v1/factorize", bytes.NewReader(body))
		post.Header.Set("Content-Type", jobFrameType)
		req, err := decodeSubmit(httptest.NewRecorder(), post)
		if err != nil {
			return
		}
		if req.M < req.N || req.N < 1 || req.M > maxUploadElems/req.N || len(req.Data) != req.M*req.N {
			t.Fatalf("decoded a %dx%d spec with %d entries of data", req.M, req.N, len(req.Data))
		}
		n := int(binary.LittleEndian.Uint32(body[4:]))
		again := appendJobFrame(nil, body[8:8+n], matrix.FromColMajor(req.M, req.N, req.M, req.Data))
		if !bytes.Equal(again, body) {
			t.Fatalf("a decoded %dx%d frame re-encodes to different bytes", req.M, req.N)
		}
	})
}

// Both sides stream a frame (writeJobFrame; the client's through
// jobFrameBody) that must be, byte for byte, the frame appendJobFrame builds
// whole: none, empty, one element, the 3×2 of awkward bit patterns, a
// strided view (LD > rows), and a matrix whose payload spans several
// wire.SlabSize writes and ends in a ragged one.
func TestJobFrameBodyIsAppendJobFrame(t *testing.T) {
	head := []byte(`{"m":3,"n":2,"nb":2,"wait":true}`)
	for _, tc := range []struct {
		name string
		m    *matrix.Mat
	}{
		{"none", nil},
		{"0x0", &matrix.Mat{}},
		{"1x1", matrix.Identity(1)},
		{"3x2", frameMat()},
		{"strided view", matrix.NewSeeded(7, 3, 1).View(2, 1, 4, 2)},
		{"several slabs", matrix.NewSeeded(1000, 50, 2)}, // 400,000 payload bytes
	} {
		got, err := io.ReadAll(jobFrameBody(head, tc.m))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := appendJobFrame(nil, head, tc.m); !bytes.Equal(got, want) {
			t.Errorf("%s: streamed %d bytes that differ from appendJobFrame's %d", tc.name, len(got), len(want))
		}
	}
}

// Client.Job decodes R straight off the response, so what a server sends is
// believed only as far as readJobFrame and the view's own shape allow: a
// body of the wrong type, a frame whose checksum, length, dims or end is
// wrong, and a head that declares a job too wide to have an R are each an
// error, never a panic. The well-formed frame they are damaged copies of
// decodes to its R.
func TestClientJobRefusesHostileRFrames(t *testing.T) {
	head := []byte(`{"id":7,"status":"done","m":3,"n":2,"ok":true}`)
	r := matrix.New(2, 2)
	r.Data[0], r.Data[2], r.Data[3] = -3, math.Float64frombits(0x8000000000000000), 0.5
	good := appendJobFrame(nil, head, r)
	flip := func(b []byte, i int) []byte {
		b = bytes.Clone(b)
		b[i] ^= 1
		return b
	}
	wide := []byte(`{"id":7,"status":"done","m":4294967295,"n":4294967295}`)
	huge := append(binary.LittleEndian.AppendUint32([]byte("QJF1"), uint32(len(wide))), wide...)
	huge = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(huge, math.MaxUint32), math.MaxUint32)
	for _, tc := range []struct {
		name, ctype string
		body        []byte
		ok          bool
	}{
		{"well formed", jobFrameType, good, true},
		{"JSON, not a frame", "application/json", head, false},
		{"checksum bit flipped", jobFrameType, flip(good, len(good)-1), false},
		{"payload cut short", jobFrameType, good[:len(good)-20], false},
		{"R not n×n", jobFrameType, appendJobFrame(nil, head, frameMat()), false},
		{"bytes after the trailer", jobFrameType, append(bytes.Clone(good), 0), false},
		{"a 2³²−1-square R declared", jobFrameType, huge, false},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", tc.ctype)
			w.Write(tc.body)
		}))
		v, err := (&Client{Base: ts.URL}).Job(7, true)
		ts.Close()
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.ok:
			sameBits(t, tc.name, rowsMat(t, v.R), r.UpperTriangle())
		case err == nil:
			t.Errorf("%s: accepted, view %+v", tc.name, v)
		}
	}
}

// A Submit whose first attempt is refused with a 429 before the server has
// read its upload, and retried, leaves no goroutine streaming a frame
// behind: the 2 MiB upload is more than the connection buffers, so the
// first attempt's writer is blocked mid-frame when the refusal comes.
func TestSubmitRetriedAfter429LeavesNoGoroutine(t *testing.T) {
	s, err := NewServer(Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	var attempts atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 1 {
			writeJSON(w, http.StatusTooManyRequests, errorResponse{ErrQueueFull.Error()})
			return
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	const m, n = 2048, 128
	spec := JobSpec{M: m, N: n, Data: matrix.NewSeeded(m, n, 9).Data}
	v, code, err := (&Client{Base: ts.URL, Retry429: 1, Backoff: time.Millisecond}).Submit(spec, true)
	if err != nil || code != http.StatusOK || !v.OK || attempts.Load() != 2 {
		t.Fatalf("submit after one 429: code %d, err %v, %d attempts, view %+v", code, err, attempts.Load(), v)
	}
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		stacks := buf[:runtime.Stack(buf, true)]
		if !bytes.Contains(stacks, []byte("jobFrameBody")) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("a frame-streaming goroutine outlived Submit:\n%s", stacks)
		}
	}
}
