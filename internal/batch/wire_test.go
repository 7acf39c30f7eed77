package batch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"

	"pulsarqr/internal/matrix"
)

// encodeRequest builds a full request body for the given matrices.
func encodeRequest(t *testing.T, mats []*matrix.Mat) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteRequestHeader(&buf, len(mats)); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	for _, m := range mats {
		b = AppendMatrix(b, m)
	}
	return b
}

// Request encoding round-trips through the streaming reader bit-exactly.
func TestRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mats := []*matrix.Mat{
		matrix.NewRand(1, 1, rng),
		matrix.NewRand(8, 4, rng),
		matrix.NewRand(32, 32, rng),
		matrix.NewRand(MaxDim, 7, rng),
	}
	rr, err := NewRequestReader(bytes.NewReader(encodeRequest(t, mats)))
	if err != nil {
		t.Fatal(err)
	}
	if rr.Count() != len(mats) {
		t.Fatalf("Count = %d, want %d", rr.Count(), len(mats))
	}
	for i, want := range mats {
		got, err := rr.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("matrix %d decoded as %dx%d, want %dx%d", i, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		if d := matrix.MaxAbsDiff(got, want); d != 0 {
			t.Fatalf("matrix %d differs by %g after round trip", i, d)
		}
	}
	if _, err := rr.Next(); err != io.EOF {
		t.Fatalf("Next past end: %v, want io.EOF", err)
	}
}

// Next decodes into the newest recycled matrix when its storage fits,
// reshaped compact to the new dimensions, and allocates afresh when it does
// not — dropping the misfit.
func TestRequestReaderRecycles(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	mats := []*matrix.Mat{
		matrix.NewRand(40, 20, rng),
		matrix.NewRand(13, 13, rng),
		matrix.NewRand(32, 32, rng),
		matrix.NewRand(8, 8, rng),
	}
	rr, err := NewRequestReader(bytes.NewReader(encodeRequest(t, mats)))
	if err != nil {
		t.Fatal(err)
	}
	prev, err := rr.Next()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range mats[1:] {
		rr.Recycle(prev)
		fits := cap(prev.Data) >= want.Rows*want.Cols
		got, err := rr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if (got == prev) != fits {
			t.Fatalf("matrix %d: reused %v, storage fits %v", i+1, got == prev, fits)
		}
		if got.LD != want.Rows || len(got.Data) != want.Rows*want.Cols || matrix.MaxAbsDiff(got, want) != 0 {
			t.Fatalf("matrix %d: decoded %dx%d LD %d len %d, not the %dx%d sent",
				i+1, got.Rows, got.Cols, got.LD, len(got.Data), want.Rows, want.Cols)
		}
		prev = got
	}
}

// Response encoding round-trips, out of order, with the checksum verified
// by the reader.
func TestResultRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var buf bytes.Buffer
	rw, err := NewResultWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rs := map[int]*matrix.Mat{
		2: matrix.NewRand(4, 4, rng),
		0: matrix.NewRand(16, 16, rng),
		1: matrix.NewRand(3, 3, rng),
	}
	for _, idx := range []int{2, 0, 1} { // completion order ≠ request order
		if err := rw.WriteResult(idx, rs[idx]); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.WriteTrailer(5); err != nil {
		t.Fatal(err)
	}

	rd, err := NewResultReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for {
		res, tr, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tr != nil {
			if tr.Done != 3 || tr.Shed != 5 {
				t.Fatalf("trailer done=%d shed=%d, want 3/5", tr.Done, tr.Shed)
			}
			break
		}
		want := rs[res.Index]
		if want == nil {
			t.Fatalf("unexpected result index %d", res.Index)
		}
		if d := matrix.MaxAbsDiff(res.R, want); d != 0 {
			t.Fatalf("result %d differs by %g", res.Index, d)
		}
		seen++
	}
	if seen != 3 {
		t.Fatalf("saw %d results, want 3", seen)
	}
}

// A corrupted payload bit flips the checksum and the reader reports it.
func TestResultChecksumMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var buf bytes.Buffer
	rw, _ := NewResultWriter(&buf)
	rw.WriteResult(0, matrix.NewRand(4, 4, rng))
	rw.WriteTrailer(0)
	b := buf.Bytes()
	b[len(b)-20] ^= 1 // flip a payload bit (frame body, before the trailer)

	rd, err := NewResultReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, tr, err := rd.Next()
		if err != nil {
			return // mismatch detected — pass
		}
		if tr != nil {
			t.Fatal("corrupted stream passed checksum verification")
		}
	}
}

// Hostile prefixes: a huge declared count or oversized dimensions must be
// rejected on the spot, never trusted with an allocation.
func TestRequestHostilePrefixes(t *testing.T) {
	huge := []byte{'Q', 'B', 'R', '1', 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := NewRequestReader(bytes.NewReader(huge)); err == nil {
		t.Error("count 0xFFFFFFFF accepted")
	}

	var buf bytes.Buffer
	WriteRequestHeader(&buf, 1)
	b := buf.Bytes()
	b = binary.LittleEndian.AppendUint16(b, 0xFFFF) // m = 65535 > MaxDim
	b = binary.LittleEndian.AppendUint16(b, 4)
	rr, err := NewRequestReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rr.Next(); err == nil {
		t.Error("65535-row matrix accepted")
	}

	if _, err := NewRequestReader(bytes.NewReader([]byte("NOPE0000"))); !errors.Is(err, ErrBadMagic) {
		t.Errorf("wrong magic: %v, want ErrBadMagic", err)
	}
}

// Truncation anywhere mid-stream surfaces as io.ErrUnexpectedEOF, never a
// silent short read.
func TestRequestTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	full := encodeRequest(t, []*matrix.Mat{matrix.NewRand(8, 8, rng), matrix.NewRand(8, 8, rng)})
	for _, cut := range []int{9, 12, 40, len(full) - 1} {
		rr, err := NewRequestReader(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut %d: header: %v", cut, err)
		}
		var lastErr error
		for {
			_, err := rr.Next()
			if err != nil {
				lastErr = err
				break
			}
		}
		if !errors.Is(lastErr, io.ErrUnexpectedEOF) {
			t.Errorf("cut at %d: %v, want io.ErrUnexpectedEOF", cut, lastErr)
		}
	}
}

// FuzzRequestReader feeds arbitrary bytes to the request decoder: it must
// never panic and never allocate beyond the per-matrix bound no matter what
// the length prefixes claim. Valid streams must decode to matrices the
// factorization path accepts, recycled storage or not.
func FuzzRequestReader(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	var seedBuf bytes.Buffer
	WriteRequestHeader(&seedBuf, 2)
	seed := AppendMatrix(AppendMatrix(seedBuf.Bytes(), matrix.NewRand(4, 2, rng)), matrix.NewRand(1, 1, rng))
	f.Add(seed)
	f.Add(seed[:9])                                       // truncated mid-dims
	f.Add([]byte("QBR1\xff\xff\xff\xff"))                 // hostile count
	f.Add([]byte("QBR1\x01\x00\x00\x00\xff\xff\xff\xff")) // hostile dims
	f.Add([]byte("QBS1\x00\x00\x00\x00"))                 // wrong magic
	f.Add([]byte{})                                       // empty

	f.Fuzz(func(t *testing.T, data []byte) {
		rr, err := NewRequestReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i <= rr.Count(); i++ {
			a, err := rr.Next()
			if err != nil {
				return
			}
			if a.Rows < a.Cols || a.Cols < 1 || a.Rows > MaxDim || a.LD != a.Rows || len(a.Data) < a.Rows*a.Cols {
				t.Fatalf("decoder emitted invalid %dx%d matrix (LD %d, %d elements)", a.Rows, a.Cols, a.LD, len(a.Data))
			}
			rr.Recycle(a) // the next matrix may decode into this one's storage
		}
	})
}

// FuzzResultReader: the client-side decoder survives arbitrary response
// bytes the same way.
func FuzzResultReader(f *testing.F) {
	rng := rand.New(rand.NewSource(6))
	var buf bytes.Buffer
	rw, _ := NewResultWriter(&buf)
	rw.WriteResult(0, matrix.NewRand(3, 3, rng))
	rw.WriteTrailer(1)
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:7])
	f.Add([]byte("QBS1\xfe\xff\xff\xff\xff\xff\xff\xff"))

	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := NewResultReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < MaxCount; i++ {
			_, tr, err := rd.Next()
			if err != nil || tr != nil {
				return
			}
		}
	})
}
