package session

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"pulsarqr/internal/matrix"
)

func TestAppendWireRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, nrhs := range []int{0, 3} {
		n := 7
		var body bytes.Buffer
		type frame struct{ block, rhs *matrix.Mat }
		var want []frame
		count := 5
		if err := WriteAppendHeader(&body, count); err != nil {
			t.Fatal(err)
		}
		var enc []byte
		for i := 0; i < count; i++ {
			m := 1 + rng.Intn(20)
			f := frame{block: matrix.NewRand(m, n, rng)}
			if nrhs > 0 {
				f.rhs = matrix.NewRand(m, nrhs, rng)
			}
			want = append(want, f)
			enc = AppendBlock(enc[:0], f.block, f.rhs)
			body.Write(enc)
		}
		ar, err := NewAppendReader(&body, n, nrhs)
		if err != nil {
			t.Fatal(err)
		}
		if ar.Count() != count {
			t.Fatalf("count %d", ar.Count())
		}
		for i, f := range want {
			block, rhs, err := ar.Next()
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if matrix.MaxAbsDiff(block, f.block) != 0 {
				t.Fatalf("frame %d: block not bitwise equal", i)
			}
			if nrhs > 0 && matrix.MaxAbsDiff(rhs, f.rhs) != 0 {
				t.Fatalf("frame %d: rhs not bitwise equal", i)
			}
			if nrhs == 0 && rhs != nil {
				t.Fatalf("frame %d: unexpected rhs", i)
			}
		}
		if _, _, err := ar.Next(); err != io.EOF {
			t.Fatalf("after count: %v", err)
		}
	}
}

func TestAppendWireHostile(t *testing.T) {
	// Declared row count beyond the bound must be rejected before any
	// allocation.
	var body bytes.Buffer
	if err := WriteAppendHeader(&body, 1); err != nil {
		t.Fatal(err)
	}
	body.Write([]byte{0xff, 0xff, 0xff, 0xff})
	ar, err := NewAppendReader(&body, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ar.Next(); err == nil {
		t.Fatal("hostile row count parsed")
	}
	// Truncated payload surfaces as unexpected EOF.
	body.Reset()
	WriteAppendHeader(&body, 1)
	body.Write([]byte{2, 0, 0, 0, 1, 2, 3})
	ar, _ = NewAppendReader(&body, 8, 0)
	if _, _, err := ar.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncation error = %v", err)
	}
	// Bad magic.
	if _, err := NewAppendReader(bytes.NewReader([]byte("NOPE0000")), 8, 0); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("magic error = %v", err)
	}
}

func TestReplyWireRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 6
	var body bytes.Buffer
	rw, err := NewReplyWriter(&body)
	if err != nil {
		t.Fatal(err)
	}
	var rs []*matrix.Mat
	for i := 0; i < 4; i++ {
		var r *matrix.Mat
		if i != 2 { // frame 2 is an ack-only update
			r = matrix.NewRand(n, n, rng)
		}
		rs = append(rs, r)
		if err := rw.WriteUpdate(int64(i+1), int64(10*(i+1)), r); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.WriteTrailer(3); err != nil {
		t.Fatal(err)
	}
	rr, err := NewReplyReader(&body, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range rs {
		up, tr, err := rr.Next()
		if err != nil || tr != nil {
			t.Fatalf("frame %d: up=%v tr=%v err=%v", i, up, tr, err)
		}
		if up.Blocks != int64(i+1) || up.Rows != int64(10*(i+1)) {
			t.Fatalf("frame %d: totals %d/%d", i, up.Blocks, up.Rows)
		}
		if (up.R == nil) != (want == nil) {
			t.Fatalf("frame %d: R presence", i)
		}
		if want != nil && matrix.MaxAbsDiff(up.R, want) != 0 {
			t.Fatalf("frame %d: R not bitwise equal", i)
		}
	}
	up, tr, err := rr.Next()
	if err != nil || up != nil || tr == nil {
		t.Fatalf("trailer: up=%v tr=%v err=%v", up, tr, err)
	}
	if tr.Done != 4 || tr.Shed != 3 {
		t.Fatalf("trailer %+v", tr)
	}
}

func TestReplyWireChecksumMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 5
	var body bytes.Buffer
	rw, _ := NewReplyWriter(&body)
	rw.WriteUpdate(1, 5, matrix.NewRand(n, n, rng))
	rw.WriteTrailer(0)
	b := body.Bytes()
	b[30] ^= 0x10 // flip a payload bit
	rr, _ := NewReplyReader(bytes.NewReader(b), n)
	for {
		_, tr, err := rr.Next()
		if err != nil {
			return // checksum (or structure) rejected the stream, as required
		}
		if tr != nil {
			t.Fatal("corrupted reply stream verified")
		}
	}
}

// writeCounter counts the Write calls behind a buffer.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes++
	return c.Buffer.Write(p)
}

// Appends are interactive: each update goes out in exactly one Write of
// its own — small, ack-only or larger than a slab — never held back to
// fill one.
func TestReplyWriterWritesEachUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var out writeCounter
	rw, err := NewReplyWriter(&out)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range []*matrix.Mat{matrix.NewRand(4, 4, rng), nil, matrix.NewRand(128, 128, rng)} {
		before := out.writes
		if err := rw.WriteUpdate(int64(i+1), int64(i+1), r); err != nil {
			t.Fatal(err)
		}
		if got := out.writes - before; got != 1 {
			t.Fatalf("update %d took %d writes, want 1", i, got)
		}
	}
}
