package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"

	"pulsarqr/internal/matrix"
)

// The checksum an encoder returns is the one a decoder of the same bytes
// returns, and both are the XOR of the element bits — for a compact matrix,
// a view, and through every entry point.
func TestChecksumsAgreeAcrossForms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	big := matrix.NewRand(9, 7, rng)
	for _, m := range []*matrix.Mat{big, big.View(2, 1, 5, 4), big.View(0, 0, 1, 7), matrix.New(0, 3), matrix.New(3, 0)} {
		var want uint64
		for j := 0; j < m.Cols; j++ {
			for i := 0; i < m.Rows; i++ {
				want ^= math.Float64bits(m.At(i, j))
			}
		}
		payload, sum := AppendMat([]byte("prefix"), m)
		if sum != want || len(payload) != 6+8*m.Rows*m.Cols {
			t.Fatalf("%dx%d: AppendMat sum %016x (want %016x), %d bytes", m.Rows, m.Cols, sum, want, len(payload))
		}
		r := Reader{R: bytes.NewReader(payload[6:])}
		got, sum, err := r.ReadMat(m.Rows, m.Cols)
		if err != nil || sum != want || matrix.MaxAbsDiff(got, m) != 0 {
			t.Fatalf("%dx%d: ReadMat sum %016x (want %016x), err %v", m.Rows, m.Cols, sum, want, err)
		}
		dimmed, sum := AppendDimMat(nil, m)
		if sum != want || !bytes.Equal(dimmed[8:], payload[6:]) {
			t.Fatalf("%dx%d: AppendDimMat sum %016x, or a payload unlike AppendMat's", m.Rows, m.Cols, sum)
		}
		r = Reader{R: bytes.NewReader(dimmed)}
		if got, sum, err = r.ReadDimMat(m.Rows, m.Cols); err != nil || sum != want || matrix.MaxAbsDiff(got, m) != 0 {
			t.Fatalf("%dx%d: ReadDimMat sum %016x (want %016x), err %v", m.Rows, m.Cols, sum, want, err)
		}
	}
}

// ReadDimMat checks the prefix against the caller's shape and reads nothing
// further when they differ; a stream that runs dry is a truncation, never a
// clean EOF.
func TestReaderRefusals(t *testing.T) {
	enc, _ := AppendDimMat(nil, matrix.Identity(3))
	src := bytes.NewReader(enc)
	r := Reader{R: src}
	if _, _, err := r.ReadDimMat(3, 4); err == nil || src.Len() != len(enc)-8 {
		t.Fatalf("3x3 read as 3x4: err %v with %d of %d bytes left", err, src.Len(), len(enc))
	}
	for cut := 0; cut < len(enc); cut += 7 {
		r = Reader{R: bytes.NewReader(enc[:cut])}
		if _, _, err := r.ReadDimMat(3, 3); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	trailer := AppendTrailer(nil, 3, 1, 0xfeed)
	if tr, err := ReadTrailer(bytes.NewReader(trailer), 3, 0xfeed); err != nil || *tr != (Trailer{Done: 3, Shed: 1, Sum: 0xfeed}) {
		t.Fatalf("trailer %+v, err %v", tr, err)
	}
	if _, err := ReadTrailer(bytes.NewReader(trailer), 2, 0xfeed); err == nil {
		t.Fatal("a trailer declaring 3 frames verified against 2 received")
	}
	if _, err := ReadTrailer(bytes.NewReader(trailer), 3, 0xfeee); err == nil {
		t.Fatal("a trailer verified against a different checksum")
	}
	if _, err := ReadTrailer(bytes.NewReader(trailer[:15]), 3, 0xfeed); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated trailer: %v", err)
	}
}

// countingWriter counts the Write calls behind a buffer.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.Buffer.Write(p)
}

// Writer frames coalesce: the stream is byte for byte the caller's headers
// each followed by AppendMat's payload, written in SlabSize slabs — at most
// ⌈bytes/SlabSize⌉+1 Writes, none for an empty Flush — and it ends with the
// trailer ReadTrailer verifies against what a reader counted. A frame costs
// no allocation once the buffer has grown (4,000 frames per batch op go
// through here).
func TestWriterFramesAndTrailer(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	small, big := matrix.NewRand(32, 32, rng), matrix.NewRand(256, 256, rng)
	var out countingWriter
	w := Writer{W: &out}
	if err := w.Flush(); err != nil || out.writes != 0 {
		t.Fatalf("Flush of nothing: err %v, %d writes", err, out.writes)
	}
	var want []byte
	var sum uint64
	for i := 0; i < 40; i++ {
		r := small
		if i == 17 {
			r = big // one frame larger than a slab
		}
		if err := w.WriteFrame(append(w.Frame(), 'h', byte(i)), r); err != nil {
			t.Fatal(err)
		}
		var s uint64
		want, s = AppendMat(append(want, 'h', byte(i)), r)
		sum ^= s
	}
	if err := w.WriteFrame(append(w.Frame(), 'a'), nil); err != nil || w.Done() != 41 {
		t.Fatalf("payload-less frame: err %v, done %d", err, w.Done())
	}
	want = append(want, 'a')
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	writes := out.writes
	if err := w.Flush(); err != nil || out.writes != writes {
		t.Fatalf("Flush of nothing after a flush: err %v, %d writes, want %d", err, out.writes, writes)
	}
	if err := w.WriteTrailer(append(w.Frame(), 0xFF), 2); err != nil {
		t.Fatal(err)
	}
	got := out.Bytes()
	if len(got) != len(want)+1+16 || !bytes.Equal(got[:len(want)], want) || got[len(want)] != 0xFF {
		t.Fatalf("stream of %d bytes is not the frames (%d bytes), the mark and a trailer", len(got), len(want))
	}
	if limit := (len(got)+SlabSize-1)/SlabSize + 1; out.writes > limit {
		t.Fatalf("%d bytes took %d writes, want at most %d", len(got), out.writes, limit)
	}
	tr, err := ReadTrailer(bytes.NewReader(got[len(want)+1:]), 41, sum)
	if err != nil || tr.Shed != 2 {
		t.Fatalf("trailer %+v, err %v", tr, err)
	}

	w = Writer{W: io.Discard}
	frame := func() { w.WriteFrame(append(w.Frame(), 1, 2, 3, 4), small) }
	for range 2 * SlabSize / (8 * 32 * 32) {
		frame() // grow the buffer to a slab plus a frame
	}
	if n := testing.AllocsPerRun(100, frame); n != 0 {
		t.Fatalf("%v allocations per frame, want 0", n)
	}
}
