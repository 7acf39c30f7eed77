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

// One Writer frame is the caller's header then the payload in a single
// Write; the trailer it ends with is the one ReadTrailer verifies against
// what a reader counted; and a frame costs no allocation once the buffer has
// grown to the largest frame (4,000 frames per batch op go through here).
func TestWriterFramesAndTrailer(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := matrix.NewRand(5, 5, rng)
	var out bytes.Buffer
	w := Writer{W: &out}
	var sum uint64
	for i := 0; i < 3; i++ {
		at := out.Len()
		if err := w.WriteFrame(append(w.Frame(), 'h', byte(i)), r); err != nil {
			t.Fatal(err)
		}
		want, s := AppendMat([]byte{'h', byte(i)}, r)
		sum ^= s
		if !bytes.Equal(out.Bytes()[at:], want) {
			t.Fatalf("frame %d is not header+payload", i)
		}
	}
	if err := w.WriteFrame(append(w.Frame(), 'a'), nil); err != nil || w.Done() != 4 {
		t.Fatalf("payload-less frame: err %v, done %d", err, w.Done())
	}
	at := out.Len()
	if err := w.WriteTrailer(append(w.Frame(), 0xFF), 2); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrailer(bytes.NewReader(out.Bytes()[at+1:]), 4, sum)
	if err != nil || tr.Shed != 2 || out.Bytes()[at] != 0xFF {
		t.Fatalf("trailer %+v, err %v", tr, err)
	}

	w = Writer{W: io.Discard}
	frame := func() { w.WriteFrame(append(w.Frame(), 1, 2, 3, 4), r) }
	frame()
	if n := testing.AllocsPerRun(100, frame); n != 0 {
		t.Fatalf("%v allocations per frame, want 0", n)
	}
}
