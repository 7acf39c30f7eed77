// Package wire is the one codec for float64 matrices that leave a process:
// inter-node packets (pulsar, qr), the batch and session HTTP streams and
// the session checkpoint files all carry the same payload — column-major
// IEEE-754 bit patterns, little-endian — and, where they are streams, the
// same magic+count header and done/shed/checksum trailer. Callers keep
// their own frame headers and their own bounds: nothing here sizes anything
// from a stream's word, so the hostile-prefix defence stays with the code
// that knows the limit. Every encoder and decoder returns the XOR of the
// Float64bits it moved — the checksum trailers and checkpoints carry, free
// when folded into the loop that touches each element anyway.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"pulsarqr/internal/matrix"
)

// ErrBadMagic reports a stream that does not start with the expected magic.
var ErrBadMagic = errors.New("wire: bad stream magic")

// NoEOF turns a bare io.EOF into io.ErrUnexpectedEOF: inside a declared
// stream, running out of bytes is always a truncation.
func NoEOF(err error) error {
	if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// AppendFloats appends the bit patterns of f to dst and returns the extended
// slice and the XOR of the bits written. dst grows at most once. (An indexed
// PutUint64 into a pre-sized tail measured 3× slower than this append.)
func AppendFloats(dst []byte, f []float64) ([]byte, uint64) {
	dst = slices.Grow(dst, 8*len(f))
	var sum uint64
	for _, v := range f {
		bits := math.Float64bits(v)
		sum ^= bits
		dst = binary.LittleEndian.AppendUint64(dst, bits)
	}
	return dst, sum
}

// Floats fills dst from the first 8·len(dst) bytes of b and returns the XOR
// of the bits read.
func Floats(dst []float64, b []byte) uint64 {
	b = b[:8*len(dst)]
	var sum uint64
	for i := range dst {
		bits := binary.LittleEndian.Uint64(b[8*i:])
		sum ^= bits
		dst[i] = math.Float64frombits(bits)
	}
	return sum
}

// AppendMat appends m's payload, compacting a view (LD > Rows) column by
// column, and returns the XOR of the bits written.
func AppendMat(dst []byte, m *matrix.Mat) ([]byte, uint64) {
	if m.LD == m.Rows {
		return AppendFloats(dst, m.Data[:m.Rows*m.Cols])
	}
	dst = slices.Grow(dst, 8*m.Rows*m.Cols)
	var sum, s uint64
	for j := 0; j < m.Cols; j++ {
		dst, s = AppendFloats(dst, m.Col(j))
		sum ^= s
	}
	return dst, sum
}

// AppendDimMat appends the dims-prefixed form — [u32 rows][u32 cols] then
// the payload — in which packets, checkpoint spines and sketches carry a
// matrix whose shape the receiver does not know beforehand.
func AppendDimMat(dst []byte, m *matrix.Mat) ([]byte, uint64) {
	dst = slices.Grow(dst, 8+8*m.Rows*m.Cols)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Rows))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Cols))
	return AppendMat(dst, m)
}

// ConsumeDimMat decodes one dims-prefixed matrix from the front of b and
// returns it with the bytes that follow, so packets holding several chain
// without slicing out each part first. A nil m decodes into fresh storage:
// the dimensions are the sender's, and believed only as far as b is long,
// before anything is allocated. A non-nil m is storage the caller already
// holds (a landing), and the matrix must have its shape.
func ConsumeDimMat(m *matrix.Mat, b []byte) (*matrix.Mat, []byte, error) {
	rows, cols, err := dims(b)
	switch {
	case err != nil:
		return nil, nil, err
	case m == nil:
		m = matrix.New(rows, cols)
	case rows != m.Rows || cols != m.Cols:
		return nil, nil, fmt.Errorf("wire: a %dx%d matrix where a %dx%d one belongs", rows, cols, m.Rows, m.Cols)
	}
	for j := 0; j < cols; j++ {
		Floats(m.Col(j), b[8+8*rows*j:])
	}
	return m, b[8+8*rows*cols:], nil
}

// dims reads the dimensions a dims-prefixed matrix at the front of b
// declares, believed only as far as b is long.
func dims(b []byte) (rows, cols int, err error) {
	if len(b) < 8 {
		return 0, 0, fmt.Errorf("wire: matrix needs an 8-byte header, have %d bytes", len(b))
	}
	rows = int(binary.LittleEndian.Uint32(b[0:]))
	cols = int(binary.LittleEndian.Uint32(b[4:]))
	// Divide, never multiply: a hostile pair cannot wrap. An empty matrix has
	// no payload to hold its other dimension to (and matrix.New gives a rowless
	// one a float per column), so no dimension is believed beyond b's length.
	if have := (len(b) - 8) / 8; max(rows, cols) > len(b) || rows > 0 && cols > have/rows {
		return 0, 0, fmt.Errorf("wire: %dx%d matrix in %d bytes", rows, cols, len(b))
	}
	return rows, cols, nil
}

// SlabSize is the one buffer size of the streamed HTTP bodies: a Writer
// writes once its pending frames reach it, and the stream decoders read
// through a bufio.Reader of this size, so a stream of small matrices costs
// a syscall per slab, not one or two per matrix.
const SlabSize = 64 << 10

// Reader decodes payloads from a stream through one scratch buffer reused
// across matrices.
type Reader struct {
	R   io.Reader
	buf []byte
}

// fill reads the next need bytes into the scratch buffer.
func (r *Reader) fill(need int) ([]byte, error) {
	if cap(r.buf) < need {
		r.buf = make([]byte, need)
	}
	if _, err := io.ReadFull(r.R, r.buf[:need]); err != nil {
		return nil, NoEOF(err)
	}
	return r.buf[:need], nil
}

// ReadMat reads the payload of a rows×cols matrix the caller has already
// bounded — dimensions never come from the stream at this layer — and
// returns it with the XOR of its bits, allocated once its bytes are in.
func (r *Reader) ReadMat(rows, cols int) (*matrix.Mat, uint64, error) {
	b, err := r.fill(8 * rows * cols)
	if err != nil {
		return nil, 0, err
	}
	m := matrix.New(rows, cols)
	return m, Floats(m.Data[:rows*cols], b), nil
}

// ReadInto is ReadMat into a compact matrix the caller already holds: it
// reads m's Rows×Cols payload over m.Data and returns the XOR of its bits.
func (r *Reader) ReadInto(m *matrix.Mat) (uint64, error) {
	b, err := r.fill(8 * m.Rows * m.Cols)
	if err != nil {
		return 0, err
	}
	return Floats(m.Data[:m.Rows*m.Cols], b), nil
}

// ReadDimMat reads one dims-prefixed matrix whose shape must be exactly
// rows×cols: the prefix is checked against what the caller expects, never
// used to size anything.
func (r *Reader) ReadDimMat(rows, cols int) (*matrix.Mat, uint64, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r.R, hdr[:]); err != nil {
		return nil, 0, NoEOF(err)
	}
	gr, gc := int(binary.LittleEndian.Uint32(hdr[0:])), int(binary.LittleEndian.Uint32(hdr[4:]))
	if gr != rows || gc != cols {
		return nil, 0, fmt.Errorf("matrix is %dx%d, want %dx%d", gr, gc, rows, cols)
	}
	return r.ReadMat(rows, cols)
}

// WriteHeader writes a request stream's header: magic, then the count of
// frames that follow. The caller has bounded count.
func WriteHeader(w io.Writer, magic [4]byte, count int) error {
	_, err := w.Write(binary.LittleEndian.AppendUint32(magic[:], uint32(count)))
	return err
}

// ReadHeader reads what WriteHeader wrote and returns the declared count,
// which the caller must bound before trusting.
func ReadHeader(r io.Reader, magic [4]byte) (int, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	if [4]byte(hdr[:4]) != magic {
		return 0, ErrBadMagic
	}
	return int(binary.LittleEndian.Uint32(hdr[4:])), nil
}

// ReadMagic consumes a response stream's bare magic.
func ReadMagic(r io.Reader, magic [4]byte) error {
	var got [4]byte
	if _, err := io.ReadFull(r, got[:]); err != nil {
		return err
	}
	if got != magic {
		return ErrBadMagic
	}
	return nil
}

// Trailer is the end-of-stream summary of a response: a client always
// learns how far the server got and can verify what it received.
type Trailer struct {
	Done int    // frames the server emitted
	Shed int    // declared work the server dropped (cancellation, shutdown)
	Sum  uint64 // server-side XOR checksum of every emitted element
}

// AppendTrailer appends [u32 done][u32 shed][u64 sum]; the marker that
// introduces it is the caller's.
func AppendTrailer(dst []byte, done, shed int, sum uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(done))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(shed))
	return binary.LittleEndian.AppendUint64(dst, sum)
}

// Writer is the sending half of a response stream: frames accumulate in one
// buffer that is written whenever it holds SlabSize bytes or more, and the
// Writer keeps the frame count and running XOR of every payload element
// emitted that the trailer carries. Callers keep their own frame headers:
// Frame hands out the buffer, pending frames and all, to append one to, and
// WriteFrame appends the payload behind it — encoded straight into the
// outgoing slab, with no copy. Flush writes what is pending; the trailer
// always does. Not safe for concurrent use.
type Writer struct {
	W    io.Writer
	buf  []byte
	sum  uint64
	done int
}

// Frame returns the pending buffer for the caller's frame header bytes.
func (w *Writer) Frame() []byte { return w.buf }

// WriteFrame queues one frame: frame — the header built on Frame() — then
// m's payload (none when m is nil), folded into the running checksum. It
// writes only once the pending bytes reach SlabSize.
func (w *Writer) WriteFrame(frame []byte, m *matrix.Mat) error {
	if m != nil {
		var sum uint64
		frame, sum = AppendMat(frame, m)
		w.sum ^= sum
	}
	w.buf = frame
	w.done++
	if len(w.buf) >= SlabSize {
		return w.Flush()
	}
	return nil
}

// Flush writes the pending frames, if any, in one Write.
func (w *Writer) Flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.W.Write(w.buf)
	w.buf = w.buf[:0]
	return err
}

// Done returns the frames queued so far.
func (w *Writer) Done() int { return w.done }

// WriteTrailer ends the stream: marker — the caller's trailer mark, built
// on Frame() — then the frame count, the work shed and the checksum, all
// flushed with whatever frames were still pending.
func (w *Writer) WriteTrailer(marker []byte, shed int) error {
	w.buf = AppendTrailer(marker, w.done, shed, w.sum)
	return w.Flush()
}

// ReadTrailer reads a trailer and verifies it against the frame count and
// checksum of what was actually received.
func ReadTrailer(r io.Reader, done int, sum uint64) (*Trailer, error) {
	var b [16]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return nil, NoEOF(err)
	}
	t := &Trailer{
		Done: int(binary.LittleEndian.Uint32(b[0:])),
		Shed: int(binary.LittleEndian.Uint32(b[4:])),
		Sum:  binary.LittleEndian.Uint64(b[8:]),
	}
	if t.Done != done {
		return nil, fmt.Errorf("trailer declares %d frames, stream carried %d", t.Done, done)
	}
	if t.Sum != sum {
		return nil, fmt.Errorf("checksum mismatch: sent %016x, received %016x", t.Sum, sum)
	}
	return t, nil
}
