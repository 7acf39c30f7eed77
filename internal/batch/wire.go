package batch

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/wire"
)

// Wire format of POST /v1/batch. The request body is one stream:
//
//	"QBR1" [u32 count] count × ( [u16 m] [u16 n] m·n × [f64] )
//
// and the response is its mirror, with results in completion order (NOT
// request order — chunks finish whenever a worker gets to them):
//
//	"QBS1" frames × ( [u32 index] [u16 k] [u16 n] k·n × [f64] ) trailer
//	trailer = [u32 0xFFFFFFFF] [u32 done] [u32 shed] [u64 checksum]
//
// All integers are little-endian; floats are IEEE-754 bit patterns, written
// little-endian, column-major. Each result frame carries the full k×k upper
// triangle of R as a k×n square (zeros below the diagonal), where k = n of
// the request matrix at that index. The trailer's checksum is the XOR of the
// Float64bits of every result element emitted — XOR because it is exact and
// order-independent, so the client can verify it even though frames arrive
// out of order. done counts frames emitted; shed counts matrices dropped
// when the stream was cut short (cancellation, shutdown), so a client
// always learns whether it got everything.
//
// Decoders defend against hostile prefixes the same way transport.ReadFrame
// does: every count and dimension is validated against a hard bound before
// any memory is committed, so a 12-byte garbage request cannot force a
// large allocation. The bounds live here; the payload loop, the stream
// header and the trailer are internal/wire's.

// Request and response stream magics.
var (
	reqMagic  = [4]byte{'Q', 'B', 'R', '1'}
	respMagic = [4]byte{'Q', 'B', 'S', '1'}
)

// MaxCount bounds the matrix count a single batch request may declare.
const MaxCount = 1 << 20

// trailerIndex marks the response trailer frame.
const trailerIndex = 0xFFFFFFFF

// ErrBadMagic reports a stream that does not start with the expected magic.
var ErrBadMagic = wire.ErrBadMagic

// WriteRequestHeader writes the request magic and matrix count.
func WriteRequestHeader(w io.Writer, count int) error {
	if count < 0 || count > MaxCount {
		return fmt.Errorf("batch: request count %d out of range [0,%d]", count, MaxCount)
	}
	return wire.WriteHeader(w, reqMagic, count)
}

// CheckShape reports whether an m×n matrix can ride the batch path:
// MaxDim ≥ m ≥ n ≥ 1. The error names the shape; callers name the matrix.
func CheckShape(m, n int) error {
	if n < 1 || m < n || m > MaxDim {
		return fmt.Errorf("%dx%d; need %d >= m >= n >= 1", m, n, MaxDim)
	}
	return nil
}

// AppendMatrix appends the request encoding of a to dst: dimensions then the
// column-major payload. It panics on shapes CheckShape refuses — a
// programming error on the sending side.
func AppendMatrix(dst []byte, a *matrix.Mat) []byte {
	m, n := a.Rows, a.Cols
	if CheckShape(m, n) != nil {
		panic(fmt.Sprintf("batch: encode %dx%d matrix", m, n))
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(m))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(n))
	dst, _ = wire.AppendMat(dst, a)
	return dst
}

// RequestReader decodes a batch request stream matrix by matrix, so the
// handler can dispatch chunks while the body is still arriving. Past the
// header it reads through one SlabSize bufio.Reader. A matrix returned by
// Next is the caller's until it hands it back with Recycle, after which a
// later Next may decode into its storage; the reader's byte scratch is
// reused across calls.
type RequestReader struct {
	r     wire.Reader
	count int
	read  int

	mu   sync.Mutex
	free []*matrix.Mat // recycled matrices, newest last
}

// NewRequestReader validates the stream header and returns a reader over
// its matrices.
func NewRequestReader(r io.Reader) (*RequestReader, error) {
	count, err := wire.ReadHeader(r, reqMagic)
	if err != nil {
		return nil, fmt.Errorf("batch: request header: %w", err)
	}
	if count > MaxCount {
		return nil, fmt.Errorf("batch: request declares %d matrices, limit %d", count, MaxCount)
	}
	return &RequestReader{r: wire.Reader{R: bufio.NewReaderSize(r, wire.SlabSize)}, count: count}, nil
}

// Count returns the matrix count the stream header declared.
func (rr *RequestReader) Count() int { return rr.count }

// Recycle hands back a matrix Next returned, once nothing reads it any more.
// It may run on a different goroutine from Next.
func (rr *RequestReader) Recycle(a *matrix.Mat) {
	rr.mu.Lock()
	rr.free = append(rr.free, a)
	rr.mu.Unlock()
}

// recycled pops the newest recycled matrix and reshapes it to a compact
// m×n, or returns nil when there is none or its storage is too small. A
// misfit is dropped, not kept: every matrix the reader holds then stands
// for one Next has returned, so recycling keeps the matrices alive no more
// than the caller's own residency.
func (rr *RequestReader) recycled(m, n int) *matrix.Mat {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	k := len(rr.free)
	if k == 0 {
		return nil
	}
	a := rr.free[k-1]
	rr.free[k-1] = nil
	rr.free = rr.free[:k-1]
	if cap(a.Data) < m*n {
		return nil
	}
	a.Rows, a.Cols, a.LD, a.Data = m, n, m, a.Data[:m*n]
	return a
}

// Next decodes the next matrix, into a recycled one when one fits. It
// returns io.EOF after the declared count has been read; a stream that ends
// early yields an error wrapping io.ErrUnexpectedEOF. Dimensions are
// validated before the payload is allocated or read.
func (rr *RequestReader) Next() (*matrix.Mat, error) {
	if rr.read >= rr.count {
		return nil, io.EOF
	}
	var dims [4]byte
	if _, err := io.ReadFull(rr.r.R, dims[:]); err != nil {
		return nil, fmt.Errorf("batch: matrix %d header: %w", rr.read, wire.NoEOF(err))
	}
	m := int(binary.LittleEndian.Uint16(dims[0:]))
	n := int(binary.LittleEndian.Uint16(dims[2:]))
	if err := CheckShape(m, n); err != nil {
		return nil, fmt.Errorf("batch: matrix %d is %w", rr.read, err)
	}
	var err error
	a := rr.recycled(m, n)
	if a != nil {
		_, err = rr.r.ReadInto(a)
	} else {
		a, _, err = rr.r.ReadMat(m, n)
	}
	if err != nil {
		return nil, fmt.Errorf("batch: matrix %d payload: %w", rr.read, err)
	}
	rr.read++
	return a, nil
}

// ResultWriter encodes the response stream: the batch frame header over a
// wire.Writer, which keeps the buffer, checksum and frame count. It is not
// safe for concurrent use; the scheduler serializes emission.
type ResultWriter struct{ wire.Writer }

// NewResultWriter writes the response magic and returns the writer.
func NewResultWriter(w io.Writer) (*ResultWriter, error) {
	if _, err := w.Write(respMagic[:]); err != nil {
		return nil, err
	}
	return &ResultWriter{wire.Writer{W: w}}, nil
}

// WriteResult emits one result frame: the R factor for the request matrix
// at index, folded into the running checksum.
func (rw *ResultWriter) WriteResult(index int, r *matrix.Mat) error {
	k, n := r.Rows, r.Cols
	if n < 1 || k > MaxDim || n > MaxDim {
		panic(fmt.Sprintf("batch: encode %dx%d result", k, n))
	}
	b := binary.LittleEndian.AppendUint32(rw.Frame(), uint32(index))
	b = binary.LittleEndian.AppendUint16(b, uint16(k))
	b = binary.LittleEndian.AppendUint16(b, uint16(n))
	return rw.WriteFrame(b, r)
}

// WriteTrailer ends the stream, reporting shed matrices (those the server
// never factorized) and the checksum of everything emitted.
func (rw *ResultWriter) WriteTrailer(shed int) error {
	return rw.Writer.WriteTrailer(binary.LittleEndian.AppendUint32(rw.Frame(), trailerIndex), shed)
}

// Trailer is the decoded end-of-stream summary of a batch response: result
// frames emitted, matrices dropped (cancellation, shutdown), checksum.
type Trailer = wire.Trailer

// Result is one decoded response frame.
type Result struct {
	Index int // position of the source matrix in the request
	R     *matrix.Mat
}

// ResultReader decodes a batch response stream, verifying the trailer
// checksum against what was actually received. Past the magic it reads
// through one SlabSize bufio.Reader, so it may read ahead of the trailer;
// each result's R is freshly allocated and the caller's to keep.
type ResultReader struct {
	r    wire.Reader
	sum  uint64
	done int
}

// NewResultReader validates the response magic and returns a reader.
func NewResultReader(r io.Reader) (*ResultReader, error) {
	if err := wire.ReadMagic(r, respMagic); err != nil {
		return nil, fmt.Errorf("batch: response header: %w", err)
	}
	return &ResultReader{r: wire.Reader{R: bufio.NewReaderSize(r, wire.SlabSize)}}, nil
}

// Next decodes the next result frame. At the end of the stream it returns
// (nil, trailer, nil) after verifying the checksum and frame count; before
// that, (result, nil, nil).
func (rr *ResultReader) Next() (*Result, *Trailer, error) {
	var idx [4]byte
	if _, err := io.ReadFull(rr.r.R, idx[:]); err != nil {
		return nil, nil, fmt.Errorf("batch: result frame: %w", wire.NoEOF(err))
	}
	index := binary.LittleEndian.Uint32(idx[:])
	if index == trailerIndex {
		t, err := wire.ReadTrailer(rr.r.R, rr.done, rr.sum)
		if err != nil {
			return nil, nil, fmt.Errorf("batch: trailer: %w", err)
		}
		return nil, t, nil
	}
	if index > MaxCount {
		return nil, nil, fmt.Errorf("batch: result index %d out of range", index)
	}
	var dims [4]byte
	if _, err := io.ReadFull(rr.r.R, dims[:]); err != nil {
		return nil, nil, fmt.Errorf("batch: result %d header: %w", index, wire.NoEOF(err))
	}
	k := int(binary.LittleEndian.Uint16(dims[0:]))
	n := int(binary.LittleEndian.Uint16(dims[2:]))
	if n < 1 || k < 1 || k > MaxDim || n > MaxDim {
		return nil, nil, fmt.Errorf("batch: result %d is %dx%d", index, k, n)
	}
	r, sum, err := rr.r.ReadMat(k, n)
	if err != nil {
		return nil, nil, fmt.Errorf("batch: result %d payload: %w", index, err)
	}
	rr.sum ^= sum
	rr.done++
	return &Result{Index: int(index), R: r}, nil, nil
}
