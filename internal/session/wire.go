package session

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/slab"
	"pulsarqr/internal/wire"
)

// Wire format of POST /v1/sessions/{id}/append. The request body is one
// stream of row blocks:
//
//	"QSA1" [u32 count] count × ( [u32 m] m·n × [f64] m·nrhs × [f64] )
//
// n and nrhs are fixed per session, so frames carry only the row count.
// The response mirrors the batch API: one frame per committed append, in
// commit order, followed by a trailer so the client always learns how far
// the server got:
//
//	"QSB1" frames × ( [u64 blocks] [u64 rows] [u32 k] k·n × [f64] ) trailer
//	trailer = [u32 0xFFFFFFFF pad] [u32 done] [u32 shed] [u64 checksum]
//
// blocks/rows are the session's cumulative totals after the commit; k is n
// when the frame carries the folded global R (zeros below the diagonal) and
// 0 for ack-only sessions. All integers little-endian; floats are IEEE-754
// bit patterns, column-major. The checksum is the XOR of the Float64bits of
// every R element emitted. Frame row counts are bounds-checked before any
// allocation — the hostile-prefix defense shared with the batch and
// checkpoint decoders; the payload loop, the stream header and the trailer
// themselves are internal/wire's.

var (
	appendMagic = [4]byte{'Q', 'S', 'A', '1'}
	replyMagic  = [4]byte{'Q', 'S', 'B', '1'}
)

// MaxAppends bounds the block count one append stream may declare.
const MaxAppends = 1 << 20

// MaxBlockRows bounds the rows one appended block may carry; larger updates
// split into multiple appends. Together with MaxN/MaxNRHS it caps the
// decoder's scratch at a few tens of MB even under a hostile prefix.
const MaxBlockRows = 1 << 12

// appendTrailer marks the response trailer frame: eight bytes of ones where
// a frame's cumulative block count would be, which no count can reach.
const appendTrailer = math.MaxUint64

// ErrBadMagic reports a session stream that does not start with its magic.
var ErrBadMagic = wire.ErrBadMagic

// WriteAppendHeader writes the append-request magic and declared block count.
func WriteAppendHeader(w io.Writer, count int) error {
	if count < 0 || count > MaxAppends {
		return fmt.Errorf("session: append count %d out of range [0,%d]", count, MaxAppends)
	}
	return wire.WriteHeader(w, appendMagic, count)
}

// AppendBlock appends the request encoding of one row block (and its
// ride-along rhs rows, nil for R-only sessions) to dst.
func AppendBlock(dst []byte, block, rhs *matrix.Mat) []byte {
	if block.Rows < 1 || block.Rows > MaxBlockRows {
		panic(fmt.Sprintf("session: encode %d-row block", block.Rows))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(block.Rows))
	dst, _ = wire.AppendMat(dst, block)
	if rhs != nil {
		if rhs.Rows != block.Rows {
			panic(fmt.Sprintf("session: rhs has %d rows, block %d", rhs.Rows, block.Rows))
		}
		dst, _ = wire.AppendMat(dst, rhs)
	}
	return dst
}

// releaseBlock gives the slab.Floats slab of a block Next decoded, its rhs
// rows included, back. Neither may be touched afterwards.
func releaseBlock(block *matrix.Mat) { slab.Floats.Put(block.Data) }

// AppendReader decodes an append-request stream block by block so the
// session can reduce early blocks while later ones are still arriving.
// Blocks returned by Next live in a slab of warm storage that belongs to
// the caller until it hands the block to releaseBlock (AppendFrom does,
// after the reduction consumed it); one kept is simply garbage collected.
// The byte scratch is reused.
type AppendReader struct {
	r       wire.Reader
	n, nrhs int
	count   int
	read    int
}

// NewAppendReader validates the stream header against the session's fixed
// column counts and returns a reader over its blocks.
func NewAppendReader(r io.Reader, n, nrhs int) (*AppendReader, error) {
	if n < 1 || n > MaxN || nrhs < 0 || nrhs > MaxNRHS {
		return nil, fmt.Errorf("session: append reader dims n=%d nrhs=%d", n, nrhs)
	}
	count, err := wire.ReadHeader(r, appendMagic)
	if err != nil {
		return nil, fmt.Errorf("session: append header: %w", err)
	}
	if count > MaxAppends {
		return nil, fmt.Errorf("session: append declares %d blocks, limit %d", count, MaxAppends)
	}
	return &AppendReader{r: wire.Reader{R: r}, n: n, nrhs: nrhs, count: count}, nil
}

// Count returns the block count the stream header declared.
func (ar *AppendReader) Count() int { return ar.count }

// Next decodes the next appended block (and its rhs rows, nil when the
// session carries none). It returns io.EOF after the declared count; a
// stream ending early yields an error wrapping io.ErrUnexpectedEOF. The row
// count is validated before a slab is taken or the payload read, and a
// payload that fails to arrive gives its slab back.
func (ar *AppendReader) Next() (block, rhs *matrix.Mat, err error) {
	if ar.read >= ar.count {
		return nil, nil, io.EOF
	}
	var hdr [4]byte
	if _, err := io.ReadFull(ar.r.R, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("session: block %d header: %w", ar.read, wire.NoEOF(err))
	}
	m := int(binary.LittleEndian.Uint32(hdr[:]))
	if m < 1 || m > MaxBlockRows {
		return nil, nil, fmt.Errorf("session: block %d declares %d rows; need 1..%d", ar.read, m, MaxBlockRows)
	}
	buf := slab.Floats.Take(m * (ar.n + ar.nrhs))
	block = &matrix.Mat{Rows: m, Cols: ar.n, LD: m, Data: buf[:m*ar.n]}
	if _, err = ar.r.ReadInto(block); err == nil && ar.nrhs > 0 {
		rhs = &matrix.Mat{Rows: m, Cols: ar.nrhs, LD: m, Data: buf[m*ar.n:]}
		_, err = ar.r.ReadInto(rhs)
	}
	if err != nil {
		slab.Floats.Put(buf)
		return nil, nil, fmt.Errorf("session: block %d payload: %w", ar.read, err)
	}
	ar.read++
	return block, rhs, nil
}

// ReplyWriter encodes the append-response stream: the session frame header
// over a wire.Writer, which keeps the buffer, checksum and frame count. The
// append loop serializes emission; it is not safe for concurrent use.
type ReplyWriter struct{ wire.Writer }

// NewReplyWriter writes the response magic and returns the writer.
func NewReplyWriter(w io.Writer) (*ReplyWriter, error) {
	if _, err := w.Write(replyMagic[:]); err != nil {
		return nil, err
	}
	return &ReplyWriter{wire.Writer{W: w}}, nil
}

// WriteUpdate emits one commit frame: the session's cumulative totals and,
// unless r is nil (ack-only), the folded global R. Appends are interactive —
// the client waits on each update — so every frame goes out in one Write of
// its own instead of waiting for a slab to fill.
func (rw *ReplyWriter) WriteUpdate(blocks, rows int64, r *matrix.Mat) error {
	b := binary.LittleEndian.AppendUint64(rw.Frame(), uint64(blocks))
	b = binary.LittleEndian.AppendUint64(b, uint64(rows))
	k := 0
	if r != nil {
		k = r.Rows
	}
	if err := rw.WriteFrame(binary.LittleEndian.AppendUint32(b, uint32(k)), r); err != nil {
		return err
	}
	return rw.Flush()
}

// WriteTrailer ends the stream, reporting blocks the server never committed
// (shed) and the checksum of everything emitted.
func (rw *ReplyWriter) WriteTrailer(shed int) error {
	return rw.Writer.WriteTrailer(binary.LittleEndian.AppendUint64(rw.Frame(), appendTrailer), shed)
}

// Update is one decoded append-response frame.
type Update struct {
	Blocks int64       // session row blocks committed so far
	Rows   int64       // session matrix rows committed so far
	R      *matrix.Mat // folded global R; nil on ack-only streams
}

// Trailer is the decoded end-of-stream summary of an append response: commit
// frames emitted, appended blocks dropped (cancel, shutdown), checksum.
type Trailer = wire.Trailer

// ReplyReader decodes an append response, verifying the trailer checksum
// against what was actually received.
type ReplyReader struct {
	r    wire.Reader
	n    int
	sum  uint64
	done int
}

// NewReplyReader validates the response magic and returns a reader; n is
// the session's column count.
func NewReplyReader(r io.Reader, n int) (*ReplyReader, error) {
	if n < 1 || n > MaxN {
		return nil, fmt.Errorf("session: reply reader n=%d", n)
	}
	if err := wire.ReadMagic(r, replyMagic); err != nil {
		return nil, fmt.Errorf("session: response header: %w", err)
	}
	return &ReplyReader{r: wire.Reader{R: r}, n: n}, nil
}

// Next decodes the next frame. At the end of the stream it returns
// (nil, trailer, nil) after verifying checksum and frame count; before
// that, (update, nil, nil). A trailer is recognized by its first 8 bytes
// being all ones — a cumulative block count can never reach 2⁶⁴−1.
func (rr *ReplyReader) Next() (*Update, *Trailer, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(rr.r.R, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("session: response frame: %w", wire.NoEOF(err))
	}
	if binary.LittleEndian.Uint64(hdr[:]) == appendTrailer {
		tr, err := wire.ReadTrailer(rr.r.R, rr.done, rr.sum)
		if err != nil {
			return nil, nil, fmt.Errorf("session: response trailer: %w", err)
		}
		return nil, tr, nil
	}
	var rest [12]byte
	if _, err := io.ReadFull(rr.r.R, rest[:]); err != nil {
		return nil, nil, fmt.Errorf("session: response frame: %w", wire.NoEOF(err))
	}
	up := &Update{
		Blocks: int64(binary.LittleEndian.Uint64(hdr[:])),
		Rows:   int64(binary.LittleEndian.Uint64(rest[0:])),
	}
	k := int(binary.LittleEndian.Uint32(rest[8:]))
	if k != 0 && k != rr.n {
		return nil, nil, fmt.Errorf("session: response frame k=%d, session n=%d", k, rr.n)
	}
	if k > 0 {
		var sum uint64
		var err error
		if up.R, sum, err = rr.r.ReadMat(k, rr.n); err != nil {
			return nil, nil, fmt.Errorf("session: response R payload: %w", err)
		}
		rr.sum ^= sum
	}
	rr.done++
	return up, nil, nil
}
