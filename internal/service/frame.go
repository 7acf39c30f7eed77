package service

import (
	"encoding/binary"
	"fmt"
	"io"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/slab"
	"pulsarqr/internal/wire"
)

// The job frame is the binary envelope of the two job messages that carry a
// matrix: an uploaded POST /v1/factorize, and GET /v1/jobs/{id}?include=r
// when the client's Accept names it. Both directions are one layout,
// little-endian:
//
//	"QJF1" [u32 head length] [head: JSON] [u32 rows][u32 cols][payload] [u32 done][u32 shed=0][u64 sum]
//
// The head is the message's JSON with the matrix left out (a submitRequest
// with no data; a JobView with no r). The matrix is wire.AppendDimMat's
// dims-prefixed column-major form — 0×0 with no payload when there is none,
// a job whose R does not exist yet — and the trailer is wire's, done counting
// the matrices that carried a payload and sum the XOR of their bits.
const jobFrameType = "application/x-pulsarqr-job"

var jobFrameMagic = [4]byte{'Q', 'J', 'F', '1'}

// maxFrameHead bounds the head: a spec or a view is a few hundred bytes, a
// view with a flight-recorder tail a few kilobytes.
const maxFrameHead = 1 << 16

// writeJobFrame writes the frame of head and m (nil: the empty matrix) to w,
// the one encoder of both directions: whole columns are appended until the
// buffer holds wire.SlabSize bytes, then written, so the frame never exists
// whole on the sending side.
func writeJobFrame(w io.Writer, head []byte, m *matrix.Mat) error {
	if m == nil {
		m = &matrix.Mat{}
	}
	size := 8 + len(head) + 8 + 8*m.Rows*m.Cols + 16
	buf := slab.Bytes.Take(min(size, len(head)+wire.SlabSize+8*m.Rows+32))[:0]
	defer func() { slab.Bytes.Put(buf) }() // every Write has returned: nothing holds buf
	buf = binary.LittleEndian.AppendUint32(append(buf, jobFrameMagic[:]...), uint32(len(head)))
	buf = append(buf, head...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Rows))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Cols))
	var sum uint64
	for j := 0; j < m.Cols; j++ {
		var s uint64
		buf, s = wire.AppendFloats(buf, m.Col(j))
		sum ^= s
		if len(buf) >= wire.SlabSize {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(wire.AppendTrailer(buf, min(m.Rows*m.Cols, 1), 0, sum))
	return err
}

// jobFrameBody is writeJobFrame through a pipe, the way batchBody streams a
// batch: one attempt's request body.
func jobFrameBody(head []byte, m *matrix.Mat) io.Reader {
	pr, pw := io.Pipe()
	go func() { pw.CloseWithError(writeJobFrame(pw, head, m)) }()
	return pr
}

// readJobFrame decodes one frame and returns its matrix, nil when empty. The
// sender is believed only as far as it is bounded: the head length against
// maxFrameHead before the head is read, and the matrix's dimensions by admit
// — called with the head and the dims prefix before anything is sized from
// them — which must refuse any shape its side of the protocol does not
// expect. The head buffer grows with the bytes that arrive, never with the
// bytes declared, and so does the payload's unless warm is set and
// slab.Floats offers a slab of the admitted size (slab.Pool.Warm): the
// matrix is then decoded into that storage, which a decode that fails gives
// back. Only a caller that owns the matrix it is handed, and can give it
// back, sets warm. The checksum is verified and nothing may follow the
// trailer.
func readJobFrame(r io.Reader, warm bool, admit func(head []byte, rows, cols int) error) (_ *matrix.Mat, err error) {
	n, err := wire.ReadHeader(r, jobFrameMagic)
	if err != nil {
		return nil, wire.NoEOF(err)
	}
	if n > maxFrameHead {
		return nil, fmt.Errorf("frame head of %d bytes exceeds the %d-byte limit", n, maxFrameHead)
	}
	head, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return nil, err
	}
	if len(head) < n {
		return nil, io.ErrUnexpectedEOF
	}
	var dims [8]byte
	if _, err := io.ReadFull(r, dims[:]); err != nil {
		return nil, wire.NoEOF(err)
	}
	rows, cols := int(binary.LittleEndian.Uint32(dims[0:])), int(binary.LittleEndian.Uint32(dims[4:]))
	if err := admit(head, rows, cols); err != nil {
		return nil, err
	}
	var warmData []float64
	if warm {
		warmData = slab.Floats.Warm(rows * cols)
	}
	defer func() {
		if err != nil && warmData != nil {
			slab.Floats.Put(warmData)
		}
	}()
	data, sum, err := readFloats(r, rows*cols, warmData)
	if err != nil {
		return nil, err
	}
	if t, err := wire.ReadTrailer(r, min(rows*cols, 1), sum); err != nil {
		return nil, err
	} else if t.Shed != 0 {
		return nil, fmt.Errorf("frame trailer sheds %d matrices; a job frame sheds none", t.Shed)
	}
	// Draining is what tells a body over the server's byte bound (the reader
	// fails) from a few stray bytes after a well-formed frame.
	if extra, err := io.Copy(io.Discard, r); err != nil {
		return nil, err
	} else if extra > 0 {
		return nil, fmt.Errorf("%d bytes after the frame trailer", extra)
	}
	if len(data) == 0 {
		return nil, nil
	}
	return matrix.FromColMajor(rows, cols, rows, data), nil
}

// readFloats reads n float64s, n already bounded by the caller, and returns
// them with the XOR of their bits. With warm storage — a slab of n — they
// are read into it. Without it the slice doubles as the bytes arrive, so a
// sender that declares a matrix and withholds it pins no more memory than it
// sent, and ends at the capacity of n's size class (slab.Class): the slice is
// a slab the next decode of its shape can take once it is put back.
func readFloats(r io.Reader, n int, warm []float64) ([]float64, uint64, error) {
	const chunk = 1 << 13 // floats per read
	buf := slab.Bytes.Take(8 * min(n, chunk))
	defer slab.Bytes.Put(buf)
	_, size := slab.Class(n)
	var data []float64
	if warm != nil {
		data = warm[:0]
	} else {
		data = make([]float64, 0, min(size, chunk))
	}
	var sum uint64
	for len(data) < n {
		k := min(n-len(data), chunk)
		if _, err := io.ReadFull(r, buf[:8*k]); err != nil {
			return nil, 0, wire.NoEOF(err)
		}
		if len(data)+k > cap(data) { // never on the first chunk, so len(data) ≥ k
			data = append(make([]float64, 0, min(2*len(data), size)), data...)
		}
		data = data[:len(data)+k]
		sum ^= wire.Floats(data[len(data)-k:], buf)
	}
	return data, sum, nil
}
