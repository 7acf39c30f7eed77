// Package session implements long-lived streaming TSQR factorization
// sessions: a client opens a session, streams row blocks into it, and reads
// back the updated R (and optionally accumulated QᵀB least-squares state)
// after each append. The reduction engine is qr.Streamer — only the
// leaf-to-root path of the reduction tree re-reduces per append — and the
// committed spine is small (≤ ⌈log₂ blocks⌉ n×n triangles), which is what
// makes durable checkpoints cheap enough to write on every append.
package session

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"pulsarqr/internal/qr"
	"pulsarqr/internal/wire"
)

// QSC1 is the durable checkpoint format. One file per session:
//
//	"QSC1" [u16 idLen] id [u16 tenantLen] tenant
//	[u32 n] [u32 nrhs] [u32 nb] [u32 ib] [u32 every] [u32 flags]
//	[u64 blocks] [u64 rows] [u32 spineLen]
//	spineLen × ( [u64 blocks] [u64 rows] R-mat [QTB-mat when nrhs>0] )
//	[u64 checksum]
//
// Matrices use wire.AppendDimMat's encoding (u32 rows, u32 cols, then
// column-major IEEE-754 bit patterns), all little-endian. The checksum is
// the XOR of the Float64bits of every spine element written — exact and
// order-independent, the same trailer idiom the batch wire format uses.
// Floats roundtrip bit-exactly, so a restored session replayed over the
// same remaining appends is bitwise identical to an uninterrupted run.
//
// The reader validates every count and dimension against a hard bound
// before committing memory, mirroring transport.ReadFrame's hostile-prefix
// defense: a short garbage file cannot force a large allocation.

// Checkpoint bounds. Dimensions are per-session limits, far above anything
// the service admits, but small enough that a hostile header cannot commit
// more than a few MB before payload bytes have to actually arrive.
const (
	MaxN     = 1 << 10 // columns per stream
	MaxNRHS  = 1 << 8  // ride-along right-hand-side columns
	MaxSpine = 64      // binary-counter spine depth (covers 2^64 blocks)
	MaxName  = 128     // id / tenant byte length
)

var ckptMagic = [4]byte{'Q', 'S', 'C', '1'}

// checkpoint flag bits.
const flagAckOnly = 1 << 0

// ErrBadCheckpoint reports a checkpoint stream that fails structural
// validation (bad magic, out-of-range dims, truncation, checksum mismatch).
var ErrBadCheckpoint = errors.New("session: bad checkpoint")

// Checkpoint is the serializable state of a session: identity, stream
// configuration, and the committed reduction spine.
type Checkpoint struct {
	ID     string
	Tenant string
	N      int
	NRHS   int
	Opts   qr.Options // only NB and IB persist; tree shape is implied
	Every  int        // checkpoint cadence (appends per durable write)
	Ack    bool       // ack-only sessions skip per-append R emission
	Blocks int64
	Rows   int64
	Spine  []*qr.StreamNode
}

// check reports the first header field outside what a checkpoint of the
// given spine depth may carry. Open, the writer and the reader all apply it,
// so a session is refused at open rather than acknowledged into a file the
// next boot would skip.
func (cp *Checkpoint) check(spine int) error {
	switch {
	case cp.N < 1 || cp.N > MaxN || cp.NRHS < 0 || cp.NRHS > MaxNRHS:
		return fmt.Errorf("dims n=%d nrhs=%d outside n in [1,%d], nrhs in [0,%d]", cp.N, cp.NRHS, MaxN, MaxNRHS)
	case cp.Opts.NB < 1 || cp.Opts.NB > MaxN || cp.Opts.IB < 1 || cp.Opts.IB > cp.Opts.NB:
		return fmt.Errorf("blocking nb=%d ib=%d outside 1 <= ib <= nb <= %d", cp.Opts.NB, cp.Opts.IB, MaxN)
	case cp.Every < 0 || cp.Every > 1<<20:
		return fmt.Errorf("checkpoint cadence %d out of range", cp.Every)
	case cp.Blocks < 0 || cp.Rows < 0:
		return fmt.Errorf("counters blocks=%d rows=%d", cp.Blocks, cp.Rows)
	case spine > MaxSpine:
		return fmt.Errorf("spine depth %d exceeds %d", spine, MaxSpine)
	}
	return nil
}

// validIDByte reports whether c may appear in a session id or tenant name
// destined for a checkpoint filename.
func validIDByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-' || c == '_' ||
		c >= 'A' && c <= 'Z' || c == '.'
}

// validName reports whether s is safe as a checkpoint identity: short,
// filesystem-safe bytes, and no dot-prefixed path tricks.
func validName(s string) bool {
	if len(s) > MaxName || strings.HasPrefix(s, ".") {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !validIDByte(s[i]) {
			return false
		}
	}
	return true
}

// WriteCheckpoint serializes cp to w. The caller must hold whatever lock
// serializes mutation of the spine.
func WriteCheckpoint(w io.Writer, cp *Checkpoint) (int64, error) {
	if cp.ID == "" || !validName(cp.ID) {
		return 0, fmt.Errorf("session: checkpoint id %q not encodable", cp.ID)
	}
	if !validName(cp.Tenant) {
		return 0, fmt.Errorf("session: checkpoint tenant %q not encodable", cp.Tenant)
	}
	if err := cp.check(len(cp.Spine)); err != nil {
		return 0, fmt.Errorf("session: checkpoint not encodable: %w", err)
	}
	buf := make([]byte, 0, 4+4+len(cp.ID)+len(cp.Tenant)+6*4+2*8+4)
	buf = append(buf, ckptMagic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(cp.ID)))
	buf = append(buf, cp.ID...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(cp.Tenant)))
	buf = append(buf, cp.Tenant...)
	var flags uint32
	if cp.Ack {
		flags |= flagAckOnly
	}
	for _, v := range []uint32{uint32(cp.N), uint32(cp.NRHS), uint32(cp.Opts.NB), uint32(cp.Opts.IB), uint32(cp.Every), flags} {
		buf = binary.LittleEndian.AppendUint32(buf, v)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cp.Blocks))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cp.Rows))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cp.Spine)))
	var sum, s uint64
	total := int64(0)
	flush := func() error {
		n, err := w.Write(buf)
		total += int64(n)
		buf = buf[:0]
		return err
	}
	for _, nd := range cp.Spine {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(nd.Blocks))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(nd.Rows))
		buf, s = wire.AppendDimMat(buf, nd.R)
		sum ^= s
		if cp.NRHS > 0 {
			buf, s = wire.AppendDimMat(buf, nd.QTB)
			sum ^= s
		}
		if err := flush(); err != nil {
			return total, err
		}
	}
	buf = binary.LittleEndian.AppendUint64(buf, sum)
	err := flush()
	return total, err
}

// ReadCheckpoint decodes a full checkpoint, verifying structure and
// checksum. Every length and dimension is bounds-checked before the
// corresponding allocation.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	return readCheckpoint(r, true)
}

// ReadCheckpointInfo decodes only the checkpoint header — identity, dims,
// and committed block/row counts — without loading the spine. Boot-time
// directory scans use it to register sessions lazily.
func ReadCheckpointInfo(r io.Reader) (*Checkpoint, error) {
	return readCheckpoint(r, false)
}

func readCheckpoint(r io.Reader, full bool) (*Checkpoint, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: magic: %v", ErrBadCheckpoint, err)
	}
	if magic != ckptMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadCheckpoint, magic[:])
	}
	id, err := readName(r, "id")
	if err != nil {
		return nil, err
	}
	if id == "" {
		return nil, fmt.Errorf("%w: empty id", ErrBadCheckpoint)
	}
	tenant, err := readName(r, "tenant")
	if err != nil {
		return nil, err
	}
	var fixed [6*4 + 2*8 + 4]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadCheckpoint, wire.NoEOF(err))
	}
	cp := &Checkpoint{
		ID:     id,
		Tenant: tenant,
		N:      int(binary.LittleEndian.Uint32(fixed[0:])),
		NRHS:   int(binary.LittleEndian.Uint32(fixed[4:])),
		Opts: qr.Options{
			NB: int(binary.LittleEndian.Uint32(fixed[8:])),
			IB: int(binary.LittleEndian.Uint32(fixed[12:])),
		},
		Every:  int(binary.LittleEndian.Uint32(fixed[16:])),
		Blocks: int64(binary.LittleEndian.Uint64(fixed[24:])),
		Rows:   int64(binary.LittleEndian.Uint64(fixed[32:])),
	}
	flags := binary.LittleEndian.Uint32(fixed[20:])
	cp.Ack = flags&flagAckOnly != 0
	spineLen := int(binary.LittleEndian.Uint32(fixed[40:]))
	if err := cp.check(spineLen); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if !full {
		return cp, nil
	}
	mats := wire.Reader{R: r}
	var sum, s uint64
	var blocks, rows int64
	for i := 0; i < spineLen; i++ {
		var hdr [16]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, fmt.Errorf("%w: spine node %d: %v", ErrBadCheckpoint, i, wire.NoEOF(err))
		}
		nd := &qr.StreamNode{
			Blocks: int64(binary.LittleEndian.Uint64(hdr[0:])),
			Rows:   int64(binary.LittleEndian.Uint64(hdr[8:])),
		}
		if nd.Blocks < 1 || nd.Rows < 1 {
			return nil, fmt.Errorf("%w: spine node %d counts", ErrBadCheckpoint, i)
		}
		if nd.R, s, err = mats.ReadDimMat(cp.N, cp.N); err != nil {
			return nil, fmt.Errorf("%w: spine node %d R: %v", ErrBadCheckpoint, i, err)
		}
		sum ^= s
		if cp.NRHS > 0 {
			if nd.QTB, s, err = mats.ReadDimMat(cp.N, cp.NRHS); err != nil {
				return nil, fmt.Errorf("%w: spine node %d QTB: %v", ErrBadCheckpoint, i, err)
			}
			sum ^= s
		}
		blocks += nd.Blocks
		rows += nd.Rows
		cp.Spine = append(cp.Spine, nd)
	}
	if blocks != cp.Blocks || rows != cp.Rows {
		return nil, fmt.Errorf("%w: spine folds %d blocks / %d rows, header claims %d / %d",
			ErrBadCheckpoint, blocks, rows, cp.Blocks, cp.Rows)
	}
	var trailer [8]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return nil, fmt.Errorf("%w: trailer: %v", ErrBadCheckpoint, wire.NoEOF(err))
	}
	if got := binary.LittleEndian.Uint64(trailer[:]); got != sum {
		return nil, fmt.Errorf("%w: checksum %#x, recomputed %#x", ErrBadCheckpoint, got, sum)
	}
	return cp, nil
}

// readName decodes one u16-length-prefixed identity string.
func readName(r io.Reader, what string) (string, error) {
	var ln [2]byte
	if _, err := io.ReadFull(r, ln[:]); err != nil {
		return "", fmt.Errorf("%w: %s length: %v", ErrBadCheckpoint, what, wire.NoEOF(err))
	}
	n := int(binary.LittleEndian.Uint16(ln[:]))
	if n > MaxName {
		return "", fmt.Errorf("%w: %s length %d exceeds %d", ErrBadCheckpoint, what, n, MaxName)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("%w: %s: %v", ErrBadCheckpoint, what, wire.NoEOF(err))
	}
	s := string(buf)
	if n > 0 && !validName(s) {
		return "", fmt.Errorf("%w: %s %q not a valid name", ErrBadCheckpoint, what, s)
	}
	return s, nil
}

// CheckpointPath returns the file a session's checkpoint lives at.
func CheckpointPath(dir, id string) string {
	return filepath.Join(dir, id+".qsc")
}

// WriteCheckpointFile durably writes cp under dir with the crash-safe
// temp-file + fsync + rename dance: a kill -9 at any instant leaves either
// the previous checkpoint or the new one, never a torn file.
func WriteCheckpointFile(dir string, cp *Checkpoint) (int64, error) {
	final := CheckpointPath(dir, cp.ID)
	tmp, err := os.CreateTemp(dir, "."+cp.ID+".tmp*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name())
	n, err := WriteCheckpoint(tmp, cp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), final)
	}
	if err != nil {
		return 0, err
	}
	return n, nil
}

// ReadCheckpointFile loads and validates the checkpoint at path.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCheckpoint(f)
}
