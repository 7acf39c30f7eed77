package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"pulsarqr/internal/slab"
)

// Wire format. Every unit on a TCP connection is one frame:
//
//	[u32 payload length][u8 type][u32 source rank][u32 tag][payload...]
//
// All integers are big-endian. The length prefix covers the payload only;
// the fixed header is HeaderLen bytes. Three frame types exist:
//
//   - FrameHello is sent once, immediately after dialing, and identifies
//     the sender's rank to the accepting side (tag and payload unused);
//   - FrameData carries one message: rank is the sender, tag is the MPI
//     tag, payload is the marshaled packet;
//   - FrameBarrier carries barrier protocol traffic: tag is the barrier
//     generation, payload is one byte (BarrierEnter, BarrierRelease or
//     BarrierAbort);
//   - FrameAck carries the receiver's cumulative frame count for a link
//     (payload: u64 big-endian), written on the reverse direction of the
//     inbound connection so a reconnecting dialer knows where to resume;
//   - FrameBye announces a clean shutdown: the connection's end-of-stream
//     that follows is a departure, never a crash to reconnect from;
//   - FrameHeartbeat keeps an idle link's liveness visible (tag and
//     payload unused).
const (
	FrameHello     byte = 1
	FrameData      byte = 2
	FrameBarrier   byte = 3
	FrameAck       byte = 4
	FrameBye       byte = 5
	FrameHeartbeat byte = 6
)

// Barrier phases carried in a FrameBarrier payload. BarrierAbort is rank
// 0's verdict that a generation can never complete (a member departed
// without entering): without it, every other rank would wait forever for a
// release that cannot come, since non-root ranks have no way to tell a
// slow collective from a doomed one.
const (
	BarrierEnter   byte = 0
	BarrierRelease byte = 1
	BarrierAbort   byte = 2
)

// HeaderLen is the fixed frame header size in bytes.
const HeaderLen = 4 + 1 + 4 + 4

// MaxTag is the largest representable tag. It fits an int32, so tags
// survive the wire on every platform Go supports.
const MaxTag = 1<<31 - 1

// MaxPayload bounds a frame payload, defending the decoder against
// hostile or corrupt length prefixes.
const MaxPayload = 1 << 30

// ErrShortFrame reports that a buffer ends before the frame it starts.
var ErrShortFrame = errors.New("transport: short frame")

// Frame is one decoded wire unit.
type Frame struct {
	Type    byte
	Rank    int
	Tag     int
	Payload []byte
}

func validFrameType(t byte) bool {
	return t >= FrameHello && t <= FrameHeartbeat
}

// AppendFrame appends the encoding of f to dst and returns the extended
// slice. It panics on out-of-range rank/tag or oversized payloads — those
// are programming errors on the sending side, mirroring Isend.
func AppendFrame(dst []byte, f Frame) []byte {
	return appendFrame(dst, f.Type, f.Rank, f.Tag, nil, f.Payload)
}

// appendFrame is AppendFrame of the frame whose payload is prefix followed
// by payload.
func appendFrame(dst []byte, typ byte, rank, tag int, prefix, payload []byte) []byte {
	if !validFrameType(typ) {
		panic(fmt.Sprintf("transport: encode frame type %d", typ))
	}
	if rank < 0 || rank > MaxTag {
		panic(fmt.Sprintf("transport: encode frame rank %d", rank))
	}
	if tag < 0 || tag > MaxTag {
		panic(fmt.Sprintf("transport: encode frame tag %d", tag))
	}
	n := len(prefix) + len(payload)
	if n > MaxPayload {
		panic(fmt.Sprintf("transport: encode frame payload %d bytes", n))
	}
	var hdr [HeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(n))
	hdr[4] = typ
	binary.BigEndian.PutUint32(hdr[5:], uint32(rank))
	binary.BigEndian.PutUint32(hdr[9:], uint32(tag))
	dst = append(append(dst, hdr[:]...), prefix...)
	return append(dst, payload...)
}

// EncodeFrame returns the wire encoding of f in a fresh buffer (the
// payload is copied, never aliased).
func EncodeFrame(f Frame) []byte {
	return AppendFrame(make([]byte, 0, HeaderLen+len(f.Payload)), f)
}

// DecodeFrame decodes the frame at the head of b, returning the frame and
// the number of bytes consumed. The returned payload aliases b. It never
// panics: malformed input yields an error (ErrShortFrame when b simply
// ends early, so stream decoders can wait for more bytes).
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < HeaderLen {
		return Frame{}, 0, ErrShortFrame
	}
	n := binary.BigEndian.Uint32(b[0:])
	typ := b[4]
	rank := binary.BigEndian.Uint32(b[5:])
	tag := binary.BigEndian.Uint32(b[9:])
	if n > MaxPayload {
		return Frame{}, 0, fmt.Errorf("transport: frame payload %d exceeds limit %d", n, MaxPayload)
	}
	if !validFrameType(typ) {
		return Frame{}, 0, fmt.Errorf("transport: unknown frame type %d", typ)
	}
	if rank > MaxTag {
		return Frame{}, 0, fmt.Errorf("transport: frame rank %d out of range", rank)
	}
	if tag > MaxTag {
		return Frame{}, 0, fmt.Errorf("transport: frame tag %d out of range", tag)
	}
	total := HeaderLen + int(n)
	if len(b) < total {
		return Frame{}, 0, ErrShortFrame
	}
	return Frame{Type: typ, Rank: int(rank), Tag: int(tag), Payload: b[HeaderLen:total]}, total, nil
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, f Frame) error {
	_, err := w.Write(EncodeFrame(f))
	return err
}

// readChunk bounds how much payload memory ReadFrame commits to before the
// corresponding bytes have actually arrived, unless warm storage already
// holds a buffer of the frame's size: a hostile or corrupt length prefix can
// claim up to MaxPayload (1 GiB), and speculatively allocating that from 13
// header bytes would let a garbage stream exhaust memory. The buffer instead
// grows as data is read, so an attacker must send the bytes to make the
// receiver hold them.
const readChunk = 1 << 20

// ReadFrame reads one frame from r. The payload arrives in warm storage
// (slab.Bytes) when a buffer of its size class is there; otherwise it is
// allocated incrementally, at most readChunk bytes at first and growing
// only as the bytes arrive, so a lying length prefix cannot force a huge
// allocation, and it ends at its class's capacity so that, once released
// (Request.Release), the next frame of its size arrives into it. A clean EOF
// before the first header byte is reported as io.EOF; a stream that ends
// mid-frame is an error wrapping io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Frame{}, io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	// Validate the full header before committing any payload memory: most
	// garbage streams die here, on 13 bytes.
	if _, _, err := DecodeFrame(hdr[:]); err != nil && !errors.Is(err, ErrShortFrame) {
		return Frame{}, err
	}
	n := int(binary.BigEndian.Uint32(hdr[0:]))
	payload, err := readPayload(r, n)
	if err != nil {
		return Frame{}, fmt.Errorf("transport: truncated frame: %w", err)
	}
	return Frame{
		Type:    hdr[4],
		Rank:    int(binary.BigEndian.Uint32(hdr[5:])),
		Tag:     int(binary.BigEndian.Uint32(hdr[9:])),
		Payload: payload,
	}, nil
}

// readPayload reads the n payload bytes of a frame: into warm storage when
// slab.Bytes holds a buffer of n's class (given back if the read fails), else
// into a buffer that grows as the bytes arrive, up to n's class capacity.
func readPayload(r io.Reader, n int) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	if p := slab.Bytes.Warm(n); p != nil {
		if _, err := io.ReadFull(r, p); err != nil {
			slab.Bytes.Put(p)
			return nil, err
		}
		return p, nil
	}
	_, size := slab.Class(n)
	p := make([]byte, 0, min(size, readChunk))
	for len(p) < n {
		step := min(n-len(p), readChunk)
		if len(p)+step > cap(p) {
			p = append(make([]byte, 0, min(max(len(p)+len(p)/4, len(p)+step), size)), p...)
		}
		off := len(p)
		p = p[:off+step]
		if _, err := io.ReadFull(r, p[off:]); err != nil {
			return nil, err
		}
	}
	return p, nil
}
