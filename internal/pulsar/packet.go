// Package pulsar implements the PULSAR Runtime (PRT): a lightweight layer
// that maps a Virtual Systolic Array — Virtual Data Processors (VDPs)
// connected by FIFO channels — onto a collection of "nodes", each running a
// set of worker threads and one proxy dedicated to inter-node
// communication, exactly as described in §IV of the paper.
//
// Execution is data-stream-driven: a VDP fires when every one of its
// active input channels holds a packet. Firing runs the VDP's function,
// which may pop packets, invoke computational kernels, create packets and
// push them to output channels. Each firing decrements the VDP's counter;
// at zero the VDP is destroyed. Intra-node channels hand packet pointers
// across zero-copy; inter-node channels marshal payloads and move them
// through a pluggable transport (in-process by default, TCP between real
// OS processes via Config.Comm) using one tag per channel within each node
// pair, mirroring the six-call MPI usage of the original runtime.
package pulsar

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/wire"
)

// Packet is the unit of data flowing through channels. Within a node the
// pointer itself is handed over (zero-copy aliasing); across nodes the
// payload is marshaled with a registered codec.
type Packet struct {
	Data any
}

// NewPacket wraps a payload in a packet.
func NewPacket(data any) *Packet { return &Packet{Data: data} }

// Tile returns the payload as a *matrix.Mat, panicking with a descriptive
// message on type mismatch; it is the common case in the QR array.
func (p *Packet) Tile() *matrix.Mat {
	t, ok := p.Data.(*matrix.Mat)
	if !ok {
		panic(fmt.Sprintf("pulsar: packet payload is %T, not a tile", p.Data))
	}
	return t
}

// Codec (un)marshals one payload type for inter-node transport. A decoder
// must not keep b: the proxy gives the received bytes back to the transport
// once the packet is decoded.
type Codec struct {
	ID byte
	// Decode decodes b into into and returns the payload. A nil into decodes
	// into fresh storage. A non-nil one is a channel's landing (VSA.Land),
	// storage of the payload's type that the packet must fit exactly, and
	// the payload is built on it; a codec whose payloads never land refuses
	// it with an error.
	Decode func(b []byte, into any) (any, error)
	// EncodeAppend appends the payload encoding to dst and returns the
	// extended slice, so marshal buffers can be pooled across packets. On a
	// type mismatch it must report false without having grown dst's
	// contents meaningfully (the caller discards the returned slice in that
	// case), so the registry can try the next codec.
	EncodeAppend func(dst []byte, v any) ([]byte, bool)
}

var (
	codecMu  sync.RWMutex
	codecs   = map[byte]Codec{}
	codecSeq []Codec
)

// RegisterCodec installs a payload codec. IDs below 16 are reserved for
// the built-in codecs; registering a duplicate ID panics.
func RegisterCodec(c Codec) {
	codecMu.Lock()
	defer codecMu.Unlock()
	if _, dup := codecs[c.ID]; dup {
		panic(fmt.Sprintf("pulsar: duplicate codec id %d", c.ID))
	}
	codecs[c.ID] = c
	codecSeq = append(codecSeq, c)
}

func init() {
	RegisterCodec(Codec{
		ID: 1,
		EncodeAppend: func(dst []byte, v any) ([]byte, bool) {
			m, ok := v.(*matrix.Mat)
			if !ok {
				return dst, false
			}
			dst, _ = wire.AppendDimMat(dst, m)
			return dst, true
		},
		Decode: func(b []byte, into any) (any, error) {
			m, ok := into.(*matrix.Mat)
			if !ok && into != nil {
				return nil, fmt.Errorf("pulsar: a matrix packet cannot land in %T", into)
			}
			m, rest, err := wire.ConsumeDimMat(m, b)
			if err == nil && len(rest) != 0 {
				err = fmt.Errorf("pulsar: %d bytes after a %dx%d matrix payload", len(rest), m.Rows, m.Cols)
			}
			return m, err
		},
	})
	RegisterCodec(Codec{
		ID: 2,
		EncodeAppend: func(dst []byte, v any) ([]byte, bool) {
			f, ok := v.([]float64)
			if !ok {
				return dst, false
			}
			dst, _ = wire.AppendFloats(dst, f)
			return dst, true
		},
		Decode: fresh(func(b []byte) (any, error) {
			if len(b)%8 != 0 {
				return nil, fmt.Errorf("pulsar: float64 payload length %d", len(b))
			}
			f := make([]float64, len(b)/8)
			wire.Floats(f, b)
			return f, nil
		}),
	})
	RegisterCodec(Codec{
		ID: 3,
		EncodeAppend: func(dst []byte, v any) ([]byte, bool) {
			s, ok := v.([]int)
			dst = slices.Grow(dst, 8*len(s))
			for _, x := range s {
				dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(x)))
			}
			return dst, ok
		},
		Decode: fresh(func(b []byte) (any, error) {
			if len(b)%8 != 0 {
				return nil, fmt.Errorf("pulsar: int payload length %d", len(b))
			}
			s := make([]int, len(b)/8)
			for i := range s {
				s[i] = int(int64(binary.LittleEndian.Uint64(b[8*i:])))
			}
			return s, nil
		}),
	})
	RegisterCodec(Codec{
		ID: 4,
		EncodeAppend: func(dst []byte, v any) ([]byte, bool) {
			b, ok := v.([]byte)
			return append(dst, b...), ok
		},
		Decode: fresh(func(b []byte) (any, error) { return bytes.Clone(b), nil }),
	})
}

// fresh is the Codec.Decode of a payload that never lands: decode builds it
// in fresh storage, and a landing is an error.
func fresh(decode func(b []byte) (any, error)) func([]byte, any) (any, error) {
	return func(b []byte, into any) (any, error) {
		if into != nil {
			return nil, fmt.Errorf("pulsar: a %T landing for a payload that never lands", into)
		}
		return decode(b)
	}
}

// MarshalPacket serializes a packet for inter-node transport: one codec ID
// byte followed by the codec's payload bytes. Besides the runtime's own
// inter-node channels, distributed drivers use it to ship collector output
// between processes.
func MarshalPacket(p *Packet) ([]byte, error) {
	return appendPacket(nil, p)
}

// appendPacket appends the wire form of p (codec ID byte + payload) to dst.
// MarshalPacket is this with a nil dst and so always returns a fresh slice;
// the runtime's inter-node send path passes warm buffers instead.
func appendPacket(dst []byte, p *Packet) ([]byte, error) {
	codecMu.RLock()
	defer codecMu.RUnlock()
	id := len(dst)
	dst = append(dst, 0)
	for _, c := range codecSeq {
		dst[id] = c.ID
		if out, ok := c.EncodeAppend(dst, p.Data); ok {
			return out, nil
		}
		// A mismatch left dst's length unchanged; try the next codec.
	}
	return nil, fmt.Errorf("pulsar: no codec for payload type %T", p.Data)
}

// UnmarshalPacket reverses MarshalPacket.
func UnmarshalPacket(b []byte) (*Packet, error) { return unmarshalInto(b, nil) }

// unmarshalInto is UnmarshalPacket decoding into landing, when not nil
// (Codec.Decode).
func unmarshalInto(b []byte, landing any) (*Packet, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("pulsar: empty packet payload")
	}
	codecMu.RLock()
	c, ok := codecs[b[0]]
	codecMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("pulsar: unknown codec id %d", b[0])
	}
	v, err := c.Decode(b[1:], landing)
	if err != nil {
		return nil, err
	}
	return &Packet{Data: v}, nil
}
