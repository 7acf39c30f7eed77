package session

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"

	"pulsarqr/internal/matrix"
)

// FuzzCheckpointReader feeds arbitrary bytes to the QSC1 decoder. The
// decoder must never panic, never allocate beyond the validated-dims bound
// regardless of the bytes supplied, and must roundtrip anything it accepts.
func FuzzCheckpointReader(f *testing.F) {
	// Seed with a valid checkpoint, a header-only prefix, and structured noise.
	rng := rand.New(rand.NewSource(17))
	cp := randCheckpoint(rng)
	var buf bytes.Buffer
	if _, err := WriteCheckpoint(&buf, cp); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	f.Add(full)
	f.Add(full[:40])
	f.Add([]byte("QSC1"))
	f.Add(append([]byte("QSC1"), bytes.Repeat([]byte{0xff}, 60)...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			// Header-only mode must not panic on rejected inputs either
			// (it may validly accept a header whose spine is bad).
			ReadCheckpointInfo(bytes.NewReader(data))
			return
		}
		// Anything accepted must re-encode to a stream the reader accepts
		// again with identical structure (write canonicalizes, so compare
		// semantically, not byte-for-byte).
		var out bytes.Buffer
		if _, err := WriteCheckpoint(&out, cp); err != nil {
			t.Fatalf("accepted checkpoint does not re-encode: %v", err)
		}
		cp2, err := ReadCheckpoint(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded checkpoint rejected: %v", err)
		}
		if cp2.ID != cp.ID || cp2.Blocks != cp.Blocks || cp2.Rows != cp.Rows || len(cp2.Spine) != len(cp.Spine) {
			t.Fatalf("roundtrip drift: %+v vs %+v", cp2, cp)
		}
	})
}

// FuzzAppendReader feeds arbitrary bytes to the QSA1 block decoder. Every
// block it decodes stays live until the stream ends: no two may share
// backing, and each goes back to slab.Floats after.
func FuzzAppendReader(f *testing.F) {
	var body bytes.Buffer
	WriteAppendHeader(&body, 2)
	f.Add(body.Bytes())
	rng := rand.New(rand.NewSource(19))
	for _, rows := range []int{3, 1} {
		body.Write(AppendBlock(nil, matrix.NewRand(rows, 8, rng), matrix.NewRand(rows, 2, rng)))
	}
	f.Add(body.Bytes())
	f.Add([]byte("QSA1"))
	f.Add(append([]byte("QSA1"), 0xff, 0xff, 0xff, 0xff))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ar, err := NewAppendReader(bytes.NewReader(data), 8, 2)
		if err != nil {
			return
		}
		var live []*matrix.Mat
		defer func() {
			for _, b := range live {
				releaseBlock(b)
			}
		}()
		for {
			block, rhs, err := ar.Next()
			if err != nil {
				return
			}
			if block.Cols != 8 || rhs == nil || rhs.Cols != 2 || rhs.Rows != block.Rows || block.Rows < 1 || block.Rows > MaxBlockRows {
				t.Fatalf("decoder emitted out-of-contract block %dx%d", block.Rows, block.Cols)
			}
			for i, b := range live {
				if overlap(b.Data, block.Data) {
					t.Fatalf("block %d shares backing with live block %d", len(live), i)
				}
			}
			live = append(live, block)
		}
	})
}

// overlap reports whether the backing arrays of a and b, to their
// capacities, share an element.
func overlap(a, b []float64) bool {
	a0, b0 := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return a0 < b0+8*uintptr(cap(b)) && b0 < a0+8*uintptr(cap(a))
}
