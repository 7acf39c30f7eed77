package wire

import (
	"bytes"
	"testing"

	"pulsarqr/internal/matrix"
)

// FuzzConsumeDimMat drives the one decoder that takes dimensions from its
// input — every inter-node packet goes through it — with arbitrary bytes: it
// must never panic, never hand back (or back with storage for) more than the
// input could hold, and re-encode what it accepted to the bytes it consumed.
func FuzzConsumeDimMat(f *testing.F) {
	for _, m := range []*matrix.Mat{matrix.Identity(3), matrix.New(2, 5), matrix.New(0, 3), matrix.New(3, 0)} {
		b, _ := AppendDimMat(nil, m)
		f.Add(b)
		f.Add(append(b, b...)) // two chained
	}
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, rest, err := ConsumeDimMat(b)
		if err != nil {
			return
		}
		used := len(b) - len(rest)
		if used != 8+8*m.Rows*m.Cols || len(m.Data) > len(b) {
			t.Fatalf("%d bytes in: a %dx%d matrix on %d floats, %d bytes consumed", len(b), m.Rows, m.Cols, len(m.Data), used)
		}
		if again, _ := AppendDimMat(nil, m); !bytes.Equal(again, b[:used]) {
			t.Fatalf("a %dx%d matrix re-encodes to different bytes", m.Rows, m.Cols)
		}
	})
}
