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
// What it accepted lands bit for bit in a strided matrix of its shape, and
// in a matrix of any other shape is an error.
func FuzzConsumeDimMat(f *testing.F) {
	for _, m := range []*matrix.Mat{matrix.Identity(3), matrix.New(2, 5), matrix.New(0, 3), matrix.New(3, 0)} {
		b, _ := AppendDimMat(nil, m)
		f.Add(b)
		f.Add(append(b, b...)) // two chained
	}
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, rest, err := ConsumeDimMat(nil, b)
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
		held := matrix.New(m.Rows+1, m.Cols).View(1, 0, m.Rows, m.Cols) // strided
		got, landedRest, err := ConsumeDimMat(held, b)
		if err != nil || got != held || len(landedRest) != len(rest) {
			t.Fatalf("a %dx%d matrix does not land in a view of its shape: %v", m.Rows, m.Cols, err)
		}
		if again, _ := AppendDimMat(nil, held); !bytes.Equal(again, b[:used]) {
			t.Fatalf("a %dx%d matrix landed as different bits", m.Rows, m.Cols)
		}
		if _, _, err := ConsumeDimMat(matrix.New(m.Rows+1, m.Cols), b); err == nil {
			t.Fatalf("a %dx%d matrix landed in a %dx%d one", m.Rows, m.Cols, m.Rows+1, m.Cols)
		}
	})
}
