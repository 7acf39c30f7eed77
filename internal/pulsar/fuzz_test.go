package pulsar

import (
	"testing"

	"pulsarqr/internal/matrix"
)

// FuzzUnmarshalPacket drives the codec dispatcher, decoding each input into
// fresh storage and into a 3×3 matrix landing: it must never panic, only
// return errors.
func FuzzUnmarshalPacket(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 1})
	f.Add([]byte{4, 10, 20})
	for _, m := range []*matrix.Mat{matrix.Identity(3), matrix.New(2, 5)} {
		b, _ := MarshalPacket(NewPacket(m))
		f.Add(b)
	}
	f.Add([]byte{1, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, b []byte) {
		_, _ = UnmarshalPacket(b)
		_, _ = unmarshalInto(b, matrix.New(3, 3))
	})
}
