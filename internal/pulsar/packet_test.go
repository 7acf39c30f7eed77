package pulsar

import (
	"math/rand"
	"testing"

	"pulsarqr/internal/matrix"
)

func TestPacketTileTypeMismatchPanics(t *testing.T) {
	p := NewPacket([]int{1})
	defer func() {
		if recover() == nil {
			t.Fatal("Tile() on non-tile payload must panic")
		}
	}()
	p.Tile()
}

// A matrix packet (codec 1) that is empty, too short, declares more than it
// holds or has bytes after its matrix is an error.
func TestDecodeMatErrors(t *testing.T) {
	id, _ := MarshalPacket(NewPacket(matrix.Identity(2)))
	cases := [][]byte{
		{1},
		{1, 1, 2, 3},                        // too short
		{1, 255, 255, 255, 255, 0, 0, 0, 0}, // absurd rows
		append(id, 0),                       // trailing byte
	}
	for i, b := range cases {
		if _, err := UnmarshalPacket(b); err == nil {
			t.Errorf("case %d: expected decode error", i)
		}
	}
}

// A matrix packet lands in a view of its own shape, bit for bit, strided
// views included; a packet of any other shape, trailing bytes, a landing of
// another type and a landing for a codec that never lands are errors.
func TestPacketLandsInItsView(t *testing.T) {
	src := matrix.NewSeeded(5, 3, 7)
	b, err := MarshalPacket(NewPacket(src))
	if err != nil {
		t.Fatal(err)
	}
	host := matrix.New(9, 4)
	view := host.View(2, 1, 5, 3) // LD 9: a strided landing
	p, err := unmarshalInto(b, view)
	if err != nil {
		t.Fatal(err)
	}
	if p.Tile() != view || matrix.MaxAbsDiff(view, src) != 0 {
		t.Fatal("the packet did not land in its view as sent")
	}
	for name, tc := range map[string]struct {
		b       []byte
		landing any
	}{
		"rows differ":              {b, matrix.New(4, 3)},
		"cols differ":              {b, matrix.New(5, 4)},
		"trailing byte":            {append(append([]byte(nil), b...), 0), matrix.New(5, 3)},
		"not a matrix":             {b, []float64{1}},
		"a codec that never lands": {[]byte{2, 0, 0, 0, 0, 0, 0, 0, 0}, make([]float64, 1)},
		"truncated dims":           {b[:5], matrix.New(5, 3)},
	} {
		if _, err := unmarshalInto(tc.b, tc.landing); err == nil {
			t.Errorf("%s: landed without an error", name)
		}
	}
}

func TestUnmarshalPacketErrors(t *testing.T) {
	if _, err := UnmarshalPacket(nil); err == nil {
		t.Fatal("empty payload must fail")
	}
	if _, err := UnmarshalPacket([]byte{200, 1, 2}); err == nil {
		t.Fatal("unknown codec id must fail")
	}
	if _, err := UnmarshalPacket([]byte{2, 1, 2, 3}); err == nil {
		t.Fatal("misaligned float64 payload must fail")
	}
}

func TestEncodeMatViewCompacts(t *testing.T) {
	// Encoding a strided view must serialize only the view's elements.
	m := matrix.NewRand(6, 6, rand.New(rand.NewSource(77)))
	v := m.View(1, 1, 3, 2)
	b, err := MarshalPacket(NewPacket(v))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 1+8+8*3*2 {
		t.Fatalf("a 3x2 view marshals to %d bytes", len(b))
	}
	p, err := UnmarshalPacket(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Tile(); got.Rows != 3 || got.Cols != 2 || matrix.MaxAbsDiff(got, v) != 0 {
		t.Fatal("view round trip wrong")
	}
}
