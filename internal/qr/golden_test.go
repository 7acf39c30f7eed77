package qr

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/pulsar"
)

// The qr half of internal/wire's golden vectors: the packets only this
// package can build (codec 16 and a rank's input sketch), recorded
// from the encoders as they stood before internal/wire existed (the sketch
// since it replaced the Gram). See internal/wire/golden_test.go.

func goldenTile(seed int64, rows, cols int) *matrix.Mat {
	m := matrix.NewRand(rows+3, cols+2, rand.New(rand.NewSource(seed))).View(2, 1, rows, cols)
	for k, bits := range []uint64{0x7ff80000deadbeef, 0x8000000000000000, 0x0000000000000001, 0xfff0000000000000} {
		at := (5*k + 1) % (rows * cols)
		m.Set(at%rows, at/rows, math.Float64frombits(bits))
	}
	return m
}

func goldenBytes(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("..", "wire", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: encoder wrote %d bytes that differ from the %d recorded", name, len(got), len(want))
	}
	return want
}

func sameTileBits(t *testing.T, what string, got, want *matrix.Mat) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: decoded %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for j := 0; j < want.Cols; j++ {
		for i := 0; i < want.Rows; i++ {
			if g, w := math.Float64bits(got.At(i, j)), math.Float64bits(want.At(i, j)); g != w {
				t.Fatalf("%s: element (%d,%d) is %016x, want %016x", what, i, j, g, w)
			}
		}
	}
}

func TestGoldenPackets(t *testing.T) {
	vt := &vtMsg{V: goldenTile(40, 6, 4), T: matrix.NewRand(2, 4, rand.New(rand.NewSource(41)))}
	b, err := pulsar.MarshalPacket(pulsar.NewPacket(vt))
	if err != nil {
		t.Fatal(err)
	}
	p, err := pulsar.UnmarshalPacket(goldenBytes(t, "packet16.golden", b))
	if err != nil {
		t.Fatal(err)
	}
	sameTileBits(t, "vt V", p.Data.(*vtMsg).V, vt.V)
	sameTileBits(t, "vt T", p.Data.(*vtMsg).T, vt.T)

	sk := &Sketch{Z: goldenTile(44, 5, sketchWidth)}
	z, err := decodeSketch(goldenBytes(t, "sketch.golden", sk.encode()), 5)
	if err != nil {
		t.Fatal(err)
	}
	sameTileBits(t, "sketch Z", z, sk.Z)
}

// Codec 16 writes both matrices straight into the destination: a
// marshal from nothing costs that buffer (after its one-byte start) and no
// temporary — there used to be three slices and two copies per packet — and
// the buffer is sized once, not doubled up to.
func TestPacketCodecsAllocateOnlyTheBuffer(t *testing.T) {
	tile := matrix.NewRand(192, 192, rand.New(rand.NewSource(1)))
	p := pulsar.NewPacket(&vtMsg{V: tile, T: tile.View(0, 0, 24, 192)})
	if n := testing.AllocsPerRun(20, func() { pulsar.MarshalPacket(p) }); n > 3 { // 2; the race detector adds one
		t.Errorf("%v allocations per marshal, want at most 3 (there were 5)", n)
	}
	if b, _ := pulsar.MarshalPacket(p); cap(b) > len(b)+len(b)/16 {
		t.Errorf("%d bytes in a buffer of %d", len(b), cap(b))
	}
}

// A (V,T) packet lands in strided views of its landing, which receive
// exactly the bits appendTwoMats wrote and nothing around them; a V or a T
// of another shape, a wrong length prefix, trailing bytes and a landing that
// is not a (V,T) packet are errors.
func TestVTPacketLandsInItsViews(t *testing.T) {
	vt := &vtMsg{V: goldenTile(40, 6, 4), T: goldenTile(41, 2, 4)}
	b := appendTwoMats(nil, vt.V, vt.T)
	host := matrix.New(9, 9)
	into := &vtMsg{V: host.View(1, 0, 6, 4), T: host.View(7, 4, 2, 4)}
	got, err := vtCodec.Decode(b, into)
	if err != nil {
		t.Fatal(err)
	}
	if got != into {
		t.Fatalf("the packet decoded into a %T of its own, not its landing", got)
	}
	if again := appendTwoMats(nil, into.V, into.T); !bytes.Equal(again, b) {
		t.Fatal("the landed V and T re-encode to different bytes")
	}
	sameTileBits(t, "landed V", into.V, vt.V)
	sameTileBits(t, "landed T", into.T, vt.T)
	for _, v := range []*matrix.Mat{into.V, into.T} {
		for j := 0; j < v.Cols; j++ {
			for i := 0; i < v.Rows; i++ {
				v.Set(i, j, 0)
			}
		}
	}
	for k, x := range host.Data {
		if x != 0 {
			t.Fatalf("element %d of the host, outside both views, reads %g", k, x)
		}
	}

	prefix := append([]byte(nil), b...)
	prefix[0]++
	for name, tc := range map[string]struct {
		b    []byte
		into any
	}{
		"V shape":       {b, &vtMsg{V: matrix.New(5, 4), T: matrix.New(2, 4)}},
		"T shape":       {b, &vtMsg{V: matrix.New(6, 4), T: matrix.New(2, 3)}},
		"length prefix": {prefix, &vtMsg{V: matrix.New(6, 4), T: matrix.New(2, 4)}},
		"trailing byte": {append(append([]byte(nil), b...), 0), &vtMsg{V: matrix.New(6, 4), T: matrix.New(2, 4)}},
		"a matrix":      {b, matrix.New(6, 4)},
	} {
		if _, err := vtCodec.Decode(tc.b, tc.into); err == nil {
			t.Errorf("%s: the packet landed without an error", name)
		}
	}
}

// FuzzVTPacket drives codec 16, which carries every by-pass transformation
// and every gathered log entry, with arbitrary payloads: decoded into fresh
// storage through pulsar.UnmarshalPacket, into a (V,T) landing of a fixed
// shape and into a matrix landing, it must never panic. A fresh decode that
// succeeds holds no matrix of more floats than the payload has bytes and
// re-encodes to the same bytes; a landing decode that succeeds holds what the
// fresh one does; a matrix landing is always an error.
func FuzzVTPacket(f *testing.F) {
	for _, vt := range []*vtMsg{
		{V: goldenTile(40, 6, 4), T: goldenTile(41, 2, 4)},
		{V: matrix.New(0, 4), T: matrix.New(0, 0)},
		{V: matrix.New(3, 0), T: matrix.New(2, 4)},
		{V: matrix.Identity(2), T: matrix.New(1, 2)},
	} {
		b := appendTwoMats(nil, vt.V, vt.T)
		f.Add(b)
		f.Add(b[:len(b)-1])
		f.Add(append(b, 0))
	}
	f.Add([]byte{})
	f.Add([]byte{255, 255, 255, 255, 1, 0, 0, 0, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		pkt := append([]byte{vtCodec.ID}, b...)
		p, err := pulsar.UnmarshalPacket(pkt)
		var fresh *vtMsg
		if err == nil {
			fresh = p.Data.(*vtMsg)
			if max(len(fresh.V.Data), len(fresh.T.Data)) > len(b) {
				t.Fatalf("%d payload bytes decoded into %d and %d floats", len(b), len(fresh.V.Data), len(fresh.T.Data))
			}
			if again, err := pulsar.MarshalPacket(p); err != nil || !bytes.Equal(again, pkt) {
				t.Fatalf("a %dx%d V and %dx%d T re-encode to different bytes (%v)", fresh.V.Rows, fresh.V.Cols, fresh.T.Rows, fresh.T.Cols, err)
			}
		}
		into := &vtMsg{V: matrix.New(6, 4), T: matrix.New(2, 4)}
		if _, err := vtCodec.Decode(b, into); err == nil {
			if fresh == nil {
				t.Fatal("a payload landed that does not decode fresh")
			}
			if !bytes.Equal(appendTwoMats(nil, into.V, into.T), b) {
				t.Fatal("a landed payload re-encodes to different bytes")
			}
		}
		if _, err := vtCodec.Decode(b, matrix.New(6, 4)); err == nil {
			t.Fatal("a (V,T) payload landed in a matrix")
		}
	})
}
