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
// package can build (codecs 16 and 17, and a rank's input sketch), recorded
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

	cm := &collectMsg{Kind: Ttqrt, J: 1, I: -1, K: 70000, Tile: goldenTile(42, 5, 5), T: goldenTile(43, 2, 5)}
	if b, err = pulsar.MarshalPacket(pulsar.NewPacket(cm)); err != nil {
		t.Fatal(err)
	}
	if p, err = pulsar.UnmarshalPacket(goldenBytes(t, "packet17.golden", b)); err != nil {
		t.Fatal(err)
	}
	got := p.Data.(*collectMsg)
	if got.Kind != cm.Kind || got.J != cm.J || got.I != cm.I || got.K != cm.K {
		t.Fatalf("collect header %v (%d,%d,%d), want %v (%d,%d,%d)", got.Kind, got.J, got.I, got.K, cm.Kind, cm.J, cm.I, cm.K)
	}
	sameTileBits(t, "collect tile", got.Tile, cm.Tile)
	sameTileBits(t, "collect T", got.T, cm.T)

	sk := &Sketch{Z: goldenTile(44, 5, sketchWidth)}
	z, err := decodeSketch(goldenBytes(t, "sketch.golden", sk.encode()), 5)
	if err != nil {
		t.Fatal(err)
	}
	sameTileBits(t, "sketch Z", z, sk.Z)
}

// Codecs 16 and 17 write both matrices straight into the destination: a
// marshal from nothing costs that buffer (after its one-byte start) and no
// temporary — there used to be three slices and two copies per packet — and
// the buffer is sized once, not doubled up to.
func TestPacketCodecsAllocateOnlyTheBuffer(t *testing.T) {
	tile := matrix.NewRand(192, 192, rand.New(rand.NewSource(1)))
	for _, data := range []any{&vtMsg{V: tile, T: tile.View(0, 0, 24, 192)}, &collectMsg{Tile: tile, T: tile.View(0, 0, 24, 192)}} {
		p := pulsar.NewPacket(data)
		if n := testing.AllocsPerRun(20, func() { pulsar.MarshalPacket(p) }); n > 3 { // 2; the race detector adds one
			t.Errorf("%T: %v allocations per marshal, want at most 3 (there were 5)", data, n)
		}
		if b, _ := pulsar.MarshalPacket(p); cap(b) > len(b)+len(b)/16 {
			t.Errorf("%T: %d bytes in a buffer of %d", data, len(b), cap(b))
		}
	}
}

// A (V,T) packet lands in strided views of its landing, which receive
// exactly the bits appendTwoMats wrote and nothing around them; a V or a T
// of another shape, a wrong length prefix, trailing bytes and a landing that
// is not a (V,T) packet are errors.
func TestVTPacketLandsInItsViews(t *testing.T) {
	vt := &vtMsg{V: goldenTile(40, 6, 4), T: goldenTile(41, 2, 4)}
	b := appendTwoMats(nil, nil, vt.V, vt.T)
	host := matrix.New(9, 9)
	into := &vtMsg{V: host.View(1, 0, 6, 4), T: host.View(7, 4, 2, 4)}
	got, err := vtCodec.Decode(b, into)
	if err != nil {
		t.Fatal(err)
	}
	if got != into {
		t.Fatalf("the packet decoded into a %T of its own, not its landing", got)
	}
	if again := appendTwoMats(nil, nil, into.V, into.T); !bytes.Equal(again, b) {
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
