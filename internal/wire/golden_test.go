package wire_test

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pulsarqr/internal/batch"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/pulsar"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/session"
)

// The files under testdata were written by the encoders as they stood
// before this package existed (batch/wire.go, session/wire.go,
// session/checkpoint.go and pulsar/packet.go each with its own element
// loop), from the inputs built below. Every format must come out byte for
// byte the same and read back bit for bit the same: these bytes are on
// clients' disks and in flight between versions.

// specials are bit patterns a float conversion could mangle: NaNs with
// payloads, −0, the smallest and largest denormal, both infinities.
var specials = []uint64{
	0x7ff80000deadbeef, 0xfff8000000000001, 0x8000000000000000,
	0x0000000000000001, 0x000fffffffffffff, 0x7ff0000000000000, 0xfff0000000000000,
}

// goldenMat is a rows×cols view (LD > Rows) into a seeded random matrix
// with the specials scattered over it.
func goldenMat(seed int64, rows, cols int) *matrix.Mat {
	m := matrix.NewRand(rows+3, cols+2, rand.New(rand.NewSource(seed))).View(2, 1, rows, cols)
	for k, bits := range specials {
		if e := rows * cols; e > 0 {
			at := (5*k + 1) % e
			m.Set(at%rows, at/rows, math.Float64frombits(bits))
		}
	}
	return m
}

// goldenR is a compact upper-triangular n×n matrix of ordinary values, the
// shape a committed spine node holds.
func goldenR(seed int64, n int) *matrix.Mat {
	return matrix.NewRand(n, n, rand.New(rand.NewSource(seed))).UpperTriangle()
}

func golden(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: encoder wrote %d bytes that differ from the %d recorded", name, len(got), len(want))
	}
	return want
}

func sameBits(t *testing.T, what string, got, want *matrix.Mat) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: got %v, want %v", what, got, want)
	}
	if got == nil {
		return
	}
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

func xorBits(ms ...*matrix.Mat) (sum uint64) {
	for _, m := range ms {
		for j := 0; j < m.Cols; j++ {
			for _, v := range m.Col(j) {
				sum ^= math.Float64bits(v)
			}
		}
	}
	return sum
}

func TestGoldenBatch(t *testing.T) {
	mats := []*matrix.Mat{
		goldenMat(1, 5, 3),
		matrix.NewRand(8, 8, rand.New(rand.NewSource(2))),
		goldenMat(3, 1, 1),
		goldenMat(4, batch.MaxDim, 2),
	}
	var req bytes.Buffer
	if err := batch.WriteRequestHeader(&req, len(mats)); err != nil {
		t.Fatal(err)
	}
	b := req.Bytes()
	for _, m := range mats {
		b = batch.AppendMatrix(b, m)
	}
	rr, err := batch.NewRequestReader(bytes.NewReader(golden(t, "qbr1.golden", b)))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range mats {
		got, err := rr.Next()
		if err != nil {
			t.Fatalf("matrix %d: %v", i, err)
		}
		sameBits(t, "request matrix", got, want)
	}
	if _, err := rr.Next(); err != io.EOF {
		t.Fatalf("past the count: %v, want io.EOF", err)
	}

	rs := []*matrix.Mat{goldenMat(5, 4, 4), goldenR(6, 3), goldenMat(7, 1, 1)}
	index := []int{2, 0, 7}
	var resp bytes.Buffer
	rw, err := batch.NewResultWriter(&resp)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if err := rw.WriteResult(index[i], r); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.WriteTrailer(5); err != nil {
		t.Fatal(err)
	}
	rd, err := batch.NewResultReader(bytes.NewReader(golden(t, "qbs1.golden", resp.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range rs {
		res, tr, err := rd.Next()
		if err != nil || tr != nil {
			t.Fatalf("result %d: %v (trailer %v)", i, err, tr)
		}
		if res.Index != index[i] {
			t.Fatalf("result %d carries index %d, want %d", i, res.Index, index[i])
		}
		sameBits(t, "result", res.R, want)
	}
	_, tr, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Done != 3 || tr.Shed != 5 || tr.Sum != xorBits(rs...) {
		t.Fatalf("trailer %+v, want 3 done, 5 shed, sum %016x", tr, xorBits(rs...))
	}
}

func TestGoldenSessionStreams(t *testing.T) {
	const n = 4
	for _, tc := range []struct {
		file string
		nrhs int
	}{{"qsa1.golden", 0}, {"qsa1_rhs.golden", 2}} {
		blocks := []*matrix.Mat{goldenMat(10, 6, n), matrix.NewRand(3, n, rand.New(rand.NewSource(11)))}
		rhs := []*matrix.Mat{nil, nil}
		if tc.nrhs > 0 {
			rhs = []*matrix.Mat{goldenMat(12, 6, tc.nrhs), matrix.NewRand(3, tc.nrhs, rand.New(rand.NewSource(13)))}
		}
		var body bytes.Buffer
		if err := session.WriteAppendHeader(&body, len(blocks)); err != nil {
			t.Fatal(err)
		}
		b := body.Bytes()
		for i := range blocks {
			b = session.AppendBlock(b, blocks[i], rhs[i])
		}
		ar, err := session.NewAppendReader(bytes.NewReader(golden(t, tc.file, b)), n, tc.nrhs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range blocks {
			gb, gr, err := ar.Next()
			if err != nil {
				t.Fatalf("%s block %d: %v", tc.file, i, err)
			}
			sameBits(t, tc.file+" block", gb, blocks[i])
			sameBits(t, tc.file+" rhs", gr, rhs[i])
		}
		if _, _, err := ar.Next(); err != io.EOF {
			t.Fatalf("%s past the count: %v, want io.EOF", tc.file, err)
		}
	}

	for _, tc := range []struct {
		file string
		rs   []*matrix.Mat
		shed int
	}{
		{"qsb1.golden", []*matrix.Mat{goldenMat(14, n, n), goldenR(15, n)}, 1},
		{"qsb1_ack.golden", []*matrix.Mat{nil, nil}, 0},
	} {
		var resp bytes.Buffer
		rw, err := session.NewReplyWriter(&resp)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range tc.rs {
			if err := rw.WriteUpdate(int64(i+1), int64(6+3*i), r); err != nil {
				t.Fatal(err)
			}
		}
		if err := rw.WriteTrailer(tc.shed); err != nil {
			t.Fatal(err)
		}
		rd, err := session.NewReplyReader(bytes.NewReader(golden(t, tc.file, resp.Bytes())), n)
		if err != nil {
			t.Fatal(err)
		}
		var sum uint64
		for i, want := range tc.rs {
			up, tr, err := rd.Next()
			if err != nil || tr != nil {
				t.Fatalf("%s frame %d: %v (trailer %v)", tc.file, i, err, tr)
			}
			if up.Blocks != int64(i+1) || up.Rows != int64(6+3*i) {
				t.Fatalf("%s frame %d: totals %d/%d", tc.file, i, up.Blocks, up.Rows)
			}
			sameBits(t, tc.file+" R", up.R, want)
			if want != nil {
				sum ^= xorBits(want)
			}
		}
		_, tr, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tr.Done != len(tc.rs) || tr.Shed != tc.shed || tr.Sum != sum {
			t.Fatalf("%s trailer %+v, want %d done, %d shed, sum %016x", tc.file, tr, len(tc.rs), tc.shed, sum)
		}
	}
}

// goldenCheckpoint is a two-node binary-counter spine over three blocks.
// Without rhs its R factors are ordinary triangles, so the restore test can
// fold them; with rhs every matrix is a view full of specials.
func goldenCheckpoint(nrhs int) *session.Checkpoint {
	const n = 4
	cp := &session.Checkpoint{
		ID: "golden0123456789", Tenant: "acme", N: n, NRHS: nrhs,
		Opts: qr.Options{NB: 192, IB: 24}, Every: 2, Ack: nrhs > 0,
		Blocks: 3, Rows: 13,
		Spine: []*qr.StreamNode{
			{Blocks: 2, Rows: 9, R: goldenR(20, n)},
			{Blocks: 1, Rows: 4, R: goldenR(21, n)},
		},
	}
	if nrhs > 0 {
		cp.ID = "golden-rhs"
		for i, nd := range cp.Spine {
			nd.R = goldenMat(int64(22+i), n, n)
			nd.QTB = goldenMat(int64(24+i), n, nrhs)
		}
	}
	return cp
}

func TestGoldenCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		file string
		nrhs int
	}{{"qsc1.golden", 0}, {"qsc1_rhs.golden", 2}} {
		cp := goldenCheckpoint(tc.nrhs)
		var buf bytes.Buffer
		if _, err := session.WriteCheckpoint(&buf, cp); err != nil {
			t.Fatal(err)
		}
		got, err := session.ReadCheckpoint(bytes.NewReader(golden(t, tc.file, buf.Bytes())))
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if len(got.Spine) != len(cp.Spine) {
			t.Fatalf("%s: spine depth %d, want %d", tc.file, len(got.Spine), len(cp.Spine))
		}
		for i, nd := range cp.Spine {
			g := got.Spine[i]
			if g.Blocks != nd.Blocks || g.Rows != nd.Rows {
				t.Fatalf("%s node %d: counts %d/%d", tc.file, i, g.Blocks, g.Rows)
			}
			sameBits(t, tc.file+" R", g.R, nd.R)
			sameBits(t, tc.file+" QTB", g.QTB, nd.QTB)
		}
		got.Spine, cp.Spine = nil, nil
		if !reflect.DeepEqual(got, cp) {
			t.Fatalf("%s: header %+v, want %+v", tc.file, got, cp)
		}
	}
}

// A checkpoint file left by the previous version comes back through the
// path a restarted server takes — boot scan of the directory, then a lazy
// spine load on first use — with the state the spine folds to, bit for bit.
func TestGoldenCheckpointRestoresThroughTable(t *testing.T) {
	file, err := os.ReadFile(filepath.Join("testdata", "qsc1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	cp := goldenCheckpoint(0)
	dir := t.TempDir()
	if err := os.WriteFile(session.CheckpointPath(dir, cp.ID), file, 0o644); err != nil {
		t.Fatal(err)
	}
	pool := pulsar.NewPool(1, nil)
	defer pool.Close()
	tbl, err := session.NewTable(session.Config{Pool: pool, Dir: dir, IdleTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	s, err := tbl.Get(cp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info := s.Info(); info.Loaded || info.Blocks != cp.Blocks || info.Rows != cp.Rows || info.Tenant != cp.Tenant {
		t.Fatalf("boot scan registered %+v", info)
	}
	got, err := s.Current()
	if err != nil {
		t.Fatal(err)
	}
	str, err := qr.RestoreStreamer(cp.N, cp.NRHS, cp.Opts, cp.Spine)
	if err != nil {
		t.Fatal(err)
	}
	want := str.Current(nil, nil)
	if got.Blocks != want.Blocks || got.Rows != want.Rows {
		t.Fatalf("restored totals %d/%d, want %d/%d", got.Blocks, got.Rows, want.Blocks, want.Rows)
	}
	sameBits(t, "restored R", got.R, want.R)
}

func TestGoldenPackets(t *testing.T) {
	floats := make([]float64, len(specials)+2)
	for i, bits := range specials {
		floats[i] = math.Float64frombits(bits)
	}
	floats[len(specials)], floats[len(specials)+1] = 0.1, -2.5
	for _, tc := range []struct {
		file string
		data any
	}{
		{"packet1_view.golden", goldenMat(30, 5, 3)},
		{"packet1_0xn.golden", matrix.New(0, 3)},
		{"packet1_nx0.golden", matrix.New(3, 0)},
		{"packet2.golden", floats},
		{"packet3.golden", []int{-1, 0, 1 << 40, math.MinInt64}},
		{"packet4.golden", []byte("golden\x00\xff")},
	} {
		b, err := pulsar.MarshalPacket(pulsar.NewPacket(tc.data))
		if err != nil {
			t.Fatal(err)
		}
		p, err := pulsar.UnmarshalPacket(golden(t, tc.file, b))
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		switch want := tc.data.(type) {
		case *matrix.Mat:
			sameBits(t, tc.file, p.Tile(), want)
		case []float64:
			got := p.Data.([]float64)
			sameBits(t, tc.file, matrix.FromColMajor(len(got), 1, max(len(got), 1), got),
				matrix.FromColMajor(len(want), 1, len(want), want))
		default:
			if !reflect.DeepEqual(p.Data, tc.data) {
				t.Fatalf("%s: decoded %v, want %v", tc.file, p.Data, tc.data)
			}
		}
	}
}
