package session

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/qr"
)

// randCheckpoint builds a structurally valid checkpoint with a random
// binary-counter spine.
func randCheckpoint(rng *rand.Rand) *Checkpoint {
	n := 1 + rng.Intn(12)
	nrhs := rng.Intn(3)
	cp := &Checkpoint{
		ID:     "deadbeef01234567",
		Tenant: "acme",
		N:      n,
		NRHS:   nrhs,
		Opts:   qr.Options{NB: 8 + rng.Intn(56), IB: 1 + rng.Intn(8)},
		Every:  rng.Intn(4),
		Ack:    rng.Intn(2) == 1,
	}
	if cp.Opts.IB > cp.Opts.NB {
		cp.Opts.IB = cp.Opts.NB
	}
	count := int64(1 + rng.Intn(127))
	for bit := 6; bit >= 0; bit-- { // set bits of count, descending: the binary-counter spine
		if count&(1<<bit) == 0 {
			continue
		}
		take := int64(1) << bit
		nd := &qr.StreamNode{Blocks: take, Rows: take * int64(1+rng.Intn(40))}
		nd.R = matrix.NewRand(n, n, rng)
		for j := 0; j < n; j++ { // zero below diagonal, like a real R
			for i := j + 1; i < n; i++ {
				nd.R.Set(i, j, 0)
			}
		}
		if nrhs > 0 {
			nd.QTB = matrix.NewRand(n, nrhs, rng)
		}
		cp.Spine = append(cp.Spine, nd)
		cp.Blocks += nd.Blocks
		cp.Rows += nd.Rows
	}
	return cp
}

func TestCheckpointRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		cp := randCheckpoint(rng)
		var buf bytes.Buffer
		n, err := WriteCheckpoint(&buf, cp)
		if err != nil {
			t.Fatalf("trial %d: write: %v", trial, err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("trial %d: reported %d bytes, wrote %d", trial, n, buf.Len())
		}
		got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: read: %v", trial, err)
		}
		if got.ID != cp.ID || got.Tenant != cp.Tenant || got.N != cp.N || got.NRHS != cp.NRHS ||
			got.Opts.NB != cp.Opts.NB || got.Opts.IB != cp.Opts.IB ||
			got.Every != cp.Every || got.Ack != cp.Ack ||
			got.Blocks != cp.Blocks || got.Rows != cp.Rows || len(got.Spine) != len(cp.Spine) {
			t.Fatalf("trial %d: header mismatch: %+v vs %+v", trial, got, cp)
		}
		for i, nd := range cp.Spine {
			g := got.Spine[i]
			if g.Blocks != nd.Blocks || g.Rows != nd.Rows {
				t.Fatalf("trial %d node %d: counts", trial, i)
			}
			if matrix.MaxAbsDiff(g.R, nd.R) != 0 {
				t.Fatalf("trial %d node %d: R not bitwise equal", trial, i)
			}
			if (g.QTB == nil) != (nd.QTB == nil) {
				t.Fatalf("trial %d node %d: QTB presence", trial, i)
			}
			if nd.QTB != nil && matrix.MaxAbsDiff(g.QTB, nd.QTB) != 0 {
				t.Fatalf("trial %d node %d: QTB not bitwise equal", trial, i)
			}
		}
		// Header-only parse agrees and stops before the spine.
		info, err := ReadCheckpointInfo(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: info: %v", trial, err)
		}
		if info.Blocks != cp.Blocks || info.Rows != cp.Rows || info.Spine != nil {
			t.Fatalf("trial %d: info mismatch", trial)
		}
		// The restored spine must satisfy RestoreStreamer's invariants.
		if _, err := qr.RestoreStreamer(got.N, got.NRHS, got.Opts, got.Spine); err != nil {
			t.Fatalf("trial %d: restore: %v", trial, err)
		}
	}
}

func TestCheckpointTruncationAndCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cp := randCheckpoint(rng)
	var buf bytes.Buffer
	if _, err := WriteCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every proper prefix must fail cleanly, never panic or misparse.
	for cut := 0; cut < len(full); cut += 1 + cut/7 {
		if _, err := ReadCheckpoint(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("prefix of %d/%d bytes parsed", cut, len(full))
		}
	}
	// A flipped payload bit must fail the trailer checksum.
	bad := append([]byte(nil), full...)
	bad[len(bad)-20] ^= 0x40
	if _, err := ReadCheckpoint(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupted checkpoint parsed")
	} else if !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("corruption error = %v, want ErrBadCheckpoint", err)
	}
}

func TestCheckpointHostilePrefixAllocBound(t *testing.T) {
	// A tiny stream claiming enormous dims must be rejected on header
	// validation — before any spine allocation happens.
	hostile := [][]byte{
		append([]byte("QSC1"), bytes.Repeat([]byte{0xff}, 64)...),
		append([]byte("QSC1"), 0x02, 0x00, 'a', 'b', 0x00, 0x00,
			0xff, 0xff, 0xff, 0x7f, // n = huge
			0x00, 0x00, 0x00, 0x00),
		[]byte("QBS1nope"),
	}
	for i, b := range hostile {
		if _, err := ReadCheckpoint(bytes.NewReader(b)); err == nil {
			t.Fatalf("hostile stream %d parsed", i)
		}
	}
	// Structurally valid header declaring max dims: the reader may commit
	// at most one column buffer + one matrix before the payload must
	// actually arrive — it must hit EOF, not OOM.
	var buf bytes.Buffer
	cp := &Checkpoint{ID: "x", N: MaxN, NRHS: 0, Opts: qr.Options{NB: 64, IB: 16}, Blocks: 1, Rows: 1,
		Spine: nil}
	if _, err := WriteCheckpoint(&buf, cp); err != nil {
		t.Fatal(err)
	}
	hdr := buf.Bytes()[:buf.Len()-8] // drop trailer, claim one spine node
	hdr[len(hdr)-4] = 1
	if _, err := ReadCheckpoint(bytes.NewReader(hdr)); err == nil {
		t.Fatal("truncated spine parsed")
	} else if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckpointRejectsUnsafeNames(t *testing.T) {
	base := randCheckpoint(rand.New(rand.NewSource(3)))
	for _, id := range []string{"", "../../etc/passwd", "a/b", ".hidden", strings.Repeat("x", MaxName+1), "sp ace"} {
		cp := *base
		cp.ID = id
		if _, err := WriteCheckpoint(io.Discard, &cp); err == nil {
			t.Fatalf("id %q encoded", id)
		}
	}
}

func TestCheckpointFileAtomicity(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(21))
	cp := randCheckpoint(rng)
	if _, err := WriteCheckpointFile(dir, cp); err != nil {
		t.Fatal(err)
	}
	// Overwrite with new content; the file must never be torn, and no temp
	// files may linger.
	cp2 := randCheckpoint(rng)
	cp2.ID = cp.ID
	if _, err := WriteCheckpointFile(dir, cp2); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpointFile(CheckpointPath(dir, cp.ID))
	if err != nil {
		t.Fatal(err)
	}
	if got.Blocks != cp2.Blocks {
		t.Fatalf("read back blocks %d, want %d", got.Blocks, cp2.Blocks)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".qsc" {
			t.Fatalf("leftover file %s", e.Name())
		}
	}
}

// The writer admits only what the reader accepts: for random identities,
// dimensions, blockings and cadences — in range, on each bound, one past it
// — either WriteCheckpoint refuses, or ReadCheckpoint hands the same header
// back. (It used to write nb=2000 for the boot scan to skip.)
func TestCheckpointWriterAdmitsOnlyWhatReaderAccepts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	around := func(bounds ...int) int { // a bound, or next to one, or anywhere
		b := bounds[rng.Intn(len(bounds))]
		return b + []int{-1, 0, 0, 1, rng.Intn(64)}[rng.Intn(5)]
	}
	name := func() string {
		const bytes = "abcXYZ019-_./ \x00é"
		b := make([]byte, []int{0, 1, 16, MaxName, MaxName + 1}[rng.Intn(5)])
		for i := range b {
			b[i] = bytes[rng.Intn(rng.Intn(len(bytes))+1)] // mostly valid
		}
		return string(b)
	}
	wrote := 0
	for trial := 0; trial < 2000; trial++ {
		cp := randCheckpoint(rng)
		switch trial % 4 { // perturb one group at a time, so most trials get past the others
		case 0:
			cp.ID, cp.Tenant = name(), name()
		case 1:
			cp.N, cp.NRHS, cp.Spine, cp.Blocks, cp.Rows = around(1, MaxN), around(0, MaxNRHS), nil, 0, 0
		case 2:
			cp.Opts.NB = around(1, MaxN, 2000)
			cp.Opts.IB = around(1, cp.Opts.NB)
		case 3:
			cp.Every = around(0, 1<<20)
		}
		var buf bytes.Buffer
		if _, err := WriteCheckpoint(&buf, cp); err != nil {
			continue
		}
		wrote++
		for _, read := range []func(io.Reader) (*Checkpoint, error){ReadCheckpoint, ReadCheckpointInfo} {
			got, err := read(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("trial %d: wrote %+v, reader refuses it: %v", trial, cp, err)
			}
			if got.ID != cp.ID || got.Tenant != cp.Tenant || got.N != cp.N || got.NRHS != cp.NRHS ||
				got.Opts != cp.Opts || got.Every != cp.Every || got.Ack != cp.Ack ||
				got.Blocks != cp.Blocks || got.Rows != cp.Rows {
				t.Fatalf("trial %d: wrote %+v, read back %+v", trial, cp, got)
			}
		}
	}
	if wrote < 200 || wrote > 1800 {
		t.Fatalf("%d of 2000 trials were written: the generator no longer straddles the bounds", wrote)
	}
}

// The hole as it was found: a session opened with nb=2000 was acknowledged,
// checkpointed, and then skipped by the next boot scan. It is refused at
// open now, on durable and memory-only tables alike, before anything exists.
func TestOpenRefusesWhatACheckpointCannotCarry(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		tbl, err := NewTable(Config{Pool: testPool(t), Dir: dir, IdleTimeout: -1})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			n, nrhs, every int
			opts           qr.Options
		}{
			{n: 8, opts: qr.Options{NB: 2000}},
			{n: 8, opts: qr.Options{NB: MaxN + 1, IB: 8}},
			{n: MaxN + 1}, {n: 0}, {n: 8, nrhs: MaxNRHS + 1}, {n: 8, nrhs: -1},
			{n: 8, every: -1}, {n: 8, every: 1<<20 + 1},
		} {
			if s, err := tbl.Open("acme", tc.n, tc.nrhs, tc.opts, tc.every, false); err == nil {
				t.Errorf("dir %q: Open(%+v) admitted session %s", dir, tc, s.ID)
			}
		}
		if st := tbl.Stats(); st.Sessions != 0 {
			t.Errorf("dir %q: %d sessions registered by refused opens", dir, st.Sessions)
		}
		// On the bound is inside it, and what was admitted survives a restart.
		s, err := tbl.Open("acme", 8, 0, qr.Options{NB: MaxN}, 1<<20, false)
		if err != nil {
			t.Fatalf("dir %q: nb=%d refused: %v", dir, MaxN, err)
		}
		tbl.Close()
		if dir == "" {
			continue
		}
		if tbl, err = NewTable(Config{Pool: testPool(t), Dir: dir, IdleTimeout: -1}); err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.Get(s.ID); err != nil {
			t.Errorf("session opened with nb=%d did not come back from its checkpoint: %v", MaxN, err)
		}
		tbl.Close()
		if ents, _ := os.ReadDir(dir); len(ents) != 1 {
			t.Errorf("checkpoint dir holds %d entries, want the one admitted session", len(ents))
		}
	}
}
