package session

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"pulsarqr/internal/kernels"
	"pulsarqr/internal/matrix"
	"pulsarqr/internal/pulsar"
	"pulsarqr/internal/qr"
)

// Sentinel errors the service layer maps onto HTTP statuses.
var (
	ErrTableFull   = errors.New("session: session table full")         // 429
	ErrTenantFull  = errors.New("session: tenant session limit")       // 429
	ErrNotFound    = errors.New("session: no such session")            // 404
	ErrBusy        = errors.New("session: append already in progress") // 409
	ErrClosed      = errors.New("session: table closed")               // 503
	ErrGone        = errors.New("session: session deleted")            // 410
	ErrInterrupted = errors.New("session: append interrupted")
)

// Config shapes a Table.
type Config struct {
	// Dir is the checkpoint directory. When set, sessions are durable:
	// every Every-th append persists the spine, idle sessions unload to
	// disk instead of dying, and NewTable re-registers any *.qsc files it
	// finds — a fleet restart (or kill -9) resumes where it stopped.
	// Empty means memory-only sessions that idle eviction deletes.
	Dir string

	// Pool runs leaf reductions on warm workers so decode, reduce, and
	// commit of consecutive appends overlap (pulsar.Stream). Required.
	Pool *pulsar.Pool

	MaxSessions  int           // table-wide live session cap (default 64)
	MaxPerTenant int           // per-tenant live session cap (default 8)
	IdleTimeout  time.Duration // unload/evict after this idle (default 10m; <0 disables)
	Every        int           // default checkpoint cadence in appends (default 1)

	// Metrics hooks; all optional and called outside table locks.
	OnAppend     func(d time.Duration) // one committed append, commit-to-emit latency
	OnCheckpoint func(bytes int64)     // one durable checkpoint write
	OnRestore    func()                // one spine load from disk
	OnEvict      func()                // one idle unload (durable) or delete (memory-only)

	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxSessions == 0 {
		c.MaxSessions = 64
	}
	if c.MaxPerTenant == 0 {
		c.MaxPerTenant = 8
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 10 * time.Minute
	}
	if c.Every < 1 {
		c.Every = 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Session is one long-lived streaming factorization. Identity and stream
// shape are immutable after open; the reduction state behind mu is either
// loaded (str != nil) or parked in its checkpoint file.
type Session struct {
	ID     string
	Tenant string
	N      int
	NRHS   int
	Opts   qr.Options
	Every  int  // checkpoint cadence for this session
	Ack    bool // ack-only: append replies carry no R payload

	t *Table

	mu        sync.Mutex
	str       *qr.Streamer
	blocks    int64 // mirrors of streamer totals, valid while unloaded
	rows      int64
	lastUsed  time.Time
	lastCkpt  time.Time
	ckptBytes int64
	dirty     int // appends since the last durable write
	appending bool
	gone      bool
	cur       *qr.StreamNode // reusable fold buffer for append replies, laid in a slab.Floats slab
}

// Info is a point-in-time snapshot of a session for the info endpoint.
type Info struct {
	ID              string     `json:"id"`
	Tenant          string     `json:"tenant,omitempty"`
	N               int        `json:"n"`
	NRHS            int        `json:"nrhs"`
	Blocks          int64      `json:"blocks"`
	Rows            int64      `json:"rows"`
	Loaded          bool       `json:"loaded"`
	Ack             bool       `json:"ack_only,omitempty"`
	CheckpointEvery int        `json:"checkpoint_every,omitempty"`
	CheckpointBytes int64      `json:"checkpoint_bytes,omitempty"`
	CheckpointAt    *time.Time `json:"checkpoint_at,omitempty"`
}

// Table is the bounded, multi-tenant session registry.
type Table struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*Session
	tenants  map[string]int
	closed   bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewTable builds a session table. With cfg.Dir set, it scans the directory
// and re-registers every valid checkpoint as an unloaded session; corrupt
// or foreign files are skipped with a log line, never trusted.
func NewTable(cfg Config) (*Table, error) {
	if cfg.Pool == nil {
		return nil, errors.New("session: Config.Pool is required")
	}
	cfg = cfg.withDefaults()
	t := &Table{
		cfg:      cfg,
		sessions: make(map[string]*Session),
		tenants:  make(map[string]int),
		stop:     make(chan struct{}),
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("session: checkpoint dir: %w", err)
		}
		if err := t.scan(); err != nil {
			return nil, err
		}
	}
	if cfg.IdleTimeout > 0 {
		t.wg.Add(1)
		go t.janitor()
	}
	return t, nil
}

// scan registers every readable checkpoint under cfg.Dir as an unloaded
// session. Only headers are parsed at boot; spines load lazily on first use.
func (t *Table) scan() error {
	ents, err := os.ReadDir(t.cfg.Dir)
	if err != nil {
		return fmt.Errorf("session: scan checkpoints: %w", err)
	}
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".qsc") {
			continue
		}
		path := filepath.Join(t.cfg.Dir, name)
		cp, err := readInfoFile(path)
		if err != nil {
			t.cfg.Logf("session: skipping checkpoint %s: %v", name, err)
			continue
		}
		if cp.ID != strings.TrimSuffix(name, ".qsc") {
			t.cfg.Logf("session: skipping checkpoint %s: id %q mismatch", name, cp.ID)
			continue
		}
		s := &Session{
			ID: cp.ID, Tenant: cp.Tenant, N: cp.N, NRHS: cp.NRHS,
			Opts: cp.Opts, Every: cp.Every, Ack: cp.Ack,
			t: t, blocks: cp.Blocks, rows: cp.Rows,
			lastUsed: time.Now(), lastCkpt: time.Now(),
		}
		if fi, err := ent.Info(); err == nil {
			s.lastCkpt = fi.ModTime()
			s.ckptBytes = fi.Size()
		}
		t.sessions[s.ID] = s
		t.tenants[s.Tenant]++
	}
	if n := len(t.sessions); n > 0 {
		t.cfg.Logf("session: restored %d checkpointed session(s) from %s", n, t.cfg.Dir)
	}
	return nil
}

func readInfoFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCheckpointInfo(f)
}

func (t *Table) janitor() {
	defer t.wg.Done()
	tick := time.NewTicker(max(t.cfg.IdleTimeout/4, time.Second))
	defer tick.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
			t.sweep(time.Now())
		}
	}
}

// sweep unloads (durable) or deletes (memory-only) sessions idle past the
// timeout, releasing their spines. Sessions mid-append are never touched.
func (t *Table) sweep(now time.Time) {
	t.mu.Lock()
	var idle []*Session
	for _, s := range t.sessions {
		idle = append(idle, s)
	}
	t.mu.Unlock()
	for _, s := range idle {
		s.mu.Lock()
		expired := !s.appending && !s.gone && now.Sub(s.lastUsed) > t.cfg.IdleTimeout
		durable := t.cfg.Dir != ""
		if expired && durable {
			if s.str != nil {
				if s.dirty > 0 {
					if err := s.checkpointLocked(); err != nil {
						t.cfg.Logf("session %s: checkpoint on unload: %v", s.ID, err)
						s.mu.Unlock()
						continue
					}
				}
				s.str.ReleaseAll(s.cur) // not appending: nothing writes cur out
				s.str = nil
				s.cur = nil
				s.mu.Unlock()
				t.notifyEvict()
				t.cfg.Logf("session %s: unloaded after idle", s.ID)
				continue
			}
			s.mu.Unlock()
			continue
		}
		s.mu.Unlock()
		if expired && !durable {
			if err := t.Delete(s.ID); err == nil {
				t.notifyEvict()
				t.cfg.Logf("session %s: evicted after idle", s.ID)
			}
		}
	}
}

func (t *Table) notifyEvict() {
	if t.cfg.OnEvict != nil {
		t.cfg.OnEvict()
	}
}

// Open admits a new session for tenant. every == 0 takes the table default
// cadence; ack skips R payloads in append replies. Durable tables write the
// initial (empty) checkpoint immediately so even a zero-append session
// survives a restart.
func (t *Table) Open(tenant string, n, nrhs int, opts qr.Options, every int, ack bool) (*Session, error) {
	if tenant != "" && !validName(tenant) {
		return nil, fmt.Errorf("session: tenant %q not a valid name", tenant)
	}
	if every == 0 {
		every = t.cfg.Every
	}
	str, err := qr.NewStreamer(n, nrhs, opts)
	if err != nil {
		return nil, err
	}
	// What a session may be is what its checkpoint may carry, memory-only
	// tables included: one rule, whatever the server's durability.
	if err := (&Checkpoint{N: n, NRHS: nrhs, Opts: str.Opts(), Every: every}).check(0); err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	s := &Session{
		ID: newID(), Tenant: tenant, N: n, NRHS: nrhs,
		Opts: str.Opts(), Every: every, Ack: ack,
		t: t, str: str, lastUsed: time.Now(),
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	if len(t.sessions) >= t.cfg.MaxSessions {
		t.mu.Unlock()
		return nil, ErrTableFull
	}
	if t.tenants[tenant] >= t.cfg.MaxPerTenant {
		t.mu.Unlock()
		return nil, ErrTenantFull
	}
	t.sessions[s.ID] = s
	t.tenants[tenant]++
	t.mu.Unlock()
	if t.cfg.Dir != "" {
		s.mu.Lock()
		err := s.checkpointLocked()
		s.mu.Unlock()
		if err != nil {
			t.Delete(s.ID)
			return nil, fmt.Errorf("session: initial checkpoint: %w", err)
		}
	}
	return s, nil
}

// Get looks a session up by id.
func (t *Table) Get(id string) (*Session, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	s, ok := t.sessions[id]
	if !ok {
		return nil, ErrNotFound
	}
	return s, nil
}

// Delete removes a session and its checkpoint file and releases its spine.
// An append stream in flight observes the tombstone at its next commit and
// aborts. The file goes while s.mu is held — the lock every checkpoint write
// holds after checking the tombstone — so an append that sees ErrGone never
// finds the file, and a crash can never bring a deleted session back.
func (t *Table) Delete(id string) error {
	t.mu.Lock()
	s, ok := t.sessions[id]
	if ok {
		delete(t.sessions, id)
		if t.tenants[s.Tenant] <= 1 {
			delete(t.tenants, s.Tenant)
		} else {
			t.tenants[s.Tenant]--
		}
	}
	t.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gone = true
	if s.str != nil && s.appending {
		s.str.ReleaseAll() // the stream may be writing cur out: it gives cur back as it ends
	} else if s.str != nil {
		s.str.ReleaseAll(s.cur)
		s.cur = nil
	}
	s.str = nil
	if t.cfg.Dir != "" {
		if err := os.Remove(CheckpointPath(t.cfg.Dir, id)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// Stats summarizes the table for the metrics exporter.
type Stats struct {
	Sessions  int            // registered sessions
	Loaded    int            // sessions with a live in-memory spine
	PerTenant map[string]int // live sessions per tenant
	// LastCheckpoint is the most recent durable write across all sessions
	// (zero when none); CheckpointBytes sums each session's latest
	// checkpoint size.
	LastCheckpoint  time.Time
	CheckpointBytes int64
}

// Cap returns the table's session capacity (load-shed hints scale on it).
func (t *Table) Cap() int { return t.cfg.MaxSessions }

// Stats snapshots table occupancy.
func (t *Table) Stats() Stats {
	t.mu.Lock()
	st := Stats{Sessions: len(t.sessions), PerTenant: make(map[string]int, len(t.tenants))}
	for tn, c := range t.tenants {
		st.PerTenant[tn] = c
	}
	sess := make([]*Session, 0, len(t.sessions))
	for _, s := range t.sessions {
		sess = append(sess, s)
	}
	t.mu.Unlock()
	for _, s := range sess {
		s.mu.Lock()
		if s.str != nil {
			st.Loaded++
		}
		if s.lastCkpt.After(st.LastCheckpoint) {
			st.LastCheckpoint = s.lastCkpt
		}
		st.CheckpointBytes += s.ckptBytes
		s.mu.Unlock()
	}
	return st
}

// List snapshots every session's Info, ordered by id.
func (t *Table) List() []Info {
	t.mu.Lock()
	sess := make([]*Session, 0, len(t.sessions))
	for _, s := range t.sessions {
		sess = append(sess, s)
	}
	t.mu.Unlock()
	infos := make([]Info, 0, len(sess))
	for _, s := range sess {
		infos = append(infos, s.Info())
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	return infos
}

// Close stops the janitor and flushes every dirty durable session to disk.
func (t *Table) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	sess := make([]*Session, 0, len(t.sessions))
	for _, s := range t.sessions {
		sess = append(sess, s)
	}
	t.mu.Unlock()
	close(t.stop)
	t.wg.Wait()
	var firstErr error
	for _, s := range sess {
		s.mu.Lock()
		if t.cfg.Dir != "" && s.str != nil && s.dirty > 0 && !s.gone {
			if err := s.checkpointLocked(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		s.mu.Unlock()
	}
	return firstErr
}

// newID returns a 16-hex-char random session id.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failure is unrecoverable
	}
	return hex.EncodeToString(b[:])
}

// Info snapshots the session.
func (s *Session) Info() Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	in := Info{
		ID: s.ID, Tenant: s.Tenant, N: s.N, NRHS: s.NRHS,
		Blocks: s.blocksLocked(), Rows: s.rowsLocked(),
		Loaded: s.str != nil, Ack: s.Ack,
		CheckpointEvery: s.Every, CheckpointBytes: s.ckptBytes,
	}
	if !s.lastCkpt.IsZero() {
		at := s.lastCkpt
		in.CheckpointAt = &at
	}
	return in
}

func (s *Session) blocksLocked() int64 {
	if s.str != nil {
		return s.str.Blocks()
	}
	return s.blocks
}

func (s *Session) rowsLocked() int64 {
	if s.str != nil {
		return s.str.Rows()
	}
	return s.rows
}

// ensureLoadedLocked restores the spine from the checkpoint file when the
// session is parked on disk. Caller holds s.mu.
func (s *Session) ensureLoadedLocked() error {
	if s.gone {
		return ErrGone
	}
	if s.str != nil {
		return nil
	}
	if s.t.cfg.Dir == "" {
		return ErrGone // memory-only sessions cannot be reloaded
	}
	cp, err := ReadCheckpointFile(CheckpointPath(s.t.cfg.Dir, s.ID))
	if err != nil {
		return fmt.Errorf("session %s: restore: %w", s.ID, err)
	}
	str, err := qr.RestoreStreamer(s.N, s.NRHS, s.Opts, cp.Spine)
	if err != nil {
		return fmt.Errorf("session %s: restore: %w", s.ID, err)
	}
	s.str = str
	s.blocks, s.rows = str.Blocks(), str.Rows()
	s.dirty = 0
	if s.t.cfg.OnRestore != nil {
		s.t.cfg.OnRestore()
	}
	s.t.cfg.Logf("session %s: restored %d blocks / %d rows from checkpoint", s.ID, s.blocks, s.rows)
	return nil
}

// checkpointLocked durably writes the current spine. Caller holds s.mu and
// guarantees str != nil (or an empty spine for a fresh session).
func (s *Session) checkpointLocked() error {
	cp := &Checkpoint{
		ID: s.ID, Tenant: s.Tenant, N: s.N, NRHS: s.NRHS,
		Opts: s.Opts, Every: s.Every, Ack: s.Ack,
	}
	if s.str != nil {
		cp.Blocks, cp.Rows = s.str.Blocks(), s.str.Rows()
		cp.Spine = s.str.Spine()
	}
	n, err := WriteCheckpointFile(s.t.cfg.Dir, cp)
	if err != nil {
		return err
	}
	s.lastCkpt = time.Now()
	s.ckptBytes = n
	s.dirty = 0
	if s.t.cfg.OnCheckpoint != nil {
		s.t.cfg.OnCheckpoint(n)
	}
	return nil
}

// Current folds and returns the session's global state (R and, when the
// stream carries right-hand sides, QᵀB), loading the spine first if parked.
// The returned node is freshly allocated and owned by the caller.
func (s *Session) Current() (*qr.StreamNode, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.ensureLoadedLocked(); err != nil {
		return nil, err
	}
	s.lastUsed = time.Now()
	return s.str.Current(nil, nil), nil
}

// finite reports whether every entry of m is a finite number. v − v is 0
// for a finite v and NaN for a NaN or ±Inf, which every later sum keeps;
// four independent sums and no branch keep the scan of a block a small
// fraction of its leaf reduction.
func finite(m *matrix.Mat) bool {
	var s0, s1, s2, s3 float64
	for j := 0; j < m.Cols; j++ {
		col := m.Data[j*m.LD : j*m.LD+m.Rows]
		i := 0
		for ; i+4 <= len(col); i += 4 {
			s0 += col[i] - col[i]
			s1 += col[i+1] - col[i+1]
			s2 += col[i+2] - col[i+2]
			s3 += col[i+3] - col[i+3]
		}
		for ; i < len(col); i++ {
			s0 += col[i] - col[i]
		}
	}
	return s0+s1+s2+s3 == 0
}

// leaf is one block of an append stream on its way to the commit loop: the
// block and its rhs from next, then the leaf a pool worker reduced them to.
type leaf struct {
	block, rhs *matrix.Mat
	start      time.Time // when next yielded the block
	nd         *qr.StreamNode
	err        error
}

// AppendStream drives one append stream: next yields row blocks (io.EOF
// ends the stream), and emit observes every committed append in order —
// with the folded global R, or nil for ack-only sessions. Leaf reductions
// run on the table's pool through pulsar.Stream's window while commits stay
// ordered, so results are bitwise identical to a sequential run.
//
// A block or rhs holding a NaN or ±Inf ends the stream like an error from
// next, before it is reduced: folded into the spine it would poison every
// later append and every checkpoint.
//
// It returns the number of blocks committed. Only one stream may run per
// session at a time (ErrBusy otherwise). On durable tables a checkpoint
// write failure aborts the stream — an emitted update is never ahead of
// what a restart can recover beyond the session's cadence. An aborted
// stream gives back the slab of every leaf it reduced and did not commit.
//
// next runs on its own goroutine, which an aborted stream does not wait
// for: a call blocked when AppendStream returns must fail soon after (an
// HTTP request body does once its handler returns), and its result is
// discarded.
//
// The blocks next yields stay the caller's: the reduction overwrites them,
// but no storage of theirs is kept or reused.
func (s *Session) AppendStream(ctx context.Context, next func() (block, rhs *matrix.Mat, err error), emit func(blocks, rows int64, cur *qr.StreamNode) error) (int64, error) {
	return s.appendStream(ctx, next, func(*matrix.Mat) {}, emit)
}

// AppendFrom is AppendStream over a decoded append request: ar's blocks
// live in warm storage, and each goes back to it once its leaf is reduced,
// or once the stream refuses it for a NaN or ±Inf entry. A block the pool
// refuses because it closed is left to the collector.
func (s *Session) AppendFrom(ctx context.Context, ar *AppendReader, emit func(blocks, rows int64, cur *qr.StreamNode) error) (int64, error) {
	return s.appendStream(ctx, ar.Next, releaseBlock, emit)
}

// appendStream is AppendStream with release, which is handed every block
// next yielded once the stream is done with it.
func (s *Session) appendStream(ctx context.Context, next func() (block, rhs *matrix.Mat, err error), release func(block *matrix.Mat), emit func(blocks, rows int64, cur *qr.StreamNode) error) (int64, error) {
	s.mu.Lock()
	if err := s.ensureLoadedLocked(); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	if s.appending {
		s.mu.Unlock()
		return 0, ErrBusy
	}
	s.appending = true
	str := s.str
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.appending = false
		s.lastUsed = time.Now()
		if s.gone {
			str.Release(s.cur) // Delete left it to the stream, which wrote it out
			s.cur = nil
		}
		s.mu.Unlock()
	}()

	blocks := 0
	nextLeaf := func() (*leaf, error) {
		block, rhs, err := next()
		if err == nil && (!finite(block) || rhs != nil && !finite(rhs)) {
			release(block)
			err = fmt.Errorf("session: block %d of the stream carries a NaN or Inf entry", blocks)
		}
		blocks++
		if err != nil && !errors.Is(err, io.EOF) {
			err = fmt.Errorf("%w: %v", ErrInterrupted, err)
		}
		return &leaf{block: block, rhs: rhs, start: time.Now()}, err
	}
	reduce := func(state any, l *leaf) *leaf {
		ws, _ := state.(*kernels.Workspace)
		l.nd, l.err = str.LeafReduce(ws, l.block, l.rhs)
		release(l.block)
		return l
	}
	ws := kernels.BorrowWorkspace()
	defer kernels.ReturnWorkspace(ws)
	var committed int64
	commit := func(l *leaf) error {
		if l.err != nil {
			return l.err
		}
		s.mu.Lock()
		if s.gone {
			s.mu.Unlock()
			str.Release(l.nd)
			return ErrGone
		}
		str.Commit(ws, l.nd)
		blocks, rows := str.Blocks(), str.Rows()
		s.blocks, s.rows = blocks, rows
		var cur *qr.StreamNode
		if !s.Ack {
			cur = str.Current(ws, s.cur)
			s.cur = cur
		}
		s.dirty++
		if s.t.cfg.Dir != "" && s.dirty >= s.Every {
			if err := s.checkpointLocked(); err != nil {
				s.mu.Unlock()
				return fmt.Errorf("session %s: checkpoint: %w", s.ID, err)
			}
		}
		s.lastUsed = time.Now()
		s.mu.Unlock()
		if err := emit(blocks, rows, cur); err != nil {
			return err
		}
		committed++
		if s.t.cfg.OnAppend != nil {
			s.t.cfg.OnAppend(time.Since(l.start))
		}
		return nil
	}
	err := pulsar.Stream(ctx, s.t.cfg.Pool, nextLeaf, reduce, commit, func(l *leaf) { str.Release(l.nd) })
	return committed, err
}
