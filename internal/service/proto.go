// Package service implements qrserve: a long-running, multi-tenant
// factorization service that multiplexes concurrent QR jobs onto a warm,
// persistent VSA fleet. One Server owns a persistent worker pool (per-worker
// kernel workspaces stay hot across jobs), persistent transport sessions to
// its fleet (multiplexed per job by transport.Mux), a bounded admission
// queue with priorities and deadlines, and an HTTP/JSON surface.
package service

import (
	"context"
	"fmt"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/plan"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/transport"
	"pulsarqr/internal/wire"
)

// Size limits: admission control should reject an absurd request at the
// door, not after it has been allocated. maxDim bounds each dimension; the
// element bounds cap what a job makes the fleet hold, since two admissible
// dimensions can still multiply to terabytes.
const (
	maxDim = 1 << 20
	// maxSeededElems bounds M·N of a seeded job: 2 GiB of float64 input,
	// spread over the ranks by row ownership.
	maxSeededElems = 1 << 28
	// maxUploadElems bounds M·N of an uploaded job: 32 MiB of float64, which
	// rank 0 holds whole from admission to the job's end and deals out to the
	// ranks by row ownership.
	maxUploadElems = 1 << 22
	// maxSubmitBytes bounds a JSON POST /v1/factorize body: the largest
	// admissible upload at 25 bytes per JSON number (17 significant digits,
	// sign, point, exponent, comma) plus the rest of the spec.
	maxSubmitBytes = 25*maxUploadElems + 1<<20
	// maxFrameBytes bounds a job-frame body (frame.go): the same upload at
	// its 8 bytes per number, the largest head, and the fixed fields.
	maxFrameBytes = 8*maxUploadElems + maxFrameHead + 32
)

// JobSpec is the wire description of one factorization request. The matrix
// is either uploaded (Data, column-major, len M*N) or generated server-side
// from Seed: element (i, j) is a pure function of (Seed, i, j) —
// matrix.FillSeeded — so every rank derives the tiles it owns, and only
// those, without the matrix being shipped or built whole anywhere.
type JobSpec struct {
	// Tenant attributes the job for per-tenant accounting: shed events,
	// the /v1/status tenant table. Empty is the anonymous tenant.
	Tenant string `json:"tenant,omitempty"`
	// M, N are the matrix dimensions; tall-skinny (M >= N) required.
	M int `json:"m"`
	N int `json:"n"`
	// NB, IB, H and Tree select the algorithm configuration; zero values
	// take the library defaults (qr.DefaultOptions: NB=192, IB=24 — or NB
	// when that is smaller — hierarchical, one flat-tree domain per worker
	// of the fleet), resolved once by the server: the spec its agents
	// receive has all four set.
	NB   int    `json:"nb,omitempty"`
	IB   int    `json:"ib,omitempty"`
	H    int    `json:"h,omitempty"`
	Tree string `json:"tree,omitempty"` // "hierarchical", "flat", "binary"
	// Seed generates the input server-side when Data is empty.
	Seed int64 `json:"seed,omitempty"`
	// Data is an optional column-major upload of the matrix entries. It is
	// JSON only where a client wrote JSON: service.Client sends it after the
	// spec in a job frame (frame.go), an admitted Job holds it beside its
	// Spec, not in it, and the fleet never sees it whole — the open broadcast
	// carries no Data, and each rank is sent the rows it owns (sendUpload).
	Data []float64 `json:"data,omitempty"`
	// rows is an agent's share of an upload — the rows of the tile rows it
	// owns, as recvUpload took them off the job session — standing in for the
	// Data it was never sent.
	rows *matrix.Mat
	// Priority orders admission: higher runs first; equal priorities are
	// FIFO.
	Priority int `json:"priority,omitempty"`
	// DeadlineMS drops the job if it has not been dispatched within this
	// many milliseconds of admission; zero means no deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Trace records a full execution trace of this job on every rank; the
	// merged shards are fetched from GET /v1/jobs/{id}/trace once the job
	// is done. The flag rides the control-plane open broadcast, so agents
	// trace exactly the jobs the client asked to trace.
	Trace bool `json:"trace,omitempty"`
	// MaxRetries is the job's retry budget: when its run dies with a fleet
	// member (not a cancellation or an algorithmic failure), the server
	// requeues it onto the surviving ranks up to this many times. Capped
	// at 8; zero means fail on the first peer death.
	MaxRetries int `json:"max_retries,omitempty"`
	// RetryBackoffMS delays each requeue, doubling per attempt; zero takes
	// the service default (100ms).
	RetryBackoffMS int64 `json:"retry_backoff_ms,omitempty"`
}

// maxTenantLen bounds the tenant label: it rides every event and metric
// attribution, so an unbounded client string must not be storable.
const maxTenantLen = 64

// checkShape bounds the dimensions and their product, which is all that a
// matrix of this spec can be sized from.
func (sp *JobSpec) checkShape(uploaded bool) error {
	if sp.M <= 0 || sp.N <= 0 {
		return fmt.Errorf("service: invalid shape %dx%d", sp.M, sp.N)
	}
	if sp.M < sp.N {
		return fmt.Errorf("service: matrix is %dx%d; tall-skinny factorization requires m >= n", sp.M, sp.N)
	}
	if sp.M > maxDim || sp.N > maxDim {
		return fmt.Errorf("service: shape %dx%d exceeds limit %d", sp.M, sp.N, maxDim)
	}
	limit, kind := maxSeededElems, "seeded"
	if uploaded {
		limit, kind = maxUploadElems, "uploaded"
	}
	if sp.M > limit/sp.N { // M·N > limit, without forming a product that can overflow
		return fmt.Errorf("service: shape %dx%d exceeds the %d-element limit for %s input", sp.M, sp.N, limit, kind)
	}
	return nil
}

// Validate checks the spec without allocating the matrix.
func (sp *JobSpec) Validate() error {
	if len(sp.Tenant) > maxTenantLen {
		return fmt.Errorf("service: tenant label longer than %d bytes", maxTenantLen)
	}
	if err := sp.checkShape(len(sp.Data) != 0); err != nil {
		return err
	}
	if len(sp.Data) != 0 && len(sp.Data) != sp.M*sp.N {
		return fmt.Errorf("service: data holds %d entries, want %d (column-major m*n)", len(sp.Data), sp.M*sp.N)
	}
	opts, err := sp.Options()
	if err != nil {
		return err
	}
	if opts.NB > maxDim {
		return fmt.Errorf("service: nb=%d exceeds limit %d", opts.NB, maxDim)
	}
	if opts.IB > opts.NB {
		return fmt.Errorf("service: ib=%d exceeds nb=%d", opts.IB, opts.NB)
	}
	// The element bound does not bound the work's granularity: nb=1 on an
	// admissible shape asks for a tile, a VDP and a packet per element.
	if tasks := plan.EstTasks(sp.M, sp.N, opts.NB); tasks > plan.MaxTasks {
		return fmt.Errorf("service: %dx%d at nb=%d is a task graph of %d kernels; the limit is %d (raise nb)",
			sp.M, sp.N, opts.NB, tasks, plan.MaxTasks)
	}
	if sp.MaxRetries < 0 || sp.MaxRetries > 8 {
		return fmt.Errorf("service: max_retries %d out of range [0,8]", sp.MaxRetries)
	}
	if sp.RetryBackoffMS < 0 {
		return fmt.Errorf("service: negative retry_backoff_ms %d", sp.RetryBackoffMS)
	}
	return nil
}

func (sp *JobSpec) tree() (qr.TreeKind, error) {
	t, err := qr.ParseTree(sp.Tree)
	if err != nil {
		return 0, fmt.Errorf("service: unknown tree %q (want hierarchical, flat or binary)", sp.Tree)
	}
	return t, nil
}

// Options maps the spec to the qr layer's algorithm configuration, omitted
// values resolved except H, which depends on the fleet (planJob resolves
// it; a spec an agent receives has it set): what it returns is what runs.
func (sp *JobSpec) Options() (qr.Options, error) {
	tree, err := sp.tree()
	if err != nil {
		return qr.Options{}, err
	}
	opts := qr.DefaultOptions()
	if sp.NB > 0 {
		opts.NB = sp.NB
	}
	opts.IB = min(opts.IB, opts.NB)
	if sp.IB > 0 {
		opts.IB = sp.IB
	}
	if sp.H > 0 {
		opts.H = sp.H
	}
	opts.Tree = tree
	return opts, nil
}

// BuildInputs materializes the whole input matrix: the dense form and its
// tiling. It is the reference form of what a job factors — ownedInputs
// produces tile rows of exactly this matrix — for oracles and tools; the
// service itself never builds a matrix whole.
func (sp *JobSpec) BuildInputs() (*matrix.Tiled, *matrix.Mat, error) {
	if err := sp.Validate(); err != nil {
		return nil, nil, err
	}
	opts, err := sp.Options()
	if err != nil {
		return nil, nil, err
	}
	var d *matrix.Mat
	if len(sp.Data) > 0 {
		d = matrix.New(sp.M, sp.N)
		copy(d.Data, sp.Data)
	} else {
		d = matrix.NewSeeded(sp.M, sp.N, sp.Seed)
	}
	return matrix.FromDense(d, opts.NB), d, nil
}

// ownedInputs materializes what rank `rank` of a `ranks`-rank session of
// job `job` needs of the input: the tiles of the tile rows it owns (every
// other tile of the returned matrix is nil) and their sketch, folded in row
// by row while each is cache-hot, because the run consumes the tiles. Seeded
// tiles are generated in place; uploaded ones are copied out of the rank's
// rows of the upload, which rank 0 views in Data and an agent was sent
// (recvUpload).
func (sp *JobSpec) ownedInputs(opts qr.Options, job uint32, ranks, rank int) (*matrix.Tiled, *qr.Sketch, error) {
	if err := sp.Validate(); err != nil {
		return nil, nil, err
	}
	a := matrix.NewTiledShell(sp.M, sp.N, opts.NB)
	rows := sp.rows
	if len(sp.Data) > 0 {
		rows = sp.uploadRows(a.NB, ranks, rank)
	}
	sk := qr.NewSketch(sp.N, sketchSeed(job))
	lo, hi := qr.OwnedTileRows(a.MT, ranks, rank)
	for i := lo; i < hi; i++ {
		for j := 0; j < a.NT; j++ {
			tile := matrix.New(a.TileRows(i), a.TileCols(j))
			if rows != nil {
				tile.CopyFrom(rows.View((i-lo)*a.NB, j*a.NB, tile.Rows, tile.Cols))
			} else {
				matrix.FillSeeded(tile, sp.Seed, i*a.NB, j*a.NB)
			}
			a.SetTile(i, j, tile)
		}
		sk.AddTileRow(a, i)
	}
	return a, sk, nil
}

// sketchSeed is the seed of job's check probe, the same on every rank: the
// id every rank has from the open message, salted so that the probe of job
// 7 is not drawn from the stream of an input seeded with 7.
func sketchSeed(job uint32) int64 { return int64(job) ^ 0x5ce7c4_00000000 }

// ownedRows returns the matrix rows [r0, r1) of the tile rows rank owns.
func (sp *JobSpec) ownedRows(nb, ranks, rank int) (r0, r1 int) {
	lo, hi := qr.OwnedTileRows((sp.M+nb-1)/nb, ranks, rank)
	return min(lo*nb, sp.M), min(hi*nb, sp.M)
}

// uploadRows views rank's rows of the upload in Data.
func (sp *JobSpec) uploadRows(nb, ranks, rank int) *matrix.Mat {
	r0, r1 := sp.ownedRows(nb, ranks, rank)
	return matrix.FromColMajor(sp.M, sp.N, sp.M, sp.Data).View(r0, 0, r1-r0, sp.N)
}

// sendUpload is rank 0's half of the upload scatter: every other member of
// the attempt's job session is sent exactly the rows it owns, compacted into
// one dims-prefixed matrix, before the run. A rank that owns none is sent
// nothing, and expects nothing.
func (sp *JobSpec) sendUpload(jep transport.Endpoint, nb int) {
	for r := 1; r < jep.Size(); r++ {
		if rows := sp.uploadRows(nb, jep.Size(), r); rows.Rows > 0 {
			buf, _ := wire.AppendDimMat(nil, rows)
			jep.Isend(buf, r, transport.UploadTag)
		}
	}
}

// recvUpload is an agent's half: one specific receive from rank 0, held to
// the shape this rank owns. A canceled ctx, a closed session and a dead rank
// 0 all end the wait.
func (sp *JobSpec) recvUpload(ctx context.Context, jep transport.Endpoint, nb int) error {
	r0, r1 := sp.ownedRows(nb, jep.Size(), jep.Rank())
	if r0 == r1 {
		return nil
	}
	req := jep.Irecv(0, transport.UploadTag)
	if err := transport.Await(ctx, jep, req); err != nil {
		return fmt.Errorf("service: wait for this rank's rows of the upload canceled: %w", err)
	}
	rows, rest, err := wire.ConsumeDimMat(req.Data())
	if err != nil {
		return fmt.Errorf("service: upload rows: %w", err)
	}
	if rows.Rows != r1-r0 || rows.Cols != sp.N || len(rest) != 0 {
		return fmt.Errorf("service: upload rows are %dx%d with %d bytes over, this rank owns %dx%d",
			rows.Rows, rows.Cols, len(rest), r1-r0, sp.N)
	}
	sp.rows = rows
	return nil
}

// Control-plane messages, exchanged as JSON on the reserved mux job 0
// between the server (underlying rank 0) and its fleet agents.
const (
	ctlJob = 0 // reserved mux job id for the control plane
	ctlTag = 0
)

type ctlMsg struct {
	Op  string `json:"op"` // "open", "cancel", "shutdown"
	Job uint32 `json:"job,omitempty"`
	// Spec is the effective spec of an open, without Data: Upload says the
	// input is an uploaded matrix, whose rows follow on the session
	// (sendUpload).
	Spec   *JobSpec `json:"spec,omitempty"`
	Upload bool     `json:"upload,omitempty"`
	// Session is the mux channel id of this attempt. A retried job keeps
	// its Job id but runs each attempt on a fresh session id, so stragglers
	// of a dead attempt can never leak into the rerun.
	Session uint32 `json:"session,omitempty"`
	// Ranks is the member set (real ranks) of the attempt's session; on a
	// degraded fleet it names the survivors. Agents not listed ignore the
	// open; an open without Session or Ranks is refused.
	Ranks []int `json:"ranks,omitempty"`
}
