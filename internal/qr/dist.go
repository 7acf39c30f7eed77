package qr

import (
	"context"
	"encoding/binary"
	"fmt"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/pulsar"
	"pulsarqr/internal/transport"
)

// GatherTagBase keys the post-run result gather: collector endpoint i uses
// tag GatherTagBase+i, and a rank's input Gram the tag after the last
// collector. The runtime's channel tags are small consecutive integers, so
// this range can never collide with in-run traffic (and the proxies are gone
// by gather time anyway — Run ends with a barrier).
const GatherTagBase = 1 << 24

func init() {
	// Inter-process codec for collectMsg packets, used by the result
	// gather: [kind u8][J i32][I i32][K i32][lenTile u32][tile][T].
	pulsar.RegisterCodec(pulsar.Codec{
		ID: 17,
		Encode: func(v any) ([]byte, bool) {
			m, ok := v.(*collectMsg)
			if !ok {
				return nil, false
			}
			bt := pulsar.EncodeMat(m.Tile)
			bf := pulsar.EncodeMat(m.T)
			out := make([]byte, 17+len(bt)+len(bf))
			out[0] = byte(m.Kind)
			binary.LittleEndian.PutUint32(out[1:], uint32(int32(m.J)))
			binary.LittleEndian.PutUint32(out[5:], uint32(int32(m.I)))
			binary.LittleEndian.PutUint32(out[9:], uint32(int32(m.K)))
			binary.LittleEndian.PutUint32(out[13:], uint32(len(bt)))
			copy(out[17:], bt)
			copy(out[17+len(bt):], bf)
			return out, true
		},
		Decode: func(b []byte) (any, error) {
			if len(b) < 17 {
				return nil, fmt.Errorf("qr: short collect packet")
			}
			lt := int(binary.LittleEndian.Uint32(b[13:]))
			if lt < 0 || 17+lt > len(b) {
				return nil, fmt.Errorf("qr: corrupt collect packet")
			}
			tile, err := pulsar.DecodeMat(b[17 : 17+lt])
			if err != nil {
				return nil, err
			}
			tf, err := pulsar.DecodeMat(b[17+lt:])
			if err != nil {
				return nil, err
			}
			return &collectMsg{
				Kind: OpKind(b[0]),
				J:    int(int32(binary.LittleEndian.Uint32(b[1:]))),
				I:    int(int32(binary.LittleEndian.Uint32(b[5:]))),
				K:    int(int32(binary.LittleEndian.Uint32(b[9:]))),
				Tile: tile, T: tf,
			}, nil
		},
	})
}

// FactorizeVSADist runs the 3D virtual systolic array across the real
// process mesh behind ep: every rank must call it with identical inputs
// (a, b, opts, rc), each builds the same array, and each executes only the
// VDPs its rank owns. Collector output is gathered to rank 0, which
// assembles and returns the factorization; the other ranks return
// (nil, nil). The call is collective and ends with a barrier, so when it
// returns on any rank the whole mesh has finished.
func FactorizeVSADist(a *matrix.Tiled, b *matrix.Tiled, opts Options, rc RunConfig, ep transport.Endpoint) (*Factorization, error) {
	return factorizeDist(context.Background(), a, b, nil, opts, rc, ep, nil)
}

// factorizeDist is the collective implementation behind FactorizeVSADist,
// FactorizeVSADistCtx and the distributed arm of FactorizeVSAServe: one
// rank's share of a mesh-wide run, optionally on a persistent worker pool,
// aborted when ctx fires. Thread counts are local to each rank (placement
// depends only on the node count), so ranks may run pools of different
// sizes. A rank injects — and so needs — only the tiles of the rows it owns.
//
// part selects what rank 0 gathers. Nil (FactorizeVSADist{,Ctx}) gathers
// the full transformation log. Non-nil (FactorizeVSAServe) gathers R and
// QᵀB only, and sums every rank's part — the Gram of its owned rows — into
// the returned factorization's Input.
func factorizeDist(ctx context.Context, a *matrix.Tiled, b *matrix.Tiled, part *Gram, opts Options, rc RunConfig, ep transport.Endpoint, pool *pulsar.Pool) (*Factorization, error) {
	opts = opts.normalize()
	rc = rc.normalize()
	rc.Nodes = ep.Size()
	if pool != nil {
		rc.Threads = pool.Threads()
	}
	if err := checkShapes(a, b, opts); err != nil {
		return nil, err
	}

	bd := &builder{a: a, b: b, opts: opts, rc: rc, rOnly: part != nil}
	if b != nil {
		bd.bnt = b.NT
	}
	for j := 0; j < a.NT && j < a.MT; j++ {
		bd.plans = append(bd.plans, planPanel(j, a.MT, opts))
	}
	cfg := pulsar.Config{
		Nodes:           rc.Nodes,
		ThreadsPerNode:  rc.Threads,
		Scheduling:      rc.Scheduling,
		Map:             bd.mapping(),
		FireHook:        rc.FireHook,
		WaitHook:        rc.WaitHook,
		CommHook:        rc.CommHook,
		DeadlockTimeout: rc.DeadlockTimeout,
		Comm:            ep,
		Pool:            pool,
	}
	bd.s = pulsar.New(cfg)
	bd.build()
	bd.injectLocal(ep.Rank())
	if err := runCtx(ctx, bd.s); err != nil {
		return nil, err
	}
	if err := bd.gather(ctx, ep, part); err != nil {
		return nil, err
	}
	defer ep.Barrier()
	if ep.Rank() != 0 {
		return nil, nil
	}
	f, err := bd.assemble()
	if err != nil {
		return nil, err
	}
	f.Input = part
	msgs, bytes := bd.s.NetworkStats()
	f.Stats = RunStats{
		Firings: bd.s.Fired(), Messages: msgs, Bytes: bytes,
		VDPs: bd.s.VDPCount(), Channels: bd.s.ChannelCount(),
	}
	return f, nil
}

// injectLocal seeds the array with the tiles whose consuming VDP lives on
// this rank; the other ranks inject their own shares, so every tile enters
// the array exactly once across the mesh.
func (bd *builder) injectLocal(rank int) {
	mp := bd.mapping()
	for i := 0; i < bd.a.MT; i++ {
		if n, _ := mp(panelTup(0, i)); n == rank {
			bd.s.Inject(panelTup(0, i), 0, pulsar.NewPacket(bd.a.Tile(i, 0)))
		}
		for _, l := range bd.cols(0) {
			if n, _ := mp(updateTup(0, i, l)); n == rank {
				bd.s.Inject(updateTup(0, i, l), 0, pulsar.NewPacket(bd.colTile(i, l)))
			}
		}
	}
}

// collectorEndpoints enumerates every external output channel assemble
// reads, in the exact order it visits them. The enumeration is a pure
// function of the (identical) array structure, so all ranks agree on the
// index — and therefore the gather tag — of each endpoint.
func (bd *builder) collectorEndpoints() []endpoint {
	var eps []endpoint
	for _, plan := range bd.plans {
		j := plan.J
		if !bd.rOnly {
			for _, d := range plan.Domains {
				rows := append([]int{d.Top}, d.Rows...)
				for _, i := range rows {
					eps = append(eps, endpoint{panelTup(j, i), 2})
				}
			}
			for _, m := range plan.Merges {
				eps = append(eps, endpoint{mergeTup(j, m.Surv, m.K), 2})
			}
		}
		eps = append(eps, bd.rStreamEnd(plan))
		for _, l := range bd.cols(j) {
			eps = append(eps, bd.tileStreamEnd(plan, l))
		}
	}
	if bd.b != nil {
		last := len(bd.plans) - 1
		plan := bd.plans[last]
		for r := 0; r < bd.bnt; r++ {
			l := bd.a.NT + r
			for _, d := range plan.Domains {
				for _, k := range d.Rows {
					eps = append(eps, endpoint{updateTup(last, k, l), 3})
				}
			}
			for _, m := range plan.Merges {
				eps = append(eps, endpoint{mergeUpdTup(last, m.Surv, m.K, l), 2})
			}
		}
	}
	return eps
}

// gather moves every collector packet assemble will read to rank 0. Each
// endpoint holds exactly one packet on the rank that ran its producing VDP;
// the owner sends it with a tag derived from the endpoint's enumeration
// index, and rank 0 posts the matching specific receives — no wildcard, so
// nothing can be misattributed. A non-nil part rides the same collective:
// every other rank sends its own, and rank 0 adds them into part in rank
// order.
func (bd *builder) gather(ctx context.Context, ep transport.Endpoint, part *Gram) error {
	rank := ep.Rank()
	mp := bd.mapping()
	eps := bd.collectorEndpoints()
	gramTag := GatherTagBase + len(eps)
	if rank != 0 {
		for idx, e := range eps {
			owner, _ := mp(e.tup)
			if owner != rank {
				continue
			}
			p, err := bd.collectedOne(e.tup, e.slot)
			if err != nil {
				return fmt.Errorf("qr: rank %d: %w", rank, err)
			}
			buf, err := pulsar.MarshalPacket(p)
			if err != nil {
				return fmt.Errorf("qr: collector %v[%d]: %w", e.tup, e.slot, err)
			}
			ep.Isend(buf, 0, GatherTagBase+idx)
		}
		if part != nil {
			ep.Isend(part.encode(), 0, gramTag)
		}
		return nil
	}
	type pending struct {
		e    endpoint // the collector awaited, or
		from int      // the rank whose Gram is (0: a collector)
		req  transport.Request
	}
	what := func(p pending) string {
		if p.from > 0 {
			return fmt.Sprintf("rank %d's input Gram", p.from)
		}
		return fmt.Sprintf("collector %v[%d]", p.e.tup, p.e.slot)
	}
	var reqs []pending
	for idx, e := range eps {
		owner, _ := mp(e.tup)
		if owner == 0 {
			continue // already in the local collected map
		}
		reqs = append(reqs, pending{e: e, req: ep.Irecv(owner, GatherTagBase+idx)})
	}
	if part != nil {
		for r := 1; r < ep.Size(); r++ {
			reqs = append(reqs, pending{from: r, req: ep.Irecv(r, gramTag)})
		}
	}
	for _, p := range reqs {
		waitCtx(ctx, p.req)
		if p.req.Canceled() {
			if ctx != nil && ctx.Err() != nil {
				return fmt.Errorf("qr: factorization canceled during gather: %w", context.Cause(ctx))
			}
			// A canceled gather receive means the owning rank departed; when
			// the transport knows why, name the dead peer instead of the
			// generic verdict.
			if fo, ok := ep.(transport.FailureObserver); ok {
				if pe := fo.PeerFailure(); pe != nil {
					return fmt.Errorf("qr: gather of %s: %w", what(p), pe)
				}
			}
			return fmt.Errorf("qr: gather of %s canceled: peer gone", what(p))
		}
		if p.from > 0 {
			g, err := decodeGram(p.req.Data(), bd.a.N)
			if err != nil {
				return fmt.Errorf("qr: gather of %s: %w", what(p), err)
			}
			part.add(g)
			continue
		}
		pkt, err := pulsar.UnmarshalPacket(p.req.Data())
		if err != nil {
			return fmt.Errorf("qr: gather of %s: %w", what(p), err)
		}
		bd.s.AddCollected(p.e.tup, p.e.slot, pkt)
	}
	return nil
}
