package qr

import (
	"context"
	"encoding/binary"
	"fmt"

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
		EncodeAppend: func(dst []byte, v any) ([]byte, bool) {
			m, ok := v.(*collectMsg)
			if !ok {
				return dst, false
			}
			hdr := [13]byte{byte(m.Kind)}
			binary.LittleEndian.PutUint32(hdr[1:], uint32(int32(m.J)))
			binary.LittleEndian.PutUint32(hdr[5:], uint32(int32(m.I)))
			binary.LittleEndian.PutUint32(hdr[9:], uint32(int32(m.K)))
			return appendTwoMats(dst, hdr[:], m.Tile, m.T), true
		},
		Decode: func(b []byte) (any, error) {
			if len(b) < 13 {
				return nil, fmt.Errorf("qr: short collect packet")
			}
			tile, tf, err := consumeTwoMats(b[13:])
			if err != nil {
				return nil, fmt.Errorf("qr: collect packet: %w", err)
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
