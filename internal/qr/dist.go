package qr

import (
	"context"
	"fmt"

	"pulsarqr/internal/pulsar"
	"pulsarqr/internal/transport"
)

// gather moves every packet assemble will read to rank 0. Each declared
// output holds exactly one packet on the rank that ran its producing VDP; the
// owner sends it under a tag derived from the output's index in the
// declaration list — the same list on every rank — and rank 0 posts the
// matching specific receives: no wildcard, so nothing can be misattributed.
// A non-nil part rides the same collective: every other rank sends its
// sketch, and rank 0 adds them into part in rank order.
func (bd *builder) gather(ctx context.Context, ep transport.Endpoint, part *Sketch) error {
	rank := ep.Rank()
	mp := bd.mapping()
	type pending struct {
		e    endpoint // the collector awaited, or
		from int      // the rank whose sketch is (0: a collector)
		req  transport.Request
	}
	what := func(p pending) string {
		if p.from > 0 {
			return fmt.Sprintf("rank %d's input sketch", p.from)
		}
		return fmt.Sprintf("collector %v[%d]", p.e.tup, p.e.slot)
	}
	var reqs []pending // rank 0's receives
	for idx, o := range bd.outputs {
		owner, _ := mp(o.from.tup)
		if owner == 0 {
			continue // already in rank 0's collected map
		}
		tag := transport.GatherTagBase + idx
		switch rank {
		case 0:
			reqs = append(reqs, pending{e: o.from, req: ep.Irecv(owner, tag)})
		case owner:
			p, err := collectedOne(bd.s, o.from.tup, o.from.slot)
			if err != nil {
				return fmt.Errorf("qr: rank %d: %w", rank, err)
			}
			buf, err := pulsar.MarshalPacket(p)
			if err != nil {
				return fmt.Errorf("qr: collector %v[%d]: %w", o.from.tup, o.from.slot, err)
			}
			ep.Isend(buf, 0, tag)
		}
	}
	sketchTag := transport.GatherTagBase + len(bd.outputs)
	switch {
	case part == nil:
	case rank != 0:
		ep.Isend(part.encode(), 0, sketchTag)
	default:
		for r := 1; r < ep.Size(); r++ {
			reqs = append(reqs, pending{from: r, req: ep.Irecv(r, sketchTag)})
		}
	}
	for _, p := range reqs {
		// A receive that ends unmatched means the owning rank departed:
		// Await names the dead peer when the transport knows it.
		if err := transport.Await(ctx, ep, p.req); err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("qr: factorization canceled during gather: %w", err)
			}
			return fmt.Errorf("qr: gather of %s: %w", what(p), err)
		}
		if p.from > 0 {
			z, err := decodeSketch(p.req.Data(), bd.a.N)
			if err != nil {
				return fmt.Errorf("qr: gather of %s: %w", what(p), err)
			}
			for i, v := range z.Data {
				part.Z.Data[i] += v
			}
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
