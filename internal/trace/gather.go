package trace

import (
	"context"
	"fmt"
	"sort"

	"pulsarqr/internal/transport"
)

// GatherShards collects every rank's shard at rank 0 — the trace
// counterpart of the result gather. It is collective: every rank of ep must
// call it with its own shard after the run's closing barrier. Rank 0
// returns all shards sorted by rank; other ranks send theirs and return
// (nil, nil). A nil or single-rank endpoint returns just the local shard.
func GatherShards(ctx context.Context, ep transport.Endpoint, local Shard) ([]Shard, error) {
	if ep == nil || ep.Size() == 1 {
		return []Shard{local}, nil
	}
	if ep.Rank() != 0 {
		ep.Isend(EncodeShard(local), 0, transport.TraceGatherTag)
		return nil, nil
	}
	shards := []Shard{local}
	for r := 1; r < ep.Size(); r++ {
		req := ep.Irecv(r, transport.TraceGatherTag)
		if err := transport.Await(ctx, ep, req); err != nil {
			return nil, fmt.Errorf("trace: gather of rank %d's shard: %w", r, err)
		}
		s, err := DecodeShard(req.Data())
		if err != nil {
			return nil, fmt.Errorf("trace: rank %d shard: %w", r, err)
		}
		shards = append(shards, s)
	}
	sort.Slice(shards, func(a, b int) bool { return shards[a].Rank < shards[b].Rank })
	return shards, nil
}
