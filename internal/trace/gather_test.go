package trace

import (
	"context"
	"errors"
	"testing"
	"time"

	"pulsarqr/internal/transport"
)

// A shard gather that loses a rank says which: the error carries the
// transport's verdict on the dead peer, as the result gather's does, not a
// bare "canceled".
func TestGatherShardsNamesDeadRank(t *testing.T) {
	eps, err := transport.DialLoopback(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	// Rank 2 delivers, rank 1 dies first: the survivors' link keeps rank 0's
	// endpoint alive, so only the receive from the dead rank ends.
	if _, err := GatherShards(context.Background(), eps[2], Shard{Rank: 2}); err != nil {
		t.Fatal(err)
	}
	eps[1].(transport.Crasher).Crash()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = GatherShards(ctx, eps[0], Shard{Rank: 0})
	var pde *transport.PeerDeathError
	if !errors.As(err, &pde) || pde.Rank != 1 {
		t.Fatalf("gather with rank 1 dead: err %v, want one naming rank 1", err)
	}
}
