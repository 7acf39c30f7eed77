package simulate

import (
	"math/rand"
	"testing"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/qr"
)

// TestMessagesAreTheArrays holds DESIGN §2's claim that the simulator runs
// the task graph the 3D array executes: on every shape, tree and node count
// the inter-node messages it counts are the ones FactorizeVSA sends, at the
// options the array resolved. (Bytes are an estimate: the simulator prices
// every tile at nb² and no packet header.)
func TestMessagesAreTheArrays(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	trees := []qr.Options{
		{Tree: qr.FlatTree},
		{Tree: qr.BinaryTree, Inter: qr.FlatInter},
		{Tree: qr.HierarchicalTree, H: 2},
		{Tree: qr.HierarchicalTree, H: 3, Boundary: qr.FixedBoundary},
		{Tree: qr.HierarchicalTree, H: 5, Boundary: qr.FixedBoundary, Inter: qr.FlatInter},
	}
	var sent int64
	for _, sh := range []struct{ m, n, nb, ib int }{{160, 16, 8, 4}, {45, 13, 8, 3}, {256, 64, 16, 4}} {
		d := matrix.NewRand(sh.m, sh.n, rng)
		for _, o := range trees {
			o.NB, o.IB = sh.nb, sh.ib
			for nodes := 1; nodes <= 4; nodes++ {
				f, err := qr.FactorizeVSA(matrix.FromDense(d, sh.nb), nil, o, qr.RunConfig{Nodes: nodes, Threads: 1})
				if err != nil {
					t.Fatal(err)
				}
				got := Run(Workload{M: sh.m, N: sh.n, Opts: f.Opts}, LocalHost(nodes, 2), SystolicProfile).Messages
				if got != f.Stats.Messages {
					t.Errorf("%dx%d %v on %d nodes: simulator counts %d messages, the array sent %d",
						sh.m, sh.n, f.Opts, nodes, got, f.Stats.Messages)
				}
				sent += f.Stats.Messages
			}
		}
	}
	if sent == 0 {
		t.Fatal("no array sent a message: the comparison held nothing")
	}
}
