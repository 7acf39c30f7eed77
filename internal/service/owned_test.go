package service

// Owned-rows job execution: what each rank builds, what the distributed
// check accepts and refuses, and what happens when a rank dies between its
// run and the check reduce.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pulsarqr/internal/matrix"
	"pulsarqr/internal/qr"
	"pulsarqr/internal/transport"
)

// What a seed denotes does not depend on the tile size or the fleet: for
// every nb and rank count each rank's owned tiles are exactly the matching
// blocks of BuildInputs' dense matrix, the tiles it does not own are never
// allocated, and the ranks' sketches sum to the sketch of the whole. An
// uploaded matrix is sliced the same way.
func TestOwnedInputsMatchBuildInputs(t *testing.T) {
	const m, n = 200, 70 // ragged for every nb below
	upload := matrix.NewSeeded(m, n, 99).Data
	for _, base := range []JobSpec{{M: m, N: n, Seed: 42}, {M: m, N: n, Data: upload}} {
		var ref *matrix.Mat
		for _, nb := range []int{32, 64, 96} {
			spec := base
			spec.NB = nb
			_, dense, err := spec.BuildInputs()
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = dense
			} else if matrix.MaxAbsDiff(ref, dense) != 0 {
				t.Fatalf("nb=%d: BuildInputs' matrix depends on the tile size", nb)
			}
			opts, err := spec.Options()
			if err != nil {
				t.Fatal(err)
			}
			opts = opts.Resolve((m+nb-1)/nb, 1) // as planJob stamps it
			whole, ta := qr.NewSketch(n, sketchSeed(3)), matrix.FromDense(dense, nb)
			for i := 0; i < ta.MT; i++ {
				whole.AddTileRow(ta, i)
			}
			for ranks := 1; ranks <= 3; ranks++ {
				sum := matrix.New(n, whole.Z.Cols)
				for rank := 0; rank < ranks; rank++ {
					a, env, _, err := spec.ownedInputs(opts, 3, ranks, rank)
					if err != nil {
						t.Fatal(err)
					}
					part := env.Part
					lo, hi := qr.OwnedTileRows(a.MT, ranks, rank)
					for i := 0; i < a.MT; i++ {
						for j := 0; j < a.NT; j++ {
							tile := a.Tile(i, j)
							if i < lo || i >= hi {
								if tile != nil {
									t.Fatalf("nb=%d ranks=%d: rank %d allocated tile (%d,%d) of a row it does not own", nb, ranks, rank, i, j)
								}
								continue
							}
							if d := matrix.MaxAbsDiff(tile, dense.View(i*nb, j*nb, a.TileRows(i), a.TileCols(j))); d != 0 {
								t.Fatalf("nb=%d ranks=%d rank %d: tile (%d,%d) differs from BuildInputs' dense by %g", nb, ranks, rank, i, j, d)
							}
						}
					}
					if matrix.MaxAbsDiff(part.X, whole.X) != 0 {
						t.Fatalf("nb=%d ranks=%d: rank %d drew another probe", nb, ranks, rank)
					}
					for k, v := range part.Z.Data {
						sum.Data[k] += v
					}
				}
				if rel := sum.Sub(whole.Z).FrobNorm() / whole.Z.FrobNorm(); rel > 1e-13 {
					t.Errorf("nb=%d ranks=%d: partial sketches sum to within %g of the whole's", nb, ranks, rel)
				}
			}
		}
		if len(base.Data) == 0 {
			for _, v := range ref.Data {
				if !(v > -1 && v < 1) {
					t.Fatalf("seeded entry %v outside (−1, 1)", v)
				}
			}
		}
	}
}

// The acceptance rule keeps its strength: the R a job computed passes, and
// the same R with one entry nudged does not.
func TestAcceptRefusesPerturbedR(t *testing.T) {
	spec := JobSpec{M: 160, N: 64, NB: 32, IB: 8, Seed: 5}
	opts, err := spec.Options()
	if err != nil {
		t.Fatal(err)
	}
	opts = opts.Resolve(5, 2) // as planJob stamps it for two workers
	a, env, _, err := spec.ownedInputs(opts, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := qr.FactorizeVSAIn(context.Background(), a, nil, opts, qr.RunConfig{Threads: 2}, env)
	if err != nil {
		t.Fatal(err)
	}
	r := f.R()
	if res, ok := accept(f.Input, r); !ok {
		t.Fatalf("correct R refused: residual %g", res)
	}
	r.Set(3, 40, r.At(3, 40)+1e-6)
	if res, ok := accept(f.Input, r); ok {
		t.Fatalf("R with one entry off by 1e-6 accepted: residual %g", res)
	}
}

// The check is scale-free: a correct R passes whatever the input's scale, an
// all-zero input included, and R×1.5 — a 125 % error in RᵀR — is refused at
// every non-zero scale.
func TestAcceptIsScaleFree(t *testing.T) {
	const m, n = 512, 64
	base := matrix.NewSeeded(m, n, 41)
	for _, scale := range []float64{0, 1e-12, 1e-9, 1, 1e9, 1e12} {
		spec := JobSpec{M: m, N: n, Data: make([]float64, m*n)}
		for i, v := range base.Data {
			spec.Data[i] = v * scale
		}
		opts, err := spec.Options()
		if err != nil {
			t.Fatal(err)
		}
		opts = opts.Resolve((m+opts.NB-1)/opts.NB, 2) // as planJob stamps it for two workers
		a, env, _, err := spec.ownedInputs(opts, 9, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		f, err := qr.FactorizeVSAIn(context.Background(), a, nil, opts, qr.RunConfig{Threads: 2}, env)
		if err != nil {
			t.Fatal(err)
		}
		r := f.R()
		if res, ok := accept(f.Input, r); !ok {
			t.Errorf("scale %g: correct R refused, residual %g", scale, res)
		}
		for i := range r.Data {
			r.Data[i] *= 1.5
		}
		if res, ok := accept(f.Input, r); ok && scale != 0 {
			t.Errorf("scale %g: R×1.5 accepted, residual %g", scale, res)
		}
	}
}

// corruptingAgent plays rank 1 of a 2-rank fleet for one job the way
// Agent.runJob does, except that it changes one entry of a tile it owns
// after the tile's sketch was taken — a fault between the check's input and
// the run's.
func corruptingAgent(t *testing.T, ep transport.Endpoint) {
	mux := transport.NewMux(ep)
	defer mux.Close()
	ctl, err := mux.Open(ctlJob)
	if err != nil {
		t.Error(err)
		return
	}
	defer ctl.Close()
	req := ctl.Irecv(0, ctlTag)
	req.Wait()
	var msg ctlMsg
	if err := json.Unmarshal(req.Data(), &msg); err != nil || msg.Op != "open" {
		t.Errorf("corrupting agent: first control message %q, err %v", req.Data(), err)
		return
	}
	jep, err := mux.OpenOn(msg.Session, msg.Ranks)
	if err != nil {
		t.Error(err)
		return
	}
	defer jep.Close()
	opts, err := msg.Spec.Options()
	if err != nil {
		t.Error(err)
		return
	}
	a, env, _, err := msg.Spec.ownedInputs(opts, msg.Job, jep.Size(), jep.Rank())
	if err != nil {
		t.Error(err)
		return
	}
	lo, _ := qr.OwnedTileRows(a.MT, jep.Size(), jep.Rank())
	a.Tile(lo, 0).Add(5, 7, 0.125)
	env.Endpoint = jep
	if _, err := qr.FactorizeVSAIn(context.Background(), a, nil, opts, qr.RunConfig{}, env); err != nil {
		t.Errorf("corrupting agent: %v", err)
	}
}

// A job whose input changed on a non-zero rank after that rank's sketch was
// taken completes, and reports ok=false.
func TestFleetJobRefusesTileCorruptedAfterSketch(t *testing.T) {
	l := transport.NewLocal(2)
	agentDone := make(chan struct{})
	go func() {
		defer close(agentDone)
		corruptingAgent(t, l.Endpoint(1))
	}()
	s, err := NewServer(Config{Threads: 2, Ep: l.Endpoint(0), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j, err := s.Submit(JobSpec{M: 256, N: 64, NB: 32, IB: 8, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if res := j.Result(); res.OK || !(res.Residual > residualTol) {
		t.Fatalf("job over a corrupted tile reported ok=%v residual %g", res.OK, res.Residual)
	}
	<-agentDone
}

// A NaN or an infinity in the input makes the check's quantity non-finite,
// alone and on a fleet alike — the upload reaches the ranks as bits, so there
// is nothing a NaN cannot be written in: the job finishes and reports
// ok=false, and a clean job on the same server right after passes.
func TestNaNInputIsNotOK(t *testing.T) {
	input := func(vs ...float64) []float64 {
		data := matrix.NewSeeded(192, 64, 23).Data
		for k, v := range vs {
			data[150+(3+k)*192] = v // in rank 1's rows on the fleet
		}
		return data
	}

	alone, err := NewServer(Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer alone.Close()

	l := transport.NewLocal(2)
	agent, err := NewAgent(l.Endpoint(1), 2, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	agentDone := make(chan error, 1)
	go func() { agentDone <- agent.Run(context.Background()) }()
	fleet, err := NewServer(Config{Threads: 2, Ep: l.Endpoint(0), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		fleet.Close() // broadcasts shutdown, which ends the agent's Run
		<-agentDone
		agent.Close()
	}()

	for name, s := range map[string]*Server{"alone": alone, "fleet": fleet} {
		for _, tc := range []struct {
			what string
			data []float64
			ok   bool
		}{
			{"NaN", input(math.NaN()), false},
			{"±Inf", input(math.Inf(1), math.Inf(-1)), false},
			{"clean", input(), true},
		} {
			j, err := s.Submit(JobSpec{M: 192, N: 64, NB: 32, IB: 8, Data: tc.data})
			if err != nil {
				t.Fatalf("%s, %s: %v", name, tc.what, err)
			}
			select {
			case <-j.Done():
			case <-time.After(60 * time.Second):
				t.Fatalf("%s: job over a %s input hung", name, tc.what)
			}
			state, msg := j.State()
			res := j.Result()
			if state != StateDone || res == nil {
				t.Errorf("%s, %s: state %s (%s); want done", name, tc.what, state, msg)
				continue
			}
			finite := !math.IsNaN(res.Residual) && !math.IsInf(res.Residual, 0)
			if res.OK != tc.ok || finite != tc.ok {
				t.Errorf("%s, %s: ok=%v residual %g; want ok=%v with a finite residual only if ok", name, tc.what, res.OK, res.Residual, tc.ok)
			}
		}
	}
}

// dieAtGather is an agent's endpoint that crashes its rank — abruptly, as
// kill -9 would — the first time the rank sends anything of the post-run
// gather: after the run's closing barrier, before its sketch reaches rank 0.
type dieAtGather struct {
	transport.Endpoint
	died *atomic.Bool
}

// IsendPrefixed is how the mux sends the agent's job traffic.
func (d dieAtGather) IsendPrefixed(prefix, data []byte, dest, tag int) transport.Request {
	if tag >= transport.GatherTagBase && d.died.CompareAndSwap(false, true) {
		d.Endpoint.(transport.Crasher).Crash()
	}
	return d.Endpoint.IsendPrefixed(prefix, data, dest, tag)
}

// A rank that dies between its run and the check reduce leaves rank 0
// waiting in the gather for a sketch that will never come. That wait must end
// with the transport's verdict, and the job must be requeued onto the
// survivors and finish there — verified — not wedge its dispatcher. An
// uploaded job's input outlives the requeue: the retry deals it out again,
// over the ranks that are left.
func TestFleetRequeuesWhenPeerDiesBeforeCheckReduce(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet chaos test skipped in -short mode")
	}
	for name, spec := range map[string]JobSpec{
		"seeded":   {M: 768, N: 128, NB: 32, IB: 8, Seed: 67, MaxRetries: 2, RetryBackoffMS: 5},
		"uploaded": {M: 768, N: 128, NB: 32, IB: 8, Data: matrix.NewSeeded(768, 128, 68).Data, MaxRetries: 1, RetryBackoffMS: 5},
	} {
		t.Run(name, func(t *testing.T) { requeueAfterGatherDeath(t, spec) })
	}
}

func requeueAfterGatherDeath(t *testing.T, spec JobSpec) {
	eps := resilientTCPMesh(t, 3)
	var died atomic.Bool
	agentEps := []transport.Endpoint{eps[1], dieAtGather{eps[2], &died}}
	agents := make([]*Agent, 2)
	agentDone := make([]chan error, 2)
	for i := range agents {
		ag, err := NewAgent(agentEps[i], 2, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = ag
		agentDone[i] = make(chan error, 1)
		go func(i int) { agentDone[i] <- agents[i].Run(context.Background()) }(i)
	}
	s, err := NewServer(Config{Threads: 2, Ep: eps[0], Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}

	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("job wedged after a rank died between run and check reduce")
	}
	if !died.Load() {
		t.Fatal("rank 2 never reached the gather; the test exercised nothing")
	}
	if state, msg := j.State(); state != StateDone {
		t.Fatalf("job state = %s (%s), want done on the surviving ranks", state, msg)
	}
	if !j.Result().OK {
		t.Errorf("requeued job residual %g", j.Result().Residual)
	}
	checkResultR(t, "survivors", j.Result().R, oracleR(t, s, spec))
	if j.Attempts() < 1 {
		t.Error("job completed without a requeue")
	}
	if got := s.Metrics().Requeued.Load(); got < 1 {
		t.Errorf("requeued = %d, want >= 1", got)
	}
	if got := s.AgentsLive(); got != 2 {
		t.Errorf("AgentsLive = %d, want 2 (server + surviving agent)", got)
	}

	s.Close()
	select {
	case err := <-agentDone[0]:
		if err != nil {
			t.Errorf("surviving agent exited with %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("surviving agent did not exit after shutdown broadcast")
	}
	agents[0].Close()
	for _, ep := range eps {
		ep.Close()
	}
}

// Rank 0 resolves the configuration once and the open broadcast carries it
// whole: a job submitted with nb, ib, h and tree all omitted reaches the
// fleet with the four values set — h as one domain per worker of the fleet,
// 2 ranks × 2 threads — so ranks whose builds or pools disagreed on a
// default would still tile one matrix one way. And an agent takes them from
// the message: one stamped 64/16 builds a 64-tiled array, whatever this
// build's own default is. Rank 1 is played by hand, the way Agent.runJob
// runs it, so the test sees the message itself.
func TestOpenBroadcastCarriesEffectiveConfig(t *testing.T) {
	def := qr.DefaultOptions()
	specs := []JobSpec{
		{M: 3 * def.NB, N: 64, Seed: 29},          // everything omitted
		{M: 512, N: 64, NB: 64, IB: 16, Seed: 31}, // what a 64/16-default server would stamp
	}
	type seen struct {
		raw  string
		spec JobSpec
		opts qr.Options
		nb   int // tile size of the array rank 1 built
	}
	got := make(chan seen, len(specs))

	l := transport.NewLocal(2)
	agentDone := make(chan struct{})
	go func() {
		defer close(agentDone)
		mux := transport.NewMux(l.Endpoint(1))
		defer mux.Close()
		ctl, err := mux.Open(ctlJob)
		if err != nil {
			t.Error(err)
			return
		}
		defer ctl.Close()
		for range specs {
			req := ctl.Irecv(0, ctlTag)
			req.Wait()
			var msg ctlMsg
			if err := json.Unmarshal(req.Data(), &msg); err != nil || msg.Op != "open" || msg.Spec == nil {
				t.Errorf("control message %q, err %v; want an open with a spec", req.Data(), err)
				return
			}
			jep, err := mux.OpenOn(msg.Session, msg.Ranks)
			if err != nil {
				t.Error(err)
				return
			}
			opts, err := msg.Spec.Options()
			if err != nil {
				t.Error(err)
				return
			}
			a, env, _, err := msg.Spec.ownedInputs(opts, msg.Job, jep.Size(), jep.Rank())
			if err != nil {
				t.Error(err)
				return
			}
			got <- seen{string(req.Data()), *msg.Spec, opts, a.NB}
			env.Endpoint = jep
			if _, err := qr.FactorizeVSAIn(context.Background(), a, nil, opts, qr.RunConfig{}, env); err != nil {
				t.Errorf("rank 1: %v", err)
			}
			jep.Close()
		}
	}()

	var admitted []string
	s, err := NewServer(Config{Threads: 2, Ep: l.Endpoint(0), Logf: func(format string, args ...any) {
		if strings.Contains(format, "admitted") {
			admitted = append(admitted, fmt.Sprintf(format, args...))
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, spec := range specs {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		if res := j.Result(); res == nil || !res.OK {
			t.Fatalf("job %d: %+v", i, res)
		}
	}
	<-agentDone

	first := <-got
	const firstH = 1 // 3 tile rows over 4 workers
	if first.spec.NB != def.NB || first.spec.IB != def.IB || first.spec.H != firstH || first.spec.Tree != def.Tree.String() {
		t.Errorf("open for a spec with the configuration omitted carries nb=%d ib=%d h=%d tree=%q, want %d/%d/%d/%q\n%s",
			first.spec.NB, first.spec.IB, first.spec.H, first.spec.Tree, def.NB, def.IB, firstH, def.Tree, first.raw)
	}
	if first.nb != def.NB {
		t.Errorf("rank 1 tiled at nb=%d, want %d", first.nb, def.NB)
	}
	second := <-got
	want := qr.Options{NB: 64, IB: 16, H: 2, Tree: def.Tree, Boundary: def.Boundary, Inter: def.Inter} // 8 tile rows over 4 workers
	if second.opts != want || second.nb != 64 {
		t.Errorf("a spec stamped 64/16 resolved to %v on the agent (array nb=%d), want %v", second.opts, second.nb, want)
	}
	if len(admitted) == 0 || !strings.Contains(admitted[0], fmt.Sprintf("nb=%d ib=%d", def.NB, def.IB)) {
		t.Errorf("admission log does not print the effective tile: %q", admitted)
	}
}
