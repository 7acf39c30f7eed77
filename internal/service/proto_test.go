package service

import (
	"encoding/json"
	"io"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pulsarqr/internal/plan"
)

// Two admissible dimensions can multiply to terabytes: the element bound,
// not the per-dimension one, is what keeps such a spec out.
func TestValidateBoundsElements(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec JobSpec
		ok   bool
	}{
		{"2^20 square, 8 TiB", JobSpec{M: 1 << 20, N: 1 << 20, Seed: 1}, false},
		{"seeded at the limit", JobSpec{M: 1 << 20, N: 1 << 8, Seed: 1}, true},
		{"seeded one column over", JobSpec{M: 1 << 20, N: 1<<8 + 1, Seed: 1}, false},
		{"dimension over", JobSpec{M: 1<<20 + 1, N: 1, Seed: 1}, false},
		{"upload at the limit", JobSpec{M: 1 << 14, N: 1 << 8, Data: make([]float64, 1<<22)}, true},
		{"upload over the limit", JobSpec{M: 1<<14 + 1, N: 1 << 8, Data: make([]float64, (1<<14+1)<<8)}, false},
		{"the benchmark's upload", JobSpec{M: 2048, N: 128, Data: make([]float64, 2048*128)}, true},
	} {
		err := tc.spec.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want accepted=%v", tc.name, err, tc.ok)
		}
		if err != nil && tc.spec.M <= maxDim && !strings.Contains(err.Error(), "element limit") {
			t.Errorf("%s: error %q does not name the element limit", tc.name, err)
		}
	}
}

// The element bound does not bound the granularity: a one-element tile on an
// admissible shape is a tile, a VDP and a packet per element. The task graph
// is bounded too, and an inner block wider than the tile is refused, not
// clamped.
func TestValidateBoundsTasksAndInnerBlock(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec JobSpec
		want string // substring of the error; "" means accepted
	}{
		{"nb=1 on 2^28 elements", JobSpec{M: 1 << 14, N: 1 << 14, NB: 1, Seed: 1}, "task graph"},
		{"nb=1 on a tall 2^28", JobSpec{M: 1 << 20, N: 1 << 8, NB: 1, Seed: 1}, "task graph"},
		{"nb=32 on 2^14 square", JobSpec{M: 1 << 14, N: 1 << 14, NB: 32, Seed: 1}, "task graph"},
		{"default tile on 2^14 square", JobSpec{M: 1 << 14, N: 1 << 14, Seed: 1}, ""},
		{"default tile on the tallest seeded", JobSpec{M: 1 << 20, N: 1 << 8, Seed: 1}, ""},
		{"nb=1 on 64x64", JobSpec{M: 64, N: 64, NB: 1, Seed: 1}, ""},
		{"ib above nb", JobSpec{M: 512, N: 64, NB: 32, IB: 33, Seed: 1}, "ib=33 exceeds nb=32"},
		{"ib above the default nb", JobSpec{M: 512, N: 64, IB: 4096, Seed: 1}, "exceeds nb="},
		{"ib equal to nb", JobSpec{M: 512, N: 64, NB: 32, IB: 32, Seed: 1}, ""},
		{"nb past every dimension", JobSpec{M: 512, N: 64, NB: 1 << 62, Seed: 1}, "nb="},
		{"nb at MaxInt", JobSpec{M: 512, N: 64, NB: 1<<63 - 1, Seed: 1}, "nb="},
		{"small nb, ib omitted", JobSpec{M: 96, N: 48, NB: 16, Seed: 1}, ""},
	} {
		err := tc.spec.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: Validate = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
	// An omitted ib follows a small nb down instead of tripping the check.
	sp := JobSpec{M: 96, N: 48, NB: 16}
	if opts, err := sp.Options(); err != nil || opts.IB != 16 {
		t.Errorf("nb=16 with ib omitted resolves to ib=%d (%v), want 16", opts.IB, err)
	}
}

// POST /v1/factorize reads a bounded body: past the bound it answers 413
// without admitting anything, a malformed body is a 400, and the 8 TiB spec
// is a 400 from validation — each with a JSON error, none counted as a job.
func TestSubmitBodyBounded(t *testing.T) {
	s, err := NewServer(Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body io.Reader) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/factorize", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("status %d with an undecodable error body: %v", resp.StatusCode, err)
		}
		return resp.StatusCode, e.Error
	}

	// A syntactically endless upload: the decoder must be cut off at the
	// bound, not fed until memory runs out.
	endless := io.MultiReader(strings.NewReader(`{"m":4,"n":4,"data":[`), &numbersForever{})
	if code, msg := post(io.LimitReader(endless, 2*maxSubmitBytes)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d (%s), want 413", code, msg)
	}
	if code, msg := post(strings.NewReader(`{"m":1048576,"n":1048576,"seed":1}`)); code != http.StatusBadRequest || !strings.Contains(msg, "element limit") {
		t.Errorf("8 TiB spec: status %d (%s), want 400 naming the element limit", code, msg)
	}
	if code, _ := post(strings.NewReader(`{"m":64,"n":`)); code != http.StatusBadRequest {
		t.Errorf("truncated body: status %d, want 400", code)
	}
	if code, msg := post(strings.NewReader(`{"m":16384,"n":16384,"nb":1,"seed":1}`)); code != http.StatusBadRequest || !strings.Contains(msg, "task graph") {
		t.Errorf("one-element tiles: status %d (%s), want 400 naming the task graph", code, msg)
	}
	if code, msg := post(strings.NewReader(`{"m":512,"n":64,"nb":32,"ib":33,"seed":1}`)); code != http.StatusBadRequest || !strings.Contains(msg, "exceeds nb") {
		t.Errorf("ib above nb: status %d (%s), want 400", code, msg)
	}
	if got := s.Metrics().Accepted.Load(); got != 0 {
		t.Errorf("%d jobs admitted from refused requests", got)
	}
}

// numbersForever reads as an unending run of JSON array elements.
type numbersForever struct{ off int }

func (r *numbersForever) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = "0.125,"[(r.off+i)%6]
	}
	r.off += len(p)
	return len(p), nil
}

// FuzzJobSpec feeds POST /v1/factorize bodies through the handler's decode
// and Validate. Whatever is admitted must be safe to hand to every rank:
// dimensions and element count inside the limits (checked in arbitrary
// precision, so an overflowing product cannot pass), data of exactly m·n
// entries or none, options that resolve, and a spec that survives the
// control-plane broadcast. Small admitted specs are also built, rank by
// rank, the way runJob builds them.
func FuzzJobSpec(f *testing.F) {
	// The named cases — the 8 TiB spec, products that overflow int64, short
	// data, hostile options — are the corpus under testdata/fuzz/FuzzJobSpec.
	for _, s := range []string{
		`{"m":-4,"n":2}`,
		`{"m":2,"n":4}`,
		`{"m":8,"n":8,"tree":"greedy"}`,
		`{"m":8,"n":8,"max_retries":9}`,
		`{"m":8,"n":8,"data":[1e999]}`,
		`{"m":1e3,"n":8}`,
		`{"m":"8","n":8}`,
		``, `null`, `[]`, `{"m":8,"n":8`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req submitRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return
		}
		sp := req.JobSpec
		if sp.Validate() != nil {
			return
		}
		if sp.M < 1 || sp.N < 1 || sp.M > maxDim || sp.N > maxDim || sp.M < sp.N {
			t.Fatalf("admitted shape %dx%d", sp.M, sp.N)
		}
		limit := int64(maxSeededElems)
		if len(sp.Data) > 0 {
			limit = maxUploadElems
		}
		elems := new(big.Int).Mul(big.NewInt(int64(sp.M)), big.NewInt(int64(sp.N)))
		if elems.Cmp(big.NewInt(limit)) > 0 {
			t.Fatalf("admitted %dx%d = %s elements, limit %d", sp.M, sp.N, elems, limit)
		}
		if len(sp.Data) != 0 && int64(len(sp.Data)) != elems.Int64() {
			t.Fatalf("admitted %d data entries for %dx%d", len(sp.Data), sp.M, sp.N)
		}
		opts, err := sp.Options()
		if err != nil {
			t.Fatalf("admitted spec has no options: %v", err)
		}
		opts = opts.Resolve((sp.M+opts.NB-1)/opts.NB, 1) // what planJob stamps on a one-worker server
		if opts.NB < 1 || opts.NB > maxDim || opts.IB < 1 || opts.IB > opts.NB || opts.H < 1 {
			t.Fatalf("admitted spec resolves to %v", opts)
		}
		// Every tile is at least one task, so the tile count — formed in
		// arbitrary precision — cannot exceed the task limit.
		nb := big.NewInt(int64(opts.NB))
		ceil := func(x int) *big.Int {
			return new(big.Int).Div(new(big.Int).Add(big.NewInt(int64(x)), new(big.Int).Sub(nb, big.NewInt(1))), nb)
		}
		if tiles := new(big.Int).Mul(ceil(sp.M), ceil(sp.N)); tiles.Cmp(big.NewInt(plan.MaxTasks)) > 0 {
			t.Fatalf("admitted %dx%d at nb=%d: %s tiles, task limit %d", sp.M, sp.N, opts.NB, tiles, plan.MaxTasks)
		}
		if _, err := json.Marshal(ctlMsg{Op: "open", Spec: &sp}); err != nil {
			t.Fatalf("admitted spec cannot be broadcast: %v", err)
		}
		if elems.Int64() > 1<<12 {
			return
		}
		for ranks := 1; ranks <= 3; ranks++ {
			for rank := 0; rank < ranks; rank++ {
				if _, _, _, err := sp.ownedInputs(opts, 1, ranks, rank); err != nil {
					t.Fatalf("rank %d of %d: %v", rank, ranks, err)
				}
			}
		}
	})
}
