package serve

import (
	"context"
	"errors"
	"testing"

	"ndirect/internal/conv"
	"ndirect/internal/core"
	"ndirect/internal/nn"
	"ndirect/internal/tensor"
)

// fillInts fills t with small integer-valued floats. Integer inputs
// make every execution mode bit-identical: sums of small integers are
// exactly representable, so the optimised grid (float32, blocked
// order), the degraded plan (different tiles) and the reference rung
// (float64 accumulation) all round to the same bits — the ladder can
// be tested for exact equality, not just tolerance.
func fillInts(t *tensor.Tensor, seed uint64) {
	x := seed*2654435761 + 12345
	for i := range t.Data {
		x = x*6364136223846793005 + 1442695040888963407
		t.Data[i] = float32(int64(x>>33)%7 - 3) // in [-3, 3]
	}
}

var testShape = conv.Shape{N: 1, C: 8, H: 16, W: 16, K: 16, R: 3, S: 3, Str: 1, Pad: 1}

func testOperands(s conv.Shape) (in, filter *tensor.Tensor, want *tensor.Tensor) {
	in = s.NewInput()
	fillInts(in, 1)
	filter = s.NewFilter()
	fillInts(filter, 2)
	return in, filter, conv.Reference(s, in, filter)
}

// ladderNeeds solves the runtime's own plans for the byte needs of
// each rung, so the tests can place the budget ceiling between rungs
// without hard-coding scratch sizes.
func ladderNeeds(t *testing.T, rt *Runtime, s conv.Shape) (outB, fullNeed, degNeed int64) {
	t.Helper()
	full, err := rt.plans.Get(s, rt.opts)
	if err != nil {
		t.Fatal(err)
	}
	deg, err := rt.plans.Get(s, rt.degradedOpts())
	if err != nil {
		t.Fatal(err)
	}
	outB = full.OutputBytes()
	return outB, outB + full.ScratchBytes(), outB + deg.ScratchBytes()
}

func TestRuntimeDefaultsFullRunBitExact(t *testing.T) {
	rt := New(Config{})
	in, filter, want := testOperands(testShape)
	got, err := rt.TryConv2D(testShape, in, filter)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(want, got); d != 0 {
		t.Fatalf("serve output differs from reference by %g, want bit-identical", d)
	}
	st := rt.Stats()
	if st.FullRuns != 1 || st.DegradedRuns != 0 || st.ReferenceRuns != 0 {
		t.Fatalf("modes = full %d / degraded %d / reference %d, want 1/0/0", st.FullRuns, st.DegradedRuns, st.ReferenceRuns)
	}
	if st.MemInUse != 0 {
		t.Fatalf("MemInUse = %d after the request, want back to 0", st.MemInUse)
	}
	if st.MemPeak == 0 {
		t.Fatal("MemPeak = 0: the request was never charged")
	}
	if st.Gate.Admitted != 1 {
		t.Fatalf("Gate.Admitted = %d, want 1", st.Gate.Admitted)
	}
}

// TestDegradationLadder walks the budget ceiling down through every
// rung: full plan, smaller-tile single-worker plan, zero-scratch
// reference, and finally ErrOverloaded — each bit-identical to the
// oracle while it still runs at all.
func TestDegradationLadder(t *testing.T) {
	s := testShape
	in, filter, want := testOperands(s)

	// Solve rung needs once on an unlimited runtime with the same opts.
	probe := New(Config{Options: core.Options{Threads: 4}})
	outB, fullNeed, degNeed := ladderNeeds(t, probe, s)
	if fullNeed <= degNeed {
		t.Fatalf("test geometry cannot separate rungs: full needs %d <= degraded %d", fullNeed, degNeed)
	}
	if degNeed <= outB {
		t.Fatalf("degraded plan reports no scratch (%d <= %d); ladder untestable", degNeed, outB)
	}

	cases := []struct {
		name  string
		limit int64
		mode  string
	}{
		{"full", fullNeed, "full"},
		{"degraded", fullNeed - 1, "degraded"},
		{"reference", outB, "reference"},
		{"rejected", outB - 4, "rejected"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := New(Config{MemLimitBytes: tc.limit, Options: core.Options{Threads: 4}})
			got, err := rt.TryConv2D(s, in, filter)
			st := rt.Stats()
			if tc.mode == "rejected" {
				if !errors.Is(err, core.ErrOverloaded) {
					t.Fatalf("err = %v, want ErrOverloaded", err)
				}
				if st.MemRejected != 1 {
					t.Fatalf("MemRejected = %d, want 1", st.MemRejected)
				}
				if st.MemInUse != 0 {
					t.Fatalf("MemInUse = %d after rejection, want 0", st.MemInUse)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if d := tensor.MaxAbsDiff(want, got); d != 0 {
				t.Fatalf("%s rung differs from reference by %g, want bit-identical", tc.mode, d)
			}
			runs := map[string]uint64{"full": st.FullRuns, "degraded": st.DegradedRuns, "reference": st.ReferenceRuns}
			for mode, n := range runs {
				want := uint64(0)
				if mode == tc.mode {
					want = 1
				}
				if n != want {
					t.Fatalf("%s runs = %d, want %d (stats %+v)", mode, n, want, st)
				}
			}
			if st.MemInUse != 0 {
				t.Fatalf("MemInUse = %d after success, want back to 0", st.MemInUse)
			}
			if st.MemPeak > tc.limit {
				t.Fatalf("MemPeak %d overshot the ceiling %d", st.MemPeak, tc.limit)
			}
		})
	}
}

func TestRecycleFeedsPool(t *testing.T) {
	rt := New(Config{})
	in, filter, want := testOperands(testShape)

	first, err := rt.TryConv2D(testShape, in, filter)
	if err != nil {
		t.Fatal(err)
	}
	rt.Recycle(first)
	if st := rt.Stats(); st.PoolIdleBytes == 0 {
		t.Fatal("recycled buffer did not reach the pool")
	}

	second, err := rt.TryConv2D(testShape, in, filter)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(want, second); d != 0 {
		t.Fatalf("pooled-buffer run differs by %g, want bit-identical", d)
	}
	st := rt.Stats()
	if st.PoolHits != 1 || st.FreshAllocs != 1 {
		t.Fatalf("PoolHits = %d FreshAllocs = %d, want 1 and 1", st.PoolHits, st.FreshAllocs)
	}
	if st.PoolIdleBytes != 0 {
		t.Fatalf("PoolIdleBytes = %d with the only buffer checked out, want 0", st.PoolIdleBytes)
	}
}

// TestPackedServing: Pack charges the budget for the filter's
// lifetime, packed execution rides the same ladder (the reference rung
// recomputing from the KCRS source), and ReleasePacked returns the
// charge.
func TestPackedServing(t *testing.T) {
	s := testShape
	in, filter, want := testOperands(s)

	rt := New(Config{})
	pf, err := rt.Pack(s, filter)
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Budget().InUse(); got != pf.Bytes() {
		t.Fatalf("InUse = %d after Pack, want the packed charge %d", got, pf.Bytes())
	}
	got, err := rt.TryConv2DPackedCtx(context.Background(), s, in, pf)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(want, got); d != 0 {
		t.Fatalf("packed serve differs by %g, want bit-identical", d)
	}
	rt.ReleasePacked(pf)
	if got := rt.Budget().InUse(); got != 0 {
		t.Fatalf("InUse = %d after ReleasePacked, want 0", got)
	}

	// Tight budget: the packed charge plus exactly the output forces
	// the reference rung, which must recompute from pf's source.
	probe := New(Config{})
	outB, _, _ := ladderNeeds(t, probe, s)
	rt2 := New(Config{MemLimitBytes: 1 + outB + pf.Bytes()})
	pf2, err := rt2.Pack(s, filter)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := rt2.TryConv2DPackedCtx(context.Background(), s, in, pf2)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(want, got2); d != 0 {
		t.Fatalf("packed reference rung differs by %g, want bit-identical", d)
	}
	if st := rt2.Stats(); st.ReferenceRuns != 1 {
		t.Fatalf("ReferenceRuns = %d under tight budget, want 1 (stats %+v)", st.ReferenceRuns, st)
	}

	// A Pack the budget cannot hold is an overload, not a crash.
	rt3 := New(Config{MemLimitBytes: pf.Bytes() - 1})
	if _, err := rt3.Pack(s, filter); !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("Pack over budget = %v, want ErrOverloaded", err)
	}
}

func TestForwardGatedAndOverload(t *testing.T) {
	s := testShape
	w := s.NewFilter()
	fillInts(w, 3)
	net := &nn.Network{Name: "tiny", Layers: []nn.Layer{
		&nn.ConvUnit{LayerName: "conv1", Shape: s, Weights: w, ReLU: true},
	}}
	x := s.NewInput()
	fillInts(x, 4)

	rt := New(Config{MaxInFlight: 1, MaxQueue: -1})
	out, err := rt.Forward(context.Background(), net, x)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dim(1) != s.K {
		t.Fatalf("forward output K = %d, want %d", out.Dim(1), s.K)
	}

	// Hold the only slot: with no queue, Forward must overload fast.
	rel, err := rt.Gate().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Forward(context.Background(), net, x); !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("Forward with gate held = %v, want ErrOverloaded", err)
	}
	rel()
}

// TestBadOperandsChargeNothing: validation failures must consume no
// budget, no pool entries, and no ladder counters.
func TestBadOperandsChargeNothing(t *testing.T) {
	rt := New(Config{})
	in := tensor.New(1, 1, 2, 2) // wrong C/H/W for testShape
	filter := testShape.NewFilter()
	if _, err := rt.TryConv2D(testShape, in, filter); !errors.Is(err, conv.ErrDimMismatch) {
		t.Fatalf("err = %v, want ErrDimMismatch", err)
	}
	st := rt.Stats()
	if st.MemInUse != 0 || st.MemPeak != 0 || st.FreshAllocs != 0 || st.PoolHits != 0 {
		t.Fatalf("validation failure left footprints: %+v", st)
	}
}

// Recycle must refuse hazards instead of corrupting the pool: a tensor
// recycled twice is parked once, and a view into a larger tensor (len
// != cap, or aliasing a parked buffer) never enters the free list.
func TestRecycleRefusesDoubleRecycleAndViews(t *testing.T) {
	rt := New(Config{})
	in, filter, _ := testOperands(testShape)
	out, err := rt.TryConv2D(testShape, in, filter)
	if err != nil {
		t.Fatal(err)
	}
	rt.Recycle(out)
	rt.Recycle(out) // double recycle: refused, not double-parked
	if got := rt.Stats().RecycleRefused; got != 1 {
		t.Fatalf("RecycleRefused = %d, want 1 after double recycle", got)
	}
	// The buffer must come back out exactly once.
	n := len(out.Data)
	if buf := rt.pool.get(n); buf == nil {
		t.Fatal("recycled buffer not pooled")
	}
	if buf := rt.pool.get(n); buf != nil {
		t.Fatal("double recycle parked the same buffer twice")
	}

	// Views (len != cap) must be refused outright.
	big := tensor.New(2, 4)
	view := tensor.FromSlice(big.Data[:4], 1, 4)
	rt.Recycle(view)
	if got := rt.Stats().RecycleRefused; got != 2 {
		t.Fatalf("RecycleRefused = %d, want 2 after view recycle", got)
	}
	if buf := rt.pool.get(4); buf != nil {
		t.Fatal("view entered the pool")
	}
}
