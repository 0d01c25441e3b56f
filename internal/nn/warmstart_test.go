package nn

import (
	"strings"
	"testing"

	"ndirect/internal/autotune"
	"ndirect/internal/conv"
	"ndirect/internal/core"
	"ndirect/internal/tensor"
)

// warmNet is a two-conv network over shapes small enough to plan
// instantly; the second unit has no epilogue so WarmPlans covers both
// the memoized and the non-memoized plan routes.
func warmNet() (*Network, []conv.Shape) {
	s1 := conv.Shape{N: 1, C: 4, H: 10, W: 10, K: 6, R: 3, S: 3, Str: 1, Pad: 1}
	s2 := conv.Shape{N: 1, C: 6, H: 10, W: 10, K: 8, R: 1, S: 1, Str: 1, Pad: 0}
	w1 := s1.NewFilter()
	fillInts(w1, 31)
	w2 := s2.NewFilter()
	fillInts(w2, 32)
	net := &Network{Name: "warmnet", Layers: []Layer{
		&ConvUnit{LayerName: "c1", Shape: s1, Weights: w1, ReLU: true},
		&ConvUnit{LayerName: "c2", Shape: s2, Weights: w2},
	}}
	return net, []conv.Shape{s1, s2}
}

// TestLoadManifestValidatesEntries: valid entries land in the
// schedule table under the Tune key; invalid ones are rejected (and
// only logged), never stored.
func TestLoadManifestValidatesEntries(t *testing.T) {
	s := conv.Shape{N: 1, C: 4, H: 10, W: 10, K: 6, R: 3, S: 3, Str: 1, Pad: 1}
	good := autotune.Schedule{TileK: 4, TileC: 4, TileH: 2, TileW: 8, VecW: 4}
	m := autotune.NewManifest()
	m.Set(s, good, 0.001, 8)
	m.Entries = append(m.Entries, autotune.ManifestEntry{
		Shape:    conv.Shape{N: 1, C: 4, H: 10, W: 10, K: 6, R: 3, S: 3, Str: 1, Pad: 2},
		Schedule: autotune.Schedule{TileK: 999, VecW: 7}, // inadmissible
	})
	eng := &Engine{Algo: AlgoNDirect, Threads: 1}
	loaded, rejected := eng.LoadManifest(m)
	if loaded != 1 || rejected != 1 {
		t.Fatalf("LoadManifest = (%d, %d), want (1, 1)", loaded, rejected)
	}
	if got, ok := eng.Schedules[shapeKey(s)]; !ok || got != good {
		t.Fatalf("schedule table entry = %v ok=%v, want %v", got, ok, good)
	}
	if eng.schedule(s) != autotune.ClampFor(good, s) {
		t.Fatal("eng.schedule does not serve the loaded entry")
	}
	if l2, r2 := eng.LoadManifest(nil); l2 != 0 || r2 != 0 {
		t.Fatal("nil manifest should load nothing")
	}
}

// TestWarmPlansZeroMissServing: after WarmPlans, serving a covered
// network performs zero plan-cache misses — the warm-start contract.
// Outputs stay bit-identical to a cold engine's.
func TestWarmPlansZeroMissServing(t *testing.T) {
	net, shapes := warmNet()
	cache := core.NewPlanCache(0)
	eng := &Engine{Algo: AlgoNDirect, Threads: 2, Reuse: true, Plans: cache}

	m := autotune.NewManifest()
	for _, s := range shapes {
		m.Set(s, autotune.DefaultSchedule(s), 0.001, 4)
	}
	warmed, err := net.WarmPlans(eng, m.Covers)
	if err != nil {
		t.Fatal(err)
	}
	if warmed != 2 {
		t.Fatalf("warmed %d units, want 2", warmed)
	}

	x := shapes[0].NewInput()
	fillInts(x, 99)
	pre := cache.Stats()
	var got *tensor.Tensor
	for i := 0; i < 5; i++ {
		out, err := net.TryForward(eng, x)
		if err != nil {
			t.Fatal(err)
		}
		got = out
	}
	post := cache.Stats()
	if post.Misses != pre.Misses {
		t.Fatalf("warmed network still constructed plans: misses %d -> %d", pre.Misses, post.Misses)
	}

	cold := &Engine{Algo: AlgoNDirect, Threads: 2}
	want, err := net.TryForward(cold, x)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(want, got); d != 0 {
		t.Fatalf("warmed output differs from cold by %g, want bit-identical", d)
	}
}

// TestWarmPlansCoverageFilter: only covered shapes are warmed, and an
// engine without a plan cache is a usage error.
func TestWarmPlansCoverageFilter(t *testing.T) {
	net, shapes := warmNet()
	eng := &Engine{Algo: AlgoNDirect, Threads: 1, Reuse: true}
	only := shapes[0]
	warmed, err := net.WarmPlans(eng, func(s conv.Shape) bool { return s == only })
	if err != nil {
		t.Fatal(err)
	}
	if warmed != 1 {
		t.Fatalf("warmed %d units, want 1", warmed)
	}
	bare := &Engine{Algo: AlgoNDirect, Threads: 1}
	if _, err := net.WarmPlans(bare, nil); err == nil || !strings.Contains(err.Error(), "plan cache") {
		t.Fatalf("WarmPlans without a cache: err = %v", err)
	}
}
