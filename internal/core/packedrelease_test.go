package core

import (
	"context"
	"errors"
	"testing"

	"ndirect/internal/conv"
	"ndirect/internal/tensor"
)

// TestPackedFilterReleaseTyped: executing a released packed filter must
// fail typed with ErrWeightsReleased (every packed entry point), and
// Release must report the flip exactly once so residency accounting
// stays symmetric under racing release paths.
func TestPackedFilterReleaseTyped(t *testing.T) {
	s := conv.Shape{N: 1, C: 3, H: 8, W: 8, K: 5, R: 3, S: 3, Str: 1, Pad: 1}
	in, filter := s.NewInput(), s.NewFilter()
	in.FillRandom(1)
	filter.FillRandom(2)
	plan, err := TryNewPlan(s, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := plan.TransformFilter(filter)
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.New(s.N, s.K, s.P(), s.Q())
	if err := plan.TryExecutePacked(in, pf, out); err != nil {
		t.Fatalf("pre-release execute: %v", err)
	}

	if !pf.Release() {
		t.Fatal("first Release must report the flip")
	}
	if pf.Release() {
		t.Fatal("second Release must be a no-op")
	}
	if !pf.Released() {
		t.Fatal("Released must report true after Release")
	}
	if err := plan.TryExecutePacked(in, pf, out); !errors.Is(err, ErrWeightsReleased) {
		t.Fatalf("TryExecutePacked on released filter: want ErrWeightsReleased, got %v", err)
	}
	nhwcIn := tensor.NCHWToNHWC(in)
	nhwcOut := tensor.New(s.N, s.P(), s.Q(), s.K)
	if err := plan.exec(context.Background(), execReq{in: nhwcIn, pf: pf, packed: true, out: nhwcOut, nhwc: true}); !errors.Is(err, ErrWeightsReleased) {
		t.Fatalf("TryExecutePackedNHWC on released filter: want ErrWeightsReleased, got %v", err)
	}

	// Re-packing from the same KCRS source reproduces the packed bytes
	// bit-identically, so eviction + re-pack round-trips exactly.
	pf2, err := plan.TransformFilter(filter)
	if err != nil {
		t.Fatal(err)
	}
	if pf2.Bytes() != pf.Bytes() {
		t.Fatalf("re-pack length changed: %d vs %d", pf2.Bytes(), pf.Bytes())
	}
	for i := range pf2.data {
		if pf2.data[i] != pf.data[i] {
			t.Fatalf("re-pack differs from original at element %d", i)
		}
	}
	out2 := tensor.New(s.N, s.K, s.P(), s.Q())
	if err := plan.TryExecutePacked(in, pf2, out2); err != nil {
		t.Fatalf("post-re-pack execute: %v", err)
	}
	if d := tensor.MaxAbsDiff(out, out2); d != 0 {
		t.Fatalf("re-packed execution differs by %g (want bit-identical)", d)
	}
}
