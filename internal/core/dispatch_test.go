package core

import (
	"fmt"
	"sync"
	"testing"

	"ndirect/internal/conv"
	"ndirect/internal/tensor"
)

// dispatchCases pairs every standard kernel family with an arbitrary
// shape of its (R, S, stride) — in no model table, batch > 1, ragged
// everywhere (partial register tiles, ragged K blocks, partial channel
// tiles) — so the family bodies are exercised on their hardest
// geometry and the binding is shown to depend on the loop constants
// alone.
var dispatchCases = []struct {
	family string
	shape  conv.Shape
}{
	{"12x8.r3s3.s1", conv.Shape{N: 2, C: 5, H: 10, W: 10, K: 13, R: 3, S: 3, Str: 1, Pad: 1}},
	{"12x8.r3s3.s2", conv.Shape{N: 3, C: 4, H: 11, W: 11, K: 9, R: 3, S: 3, Str: 2, Pad: 1}},
	{"12x8.r1s1.s1", conv.Shape{N: 2, C: 6, H: 9, W: 9, K: 10, R: 1, S: 1, Str: 1, Pad: 0}},
	{"12x8.r1s1.s2", conv.Shape{N: 2, C: 6, H: 10, W: 10, K: 10, R: 1, S: 1, Str: 2, Pad: 0}},
	{"12x8.r7s7.s2", conv.Shape{N: 2, C: 3, H: 29, W: 29, K: 11, R: 7, S: 7, Str: 2, Pad: 3}},
}

// TestDispatchBitExactVsGeneric: a plan binds its family from (R, S,
// stride) with no registration, and the family body and the quarantined
// looped fallback store the same bits on the same operands — selection
// is a pure execution-strategy change.
// Exercised on both packing strategies: SequentialPack runs every
// k-block over the whole packed buffer, the overlapped default runs the
// first one through the pack-fused path (which skips out-of-image rows).
func TestDispatchBitExactVsGeneric(t *testing.T) {
	for _, tc := range dispatchCases {
		for _, seq := range []bool{false, true} {
			s := tc.shape
			plan, err := TryNewPlan(s, Options{Threads: 2, SequentialPack: seq})
			if err != nil {
				t.Fatal(err)
			}
			if got := plan.KernelName(); got != tc.family {
				t.Fatalf("shape %v: KernelName = %q, want %q", s, got, tc.family)
			}
			in := s.NewInput()
			in.FillRandom(int64(s.C + 7*s.K))
			f := s.NewFilter()
			f.FillRandom(int64(s.R + 13*s.S))
			got := s.NewOutput()
			if err := plan.TryExecute(in, f, got); err != nil {
				t.Fatal(err)
			}
			// The same plan, family quarantined, runs the looped fallback.
			func() {
				QuarantineKernelFamily(tc.family)
				defer RestoreKernelFamily(tc.family)
				if name := plan.KernelName(); name != "12x8" {
					t.Fatalf("shape %v: quarantined KernelName = %q, want 12x8", s, name)
				}
				fb := s.NewOutput()
				if err := plan.TryExecute(in, f, fb); err != nil {
					t.Fatal(err)
				}
				if d := tensor.MaxAbsDiff(fb, got); d != 0 {
					t.Fatalf("shape %v seq=%v: quarantined fallback differs from the family body by %g, want bit-identical",
						s, seq, d)
				}
			}()
			// And correct against the float64 reference.
			ref := conv.Reference(s, in, f)
			if d := tensor.RelDiff(ref, got); d > tol {
				t.Fatalf("shape %v: rel diff vs reference %g > %g", s, d, tol)
			}
		}
	}
}

// TestDispatchOffByOneFallsBack: the binding key is (R, S, stride), so
// a shape one off in any other dimension keeps its family, while one
// off in a loop constant has no body written for it and falls back to
// the shape-agnostic kernels — and still computes correctly.
func TestDispatchOffByOneFallsBack(t *testing.T) {
	for _, tc := range dispatchCases {
		for _, perturb := range []struct {
			keeps bool
			f     func(conv.Shape) conv.Shape
		}{
			{true, func(s conv.Shape) conv.Shape { s.H++; return s }},
			{true, func(s conv.Shape) conv.Shape { s.W++; return s }},
			{true, func(s conv.Shape) conv.Shape { s.K++; return s }},
			{true, func(s conv.Shape) conv.Shape { s.C++; return s }},
			{false, func(s conv.Shape) conv.Shape { s.R++; s.Pad = 1; return s }},
			{false, func(s conv.Shape) conv.Shape { s.Str = 3; return s }},
		} {
			s := perturb.f(tc.shape)
			if s.Validate() != nil {
				continue
			}
			plan, err := TryNewPlan(s, Options{Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			if got := plan.KernelName(); (got == tc.family) != perturb.keeps {
				t.Fatalf("shape %v (from %v): KernelName = %q, family kept must be %v",
					s, tc.shape, got, perturb.keeps)
			}
			checkAgainstReference(t, s, Options{Threads: 2})
		}
	}
}

// TestDispatchBatchIndependent: the binding ignores the batch (the
// micro-kernel is batch-independent).
func TestDispatchBatchIndependent(t *testing.T) {
	for _, n := range []int{1, 5} {
		s := dispatchCases[0].shape.WithBatch(n)
		plan, err := TryNewPlan(s, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.KernelName(); got != dispatchCases[0].family {
			t.Fatalf("batch-%d KernelName = %q, want %q", n, got, dispatchCases[0].family)
		}
		checkAgainstReference(t, s, Options{Threads: 2})
	}
}

// TestDispatchPrecedence: the quarantine flag outranks the family on a
// plan that already exists and on one built under it — with restore
// handing both plans their body back.
func TestDispatchPrecedence(t *testing.T) {
	s := dispatchCases[0].shape
	family := dispatchCases[0].family
	plan, err := TryNewPlan(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.KernelName(); got != family {
		t.Fatalf("KernelName = %q, want %q", got, family)
	}
	QuarantineKernelFamily(family)
	defer RestoreKernelFamily(family)
	if got := plan.KernelName(); got != "12x8" {
		t.Fatalf("quarantined KernelName = %q, want 12x8", got)
	}
	during, err := TryNewPlan(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := during.KernelName(); got != "12x8" {
		t.Fatalf("plan built under quarantine: KernelName = %q, want 12x8", got)
	}
	RestoreKernelFamily(family)
	if got := plan.KernelName(); got != family {
		t.Fatalf("restored KernelName = %q, want %q", got, family)
	}
	if got := during.KernelName(); got != family {
		t.Fatalf("plan built under quarantine, after restore: KernelName = %q, want %q", got, family)
	}
}

// TestDispatchRejectsUncoveredShapes: a geometry with no family (2×2,
// 5×5) runs the looped kernel and counts as a dispatch miss; the 7×7
// stride-2 stem, whose model tile is 20×4, runs its family and counts as
// a hit; an invalid shape never plans.
func TestDispatchRejectsUncoveredShapes(t *testing.T) {
	pre := KernelDispatchStats()
	for _, tc := range []struct {
		shape conv.Shape
		want  string
	}{
		{conv.Shape{N: 1, C: 4, H: 12, W: 12, K: 8, R: 2, S: 2, Str: 1, Pad: 0}, "12x8"},
		{conv.Shape{N: 1, C: 4, H: 12, W: 12, K: 8, R: 5, S: 5, Str: 1, Pad: 2}, "12x8"},
		{conv.Shape{N: 1, C: 3, H: 32, W: 32, K: 16, R: 7, S: 7, Str: 2, Pad: 3}, "12x8.r7s7.s2"},
	} {
		plan, err := TryNewPlan(tc.shape, Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.KernelName(); got != tc.want {
			t.Fatalf("shape %v: KernelName = %q, want %q", tc.shape, got, tc.want)
		}
	}
	if _, err := TryNewPlan(conv.Shape{N: 1, C: 0, H: 8, W: 8, K: 8, R: 3, S: 3, Str: 1, Pad: 1}, Options{}); err == nil {
		t.Fatal("invalid shape planned")
	}
	post := KernelDispatchStats()
	if post.Misses-pre.Misses != 2 || post.Hits-pre.Hits != 1 {
		t.Fatalf("dispatch counters moved by %d hits / %d misses, want 1 / 2",
			post.Hits-pre.Hits, post.Misses-pre.Misses)
	}
}

// TestDispatchModelTableCoverage: every Table 4 row with a matching
// family plans onto it — each one a dispatch hit, none a miss.
func TestDispatchModelTableCoverage(t *testing.T) {
	pre := KernelDispatchStats()
	covered := 0
	for _, l := range conv.Table4 {
		want := ""
		switch {
		case l.Shape.R == 3 && l.Shape.S == 3 && l.Shape.Str == 1:
			want = "12x8.r3s3.s1"
		case l.Shape.R == 3 && l.Shape.S == 3 && l.Shape.Str == 2:
			want = "12x8.r3s3.s2"
		case l.Shape.R == 1 && l.Shape.S == 1 && l.Shape.Str == 1:
			want = "12x8.r1s1.s1"
		case l.Shape.R == 1 && l.Shape.S == 1 && l.Shape.Str == 2:
			want = "12x8.r1s1.s2"
		case l.Shape.R == 7 && l.Shape.S == 7 && l.Shape.Str == 2:
			want = "12x8.r7s7.s2"
		default:
			continue
		}
		plan, err := TryNewPlan(l.Shape.WithBatch(1), Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.KernelName(); got != want {
			t.Fatalf("Table 4 layer %d (%v): KernelName = %q, want %q", l.ID, l.Shape, got, want)
		}
		covered++
	}
	if covered == 0 {
		t.Fatal("no Table 4 layer matched a kernel family")
	}
	post := KernelDispatchStats()
	if hits, misses := post.Hits-pre.Hits, post.Misses-pre.Misses; hits != uint64(covered) || misses != 0 {
		t.Fatalf("dispatch counters moved by %d hits / %d misses over %d covered rows", hits, misses, covered)
	}
}

// TestDispatchConcurrentSharedPlan: one plan executed from many
// goroutines over the shared worker pool, each flipping the family's
// quarantine flag between its executions (the -race target for the
// per-execution body resolution); whichever body an execution resolves,
// every result must be bit-identical.
func TestDispatchConcurrentSharedPlan(t *testing.T) {
	s := dispatchCases[0].shape
	family := dispatchCases[0].family
	plan, err := TryNewPlan(s, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	in := s.NewInput()
	in.FillRandom(41)
	f := s.NewFilter()
	f.FillRandom(42)
	want := s.NewOutput()
	if err := plan.TryExecute(in, f, want); err != nil {
		t.Fatal(err)
	}
	defer RestoreKernelFamily(family)
	var wg sync.WaitGroup
	errCh := make(chan error, 4) // one slot per executor goroutine
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := s.NewOutput()
			for i := 0; i < 4; i++ {
				// Flip the flag under the other goroutines' executions.
				if (g+i)%2 == 0 {
					QuarantineKernelFamily(family)
				} else {
					RestoreKernelFamily(family)
				}
				if err := plan.TryExecute(in, f, out); err != nil {
					errCh <- err
					return
				}
				if d := tensor.MaxAbsDiff(want, out); d != 0 {
					errCh <- fmt.Errorf("concurrent execution diverged by %g", d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}
