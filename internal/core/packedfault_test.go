package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ndirect/internal/conv"
	"ndirect/internal/faultinject"
	"ndirect/internal/parallel"
	"ndirect/internal/tensor"
)

// TestPackedCorruptRecoversViaReference: the PackedCorrupt fault
// poisons one element of the pre-transformed weights on a run-private
// copy; the injection-mode non-finite scan must catch the NaN in the
// output and the oracle replay must reproduce the fault-free run's bits
// from the packed filter's KCRS source — while the shared PackedFilter
// itself stays clean for every later run.
func TestPackedCorruptRecoversViaReference(t *testing.T) {
	defer faultinject.Reset()
	s := conv.Shape{N: 1, C: 5, H: 9, W: 9, K: 13, R: 3, S: 3, Str: 1, Pad: 1}
	in := s.NewInput()
	in.FillRandom(11)
	f := s.NewFilter()
	f.FillRandom(12)

	plan, err := TryNewPlan(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := plan.TransformFilter(f)
	if err != nil {
		t.Fatal(err)
	}
	clean := append([]float32(nil), pf.data...)
	want := s.NewOutput()
	if err := plan.TryExecutePacked(in, pf, want); err != nil {
		t.Fatal(err)
	}

	// A middle element, a negative index and an out-of-range index
	// (both clamped to 0 — always a live lane) must all recover.
	for _, idx := range []int{len(pf.data) / 2, -7, len(pf.data) + 100} {
		faultinject.Arm(faultinject.PackedCorrupt, idx)
		out := s.NewOutput()
		if err := plan.TryExecutePacked(in, pf, out); err != nil {
			t.Fatalf("idx %d: TryExecutePacked = %v, want nil (reference recovery)", idx, err)
		}
		if d := tensor.MaxAbsDiff(want, out); d != 0 {
			t.Fatalf("idx %d: recovered output differs from the fault-free run by %g", idx, d)
		}
	}
	faultinject.Reset()

	for i, v := range pf.data {
		if v != clean[i] {
			t.Fatalf("shared packed filter corrupted at element %d: %g -> %g", i, clean[i], v)
		}
	}
	// With injection off, the packed path must again match the seed
	// path bit for bit.
	seed := Conv2D(s, in, f, Options{})
	out := s.NewOutput()
	if err := plan.TryExecutePacked(in, pf, out); err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(seed, out); d != 0 {
		t.Fatalf("post-fault packed run differs from seed by %g", d)
	}
}

// TestConcurrentPackedCancellationNoCorruption (run under -race by
// make check and CI): many goroutines share one PackedFilter and one
// cached plan while their deadlines expire mid-flight. Every
// completion must be either a bit-exact result or an error wrapping
// conv.ErrDeadline, abandoned grids must never corrupt a
// later successful run, and the leaked-worker account must drain to
// zero.
func TestConcurrentPackedCancellationNoCorruption(t *testing.T) {
	s := conv.Shape{N: 2, C: 16, H: 24, W: 24, K: 32, R: 3, S: 3, Str: 1, Pad: 1}
	in := s.NewInput()
	in.FillRandom(21)
	f := s.NewFilter()
	f.FillRandom(22)

	plan, err := TryNewPlan(s, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := plan.TransformFilter(f)
	if err != nil {
		t.Fatal(err)
	}
	want := s.NewOutput()
	if err := plan.TryExecutePacked(in, pf, want); err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const iters = 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Sweep the timeout from "expires before the grid
				// spawns" through "expires mid-flight" up to "usually
				// completes", so every abandonment window is exercised.
				timeout := time.Duration((g*iters+i)%6) * 150 * time.Microsecond
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				// Every run gets a fresh output: an abandoned grid may
				// keep writing its buffer after the error returns.
				out := s.NewOutput()
				err := plan.TryExecutePackedCtx(ctx, in, pf, out)
				cancel()
				if err != nil {
					if !errors.Is(err, conv.ErrDeadline) {
						t.Errorf("goroutine %d iter %d: unexpected error class: %v", g, i, err)
					}
					continue
				}
				if d := tensor.MaxAbsDiff(want, out); d != 0 {
					t.Errorf("goroutine %d iter %d: successful run differs by %g, want bit-identical", g, i, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// A clean run after the storm proves the shared plan and packed
	// filter survived every mid-flight abandonment.
	out := s.NewOutput()
	if err := plan.TryExecutePacked(in, pf, out); err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(want, out); d != 0 {
		t.Fatalf("post-storm run differs by %g", d)
	}

	deadline := time.Now().Add(10 * time.Second)
	for parallel.LeakedWorkers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("LeakedWorkers stuck at %d", parallel.LeakedWorkers())
		}
		time.Sleep(time.Millisecond)
	}
}
