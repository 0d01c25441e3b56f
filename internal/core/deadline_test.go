package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"ndirect/internal/conv"
	"ndirect/internal/faultinject"
	"ndirect/internal/parallel"
	"ndirect/internal/tensor"
)

// waitNoLeakedWorkers polls parallel.LeakedWorkers to zero so a
// deadline test cannot leave stragglers behind for its successors.
func waitNoLeakedWorkers(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if parallel.LeakedWorkers() == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("leaked workers never drained: %d", parallel.LeakedWorkers())
}

// An already-expired context must fail before any work is spawned,
// classifying as both ErrDeadline and the context cause.
func TestTryExecuteCtxAlreadyExpired(t *testing.T) {
	s := faultShape()
	in, filter := faultOperands(s)
	plan := NewPlan(s, Options{Threads: 2})
	out := s.NewOutput()

	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	err := plan.TryExecuteCtx(ctx, in, filter, out)
	if !errors.Is(err, conv.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, must wrap context.DeadlineExceeded", err)
	}
}

// The acceptance scenario: with worker-stall armed, a 100ms budget
// must surface an ErrDeadline/DeadlineExceeded error within ~2× the
// budget instead of blocking forever.
func TestTryExecuteCtxAbandonsStalledGrid(t *testing.T) {
	captureLog(t)
	defer faultinject.Reset()
	s := faultShape()
	in, filter := faultOperands(s)

	faultinject.Arm(faultinject.WorkerStall, 0)
	const budget = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()

	start := time.Now()
	_, err := TryConv2DCtx(ctx, s, in, filter, Options{Threads: 4})
	elapsed := time.Since(start)

	if !errors.Is(err, conv.ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadline wrapping DeadlineExceeded", err)
	}
	if elapsed > 2*budget {
		t.Fatalf("returned after %v, want ≲2×%v", elapsed, budget)
	}
	if parallel.LeakedWorkers() == 0 {
		t.Fatal("the stalled worker must be accounted as leaked")
	}
	faultinject.Reset()
	waitNoLeakedWorkers(t)
}

// A deadline-abandoned run's stragglers can drain after a newer run
// already completed; their partial stats must not overwrite the newer
// run's LastStats snapshot.
func TestStragglerStatsDoNotOverwriteNewerRun(t *testing.T) {
	captureLog(t)
	defer faultinject.Reset()
	s := faultShape()
	in, filter := faultOperands(s)
	plan := NewPlan(s, Options{Threads: 4, CollectStats: true})

	faultinject.Arm(faultinject.WorkerStall, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	out := s.NewOutput()
	if err := plan.TryExecuteCtx(ctx, in, filter, out); !errors.Is(err, conv.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	// A newer run completes while the abandoned run's straggler is
	// still stalled.
	out2 := s.NewOutput()
	if err := plan.TryExecute(in, filter, out2); err != nil {
		t.Fatal(err)
	}
	snap := plan.LastStats()
	// Release the straggler: its late drain must not replace the newer
	// snapshot with the abandoned run's partial stats.
	faultinject.Reset()
	waitNoLeakedWorkers(t)
	time.Sleep(100 * time.Millisecond) // let the detached drain fire
	if got := plan.LastStats(); got != snap {
		t.Fatalf("stale straggler stats overwrote the newer run: got %+v, want %+v", got, snap)
	}
}

// Deadline semantics reach the NHWC entry point too.
func TestTryExecuteNHWCCtxDeadline(t *testing.T) {
	captureLog(t)
	defer faultinject.Reset()
	s := faultShape()
	in, filter := faultOperands(s)

	faultinject.Arm(faultinject.WorkerStall, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := TryConv2DNHWCCtx(ctx, s, tensor.NCHWToNHWC(in), filter, Options{Threads: 4})
	if !errors.Is(err, conv.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	faultinject.Reset()
	waitNoLeakedWorkers(t)
}

// The sibling drivers share the deadline classification.
func TestSiblingDriversDeadline(t *testing.T) {
	captureLog(t)
	s := conv.Shape{N: 2, C: 8, H: 10, W: 10, K: 8, R: 3, S: 3, Str: 1, Pad: 1}

	t.Run("depthwise", func(t *testing.T) {
		defer faultinject.Reset()
		in := s.NewInput()
		in.FillRandom(1)
		filter := tensor.New(s.C, s.R, s.S)
		filter.FillRandom(2)
		faultinject.Arm(faultinject.WorkerStall, 0)
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		_, err := TryDepthwiseConv2DCtx(ctx, s, in, filter, Options{Threads: 4})
		if !errors.Is(err, conv.ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want ErrDeadline wrapping DeadlineExceeded", err)
		}
		faultinject.Reset()
		waitNoLeakedWorkers(t)
	})

	t.Run("grouped", func(t *testing.T) {
		defer faultinject.Reset()
		in := s.NewInput()
		in.FillRandom(3)
		filter := tensor.New(s.K, s.C/2, s.R, s.S)
		filter.FillRandom(4)
		faultinject.Arm(faultinject.WorkerStall, 0)
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		_, err := TryGroupedConv2DCtx(ctx, s, 2, in, filter, Options{Threads: 4})
		if !errors.Is(err, conv.ErrDeadline) {
			t.Fatalf("err = %v, want ErrDeadline", err)
		}
		faultinject.Reset()
		waitNoLeakedWorkers(t)
	})

	t.Run("fp64", func(t *testing.T) {
		defer faultinject.Reset()
		in := make([]float64, s.N*s.C*s.H*s.W)
		filter := make([]float64, s.K*s.C*s.R*s.S)
		faultinject.Arm(faultinject.WorkerStall, 0)
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		_, err := TryConv2D64Ctx(ctx, s, in, filter, Options{Threads: 4})
		if !errors.Is(err, conv.ErrDeadline) {
			t.Fatalf("err = %v, want ErrDeadline", err)
		}
		faultinject.Reset()
		waitNoLeakedWorkers(t)
	})

	t.Run("int16", func(t *testing.T) {
		defer faultinject.Reset()
		in := make([]int16, s.N*s.C*s.H*s.W)
		filter := make([]int16, s.K*s.C*s.R*s.S)
		faultinject.Arm(faultinject.WorkerStall, 0)
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		_, err := TryConv2DInt16Ctx(ctx, s, in, filter, Options{Threads: 4})
		if !errors.Is(err, conv.ErrDeadline) {
			t.Fatalf("err = %v, want ErrDeadline", err)
		}
		faultinject.Reset()
		waitNoLeakedWorkers(t)
	})
}

// Regression test for the Plan.Stats write-write race: two concurrent
// TryExecutes on one plan with CollectStats must be race-clean (the
// -race build of `make check` enforces this) and leave a consistent
// final snapshot.
func TestConcurrentExecuteStatsRace(t *testing.T) {
	s := faultShape()
	in, filter := faultOperands(s)
	plan := NewPlan(s, Options{Threads: 2, CollectStats: true})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := s.NewOutput()
			for r := 0; r < 4; r++ {
				if err := plan.TryExecute(in, filter, out); err != nil {
					t.Errorf("TryExecute: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := plan.LastStats(); st.KernelSec <= 0 {
		t.Fatalf("final stats snapshot empty: %+v", st)
	}
}

// The non-finite scan under fault injection must catch an injected NaN
// even when that is the only armed fault, repair it by the oracle
// replay, and guarantee an all-finite output on nil error.
func TestNaNPoisonRepairedOnReferencePath(t *testing.T) {
	logged := captureLog(t)
	defer faultinject.Reset()
	s := faultShape()
	in, filter := faultOperands(s)
	want := cleanConv2D(t, s, in, filter, Options{Threads: 2})

	faultinject.Arm(faultinject.NaNPoison, 5)
	got, err := TryConv2D(s, in, filter, Options{Threads: 2})
	if err != nil {
		t.Fatalf("repairable poison must not fail: %v", err)
	}
	if d := tensor.MaxAbsDiff(want, got); d != 0 {
		t.Fatalf("poison not repaired: differs from the fault-free run by %g", d)
	}
	if _, bad := scanNonFinite(got.Data); bad {
		t.Fatal("the scan returned a non-finite output with nil error")
	}
	if !strings.Contains(logged(), "recomputing on reference path") {
		t.Fatal("the repair must be logged")
	}
}

// Without fault injection no scan runs: a NaN input propagates to the
// output at no cost to the production path.
func TestUninjectedRunSkipsScan(t *testing.T) {
	s := faultShape()
	in, filter := faultOperands(s)
	in.Data[3] = float32(math.NaN())

	got, err := TryConv2D(s, in, filter, Options{Threads: 2})
	if err != nil {
		t.Fatalf("unchecked run must not fail: %v", err)
	}
	if _, bad := scanNonFinite(got.Data); !bad {
		t.Fatal("NaN input should propagate when no fault is injected")
	}
}

// The one-shot ctx entry points mirror their plan-level counterparts.
func TestTryConv2DCtxOneShotEntryPoints(t *testing.T) {
	s := faultShape()
	in, filter := faultOperands(s)
	want := conv.Reference(s, in, filter)

	got, err := TryConv2DCtx(context.Background(), s, in, filter, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.RelDiff(want, got); d > 5e-5 {
		t.Fatalf("rel diff %g", d)
	}
	nhwc, err := TryConv2DNHWCCtx(context.Background(), s, tensor.NCHWToNHWC(in), filter, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.RelDiff(tensor.NCHWToNHWC(want), nhwc); d > 5e-5 {
		t.Fatalf("NHWC rel diff %g", d)
	}
}

// TryConv3DCtx threads the deadline through the per-depth executions.
func TestTryConv3DCtxDeadline(t *testing.T) {
	captureLog(t)
	defer faultinject.Reset()
	s3 := Shape3D{
		Shape: conv.Shape{N: 1, C: 4, H: 8, W: 8, K: 4, R: 3, S: 3, Str: 1, Pad: 1},
		D:     4, T: 3, StrD: 1, PadD: 1,
	}
	in := tensor.New(s3.N, s3.C, s3.D, s3.H, s3.W)
	in.FillRandom(5)
	filter := tensor.New(s3.K, s3.C, s3.T, s3.R, s3.S)
	filter.FillRandom(6)

	faultinject.Arm(faultinject.WorkerStall, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := TryConv3DCtx(ctx, s3, in, filter, Options{Threads: 4})
	if err == nil {
		t.Fatal("a stalled depth must abort the 3-D convolution")
	}
	if !errors.Is(err, conv.ErrDeadline) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadline wrapping DeadlineExceeded", err)
	}
	faultinject.Reset()
	waitNoLeakedWorkers(t)
}
