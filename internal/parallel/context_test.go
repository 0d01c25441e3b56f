package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"ndirect/internal/faultinject"
)

// waitLeakedWorkersZero polls LeakedWorkers until it drains or the
// deadline passes — abandoned goroutines terminate asynchronously
// after faultinject.Reset releases them.
func waitLeakedWorkersZero(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if LeakedWorkers() == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("LeakedWorkers stuck at %d", LeakedWorkers())
}

// A context with no Done channel must take the plain path and run the
// full loop.
func TestForCtxBackgroundRunsEverything(t *testing.T) {
	var count atomic.Int64
	if err := ForCtx(context.Background(), 100, 4, func(i int) { count.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 100 {
		t.Fatalf("ran %d iterations, want 100", count.Load())
	}
}

// An already-expired context must fail fast without spawning workers.
func TestForCtxAlreadyExpired(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Bool
	err := ForCtx(ctx, 10, 2, func(i int) { ran.Store(true) })
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, must wrap the context cause", err)
	}
	if ran.Load() {
		t.Fatal("no body may run on an expired context")
	}
}

// A stalled worker must not wedge the join: the deadline abandons it,
// the error classifies as DeadlineExceeded, and the leaked goroutine
// is accounted until Reset releases it.
func TestForCtxAbandonsStalledWorker(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(faultinject.WorkerStall, 0)

	const budget = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := time.Now()
	err := ForCtx(ctx, 64, 4, func(i int) {})
	elapsed := time.Since(start)

	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
	if elapsed > 2*budget {
		t.Fatalf("join returned after %v, want ≲2×%v", elapsed, budget)
	}
	if LeakedWorkers() == 0 {
		t.Fatal("the wedged worker must be accounted as leaked")
	}
	faultinject.Reset()
	waitLeakedWorkersZero(t)
}

func TestForRangeCtxAbandonsStalledWorker(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(faultinject.WorkerStall, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := ForRangeCtx(ctx, 64, 4, func(w int, r Range) {})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
	faultinject.Reset()
	waitLeakedWorkersZero(t)
}

// Without faults or deadline pressure the *Ctx drivers behave exactly
// like the bare ones.
func TestCtxDriversCompleteUnderGenerousDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var count atomic.Int64
	if err := ForCtx(ctx, 128, 4, func(i int) { count.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 128 {
		t.Fatalf("ForCtx ran %d iterations, want 128", count.Load())
	}
	covered := make([]atomic.Bool, 64)
	if err := ForRangeCtx(ctx, 64, 4, func(w int, r Range) {
		for i := r.Lo; i < r.Hi; i++ {
			covered[i].Store(true)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i := range covered {
		if !covered[i].Load() {
			t.Fatalf("index %d not covered", i)
		}
	}
}

// A worker panic under a *Ctx driver still surfaces as the fault
// runtime's error, not as a cancellation.
func TestForCtxWorkerPanicStillClassifies(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(faultinject.WorkerPanic, 0)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := ForCtx(ctx, 16, 4, func(i int) {})
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("err = %v, want ErrWorkerPanic", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatal("a fault is not a cancellation")
	}
}

// WaitCtx's hooks fire on the right sides of an abandonment: onAbandon
// synchronously before the error returns, drain only after the
// stragglers terminate.
func TestWaitCtxDrainAfterAbandonment(t *testing.T) {
	release := make(chan struct{})
	var g Group
	g.Go(func() { <-release })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	var abandoned, drained atomic.Bool
	err := g.WaitCtx(ctx,
		func(err error) { abandoned.Store(errors.Is(err, ErrCanceled)) },
		func() { drained.Store(true) })
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !abandoned.Load() {
		t.Fatal("onAbandon must run synchronously with the cancellation error")
	}
	if drained.Load() {
		t.Fatal("drain must not run while a worker is still pending")
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for !drained.Load() {
		if time.Now().After(deadline) {
			t.Fatal("drain never ran after the straggler terminated")
		}
		time.Sleep(time.Millisecond)
	}
	waitLeakedWorkersZero(t)
}
