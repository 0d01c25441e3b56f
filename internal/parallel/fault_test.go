package parallel

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ndirect/internal/faultinject"
)

func TestProtectPassesThrough(t *testing.T) {
	ran := false
	if err := Protect(func() { ran = true }); err != nil || !ran {
		t.Fatalf("err = %v, ran = %v", err, ran)
	}
}

func TestProtectConvertsPanic(t *testing.T) {
	err := Protect(func() { panic("boom") })
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("err = %v, want ErrWorkerPanic", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err %T is not *PanicError", err)
	}
	if pe.Value != "boom" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(pe.Error(), "boom") {
		t.Fatal("PanicError must carry the stack and the panic value")
	}
}

func TestFaultSinkKeepsFirstError(t *testing.T) {
	var fs FaultSink
	if fs.Stopped() || fs.Err() != nil {
		t.Fatal("zero FaultSink must be clean")
	}
	fs.Record(nil)
	if fs.Stopped() {
		t.Fatal("nil record must not stop")
	}
	first := errors.New("first")
	fs.Record(first)
	fs.Record(errors.New("second"))
	if !fs.Stopped() || fs.Err() != first {
		t.Fatalf("Err() = %v, want the first error", fs.Err())
	}
}

func TestForWorkerPanicBecomesError(t *testing.T) {
	err := For(100, 4, func(i int) {
		if i == 42 {
			panic("worker 42 died")
		}
	})
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("err = %v, want ErrWorkerPanic", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "worker 42 died" {
		t.Fatalf("err = %v", err)
	}
}

func TestForNilErrorWhenHealthy(t *testing.T) {
	var sum int64
	if err := For(100, 4, func(i int) { atomic.AddInt64(&sum, int64(i)) }); err != nil {
		t.Fatal(err)
	}
	if sum != 99*100/2 {
		t.Fatalf("sum = %d", sum)
	}
}

// A panic in one chunk cancels the surviving chunks between body
// invocations: the caller-goroutine chunk runs exactly one item after
// the panicking goroutine has released it, then observes the stop flag.
func TestForCancelsSurvivorsAfterPanic(t *testing.T) {
	const n, p = 100, 2 // chunk 0 = [0,50) on the caller, chunk 1 = [50,100) on a goroutine
	ready := make(chan struct{})
	var visited0 int64
	err := For(n, p, func(i int) {
		if i >= 50 {
			// Goroutine chunk: release the caller, then die on the
			// first item.
			close(ready)
			panic("early death")
		}
		if i == 0 {
			// Caller chunk: wait until the sibling is about to panic,
			// then give the recovery ample time to record the fault.
			<-ready
			time.Sleep(50 * time.Millisecond)
		}
		atomic.AddInt64(&visited0, 1)
	})
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("err = %v", err)
	}
	if v := atomic.LoadInt64(&visited0); v >= 50 {
		t.Fatalf("surviving chunk ran all %d items; cancellation never engaged", v)
	}
}

func TestForRangeWorkerPanicBecomesError(t *testing.T) {
	err := ForRange(64, 4, func(w int, r Range) {
		if w == 2 {
			panic("range worker died")
		}
	})
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("err = %v", err)
	}
}

func TestMustForRethrows(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustFor must re-raise the worker fault")
		}
	}()
	MustFor(10, 2, func(i int) {
		if i == 3 {
			panic("boom")
		}
	})
}

// The runtime's own fault-injection hook: arming worker-panic makes a
// chosen worker die without any cooperation from the body.
func TestForFaultInjection(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Arm(faultinject.WorkerPanic, 1)
	err := For(100, 4, func(i int) {})
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("err = %v, want injected worker panic", err)
	}
	// The shot is consumed: the next run is healthy.
	if err := For(100, 4, func(i int) {}); err != nil {
		t.Fatalf("second run must be clean, got %v", err)
	}
}
