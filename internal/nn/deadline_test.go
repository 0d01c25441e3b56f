package nn

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ndirect/internal/conv"
	"ndirect/internal/core"
	"ndirect/internal/faultinject"
	"ndirect/internal/parallel"
	"ndirect/internal/tensor"
)

func captureCoreLog(t *testing.T) func() string {
	t.Helper()
	old := core.Logf
	var mu sync.Mutex
	var logs []string
	core.Logf = func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, format)
		mu.Unlock()
		t.Logf("(captured) "+format, args...)
	}
	t.Cleanup(func() { core.Logf = old })
	return func() string {
		mu.Lock()
		defer mu.Unlock()
		return strings.Join(logs, "\n")
	}
}

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

// A stalled Ansor layer must be abandoned at ConvBudget and rerun on
// the nDirect backend, leaving the forward pass correct and bounded.
func TestAnsorStallFallsBackWithinBudget(t *testing.T) {
	logged := captureCoreLog(t)
	defer faultinject.Reset()

	b := builderForTest()
	net := &Network{Name: "tiny", Layers: []Layer{
		b.convUnit("c1", 3, 8, 16, 3, 1, 1, true, true),
		GlobalAvgPool{},
	}}
	x := tensor.New(1, 3, 16, 16)
	x.FillRandom(7)
	want := net.Forward(&Engine{Algo: AlgoNDirect, Threads: 2}, x)

	faultinject.Arm(faultinject.WorkerStall, 0)
	got := net.Forward(&Engine{Algo: AlgoAnsor, Threads: 2, ConvBudget: 50 * time.Millisecond}, x)
	if d := tensor.RelDiff(want, got); d > 1e-5 {
		t.Fatalf("degraded forward pass diverges: rel diff %g", d)
	}
	if !strings.Contains(logged(), "falling back to ndirect") {
		t.Fatal("the backend fallback must be logged")
	}
	faultinject.Reset()
	waitNoLeakedWorkers(t)
}

// The nDirect backend itself recovers from a stalled grid: the layer
// is abandoned at ConvBudget and recomputed (the one-shot fault is
// consumed by the first attempt).
func TestNDirectStallRecomputesWithinBudget(t *testing.T) {
	logged := captureCoreLog(t)
	defer faultinject.Reset()

	b := builderForTest()
	net := &Network{Name: "tiny", Layers: []Layer{
		b.convUnit("c1", 3, 8, 16, 3, 1, 1, true, true),
		GlobalAvgPool{},
	}}
	x := tensor.New(1, 3, 16, 16)
	x.FillRandom(7)
	want := net.Forward(&Engine{Algo: AlgoNDirect, Threads: 2}, x)

	faultinject.Arm(faultinject.WorkerStall, 0)
	got := net.Forward(&Engine{Algo: AlgoNDirect, Threads: 2, ConvBudget: 50 * time.Millisecond}, x)
	if d := tensor.RelDiff(want, got); d > 1e-6 {
		t.Fatalf("recomputed forward pass diverges: rel diff %g", d)
	}
	if !strings.Contains(logged(), "recomputing unbounded") {
		t.Fatal("the budget miss must be logged")
	}
	faultinject.Reset()
	waitNoLeakedWorkers(t)
}

// Without a ConvBudget the engine takes the exact pre-existing code
// paths (context with no deadline), so behavior is unchanged.
func TestZeroConvBudgetIsUnbounded(t *testing.T) {
	b := builderForTest()
	net := &Network{Name: "tiny", Layers: []Layer{
		b.convUnit("c1", 3, 8, 16, 3, 1, 1, true, true),
		GlobalAvgPool{},
	}}
	x := tensor.New(1, 3, 16, 16)
	x.FillRandom(7)
	want := net.Forward(&Engine{Algo: AlgoNDirect, Threads: 2}, x)
	got := net.Forward(&Engine{Algo: AlgoNDirect, Threads: 2, ConvBudget: 0}, x)
	if d := tensor.RelDiff(want, got); d != 0 {
		t.Fatalf("zero budget must be bit-identical: rel diff %g", d)
	}
}

// cancelLayer cancels the forward's context as it passes its input on.
type cancelLayer struct{ cancel context.CancelFunc }

func (c cancelLayer) Name() string { return "cancel" }
func (c cancelLayer) Forward(_ *Engine, x *tensor.Tensor) *tensor.Tensor {
	c.cancel()
	return x
}

// countLayer counts the forwards that reach it.
type countLayer struct{ n atomic.Int32 }

func (c *countLayer) Name() string { return "count" }
func (c *countLayer) Forward(_ *Engine, x *tensor.Tensor) *tensor.Tensor {
	c.n.Add(1)
	return x
}

// A context done between layers stops the forward before the next one:
// the layer after the cancel never runs, and the error is typed as a
// deadline carrying the context's cause.
func TestTryForwardCtxStopsBetweenLayers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	count := &countLayer{}
	b := builderForTest()
	net := &Network{Name: "cancelled", Layers: []Layer{
		b.convUnit("c1", 3, 8, 8, 3, 1, 1, true, true),
		cancelLayer{cancel},
		count,
	}}
	x := tensor.New(1, 3, 8, 8)
	x.FillRandom(3)
	out, err := net.TryForwardCtx(ctx, &Engine{Algo: AlgoNDirect, Threads: 2, Reuse: true}, x)
	if out != nil || !errors.Is(err, conv.ErrDeadline) || !errors.Is(err, context.Canceled) {
		t.Fatalf("TryForwardCtx = (%v, %v), want an error wrapping ErrDeadline and context.Canceled", out, err)
	}
	if n := count.n.Load(); n != 0 {
		t.Fatalf("the layer after the cancel ran %d times", n)
	}
}
