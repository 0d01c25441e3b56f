package nn

import (
	"context"
	"errors"
	"sync"
	"testing"

	"ndirect/internal/conv"
	"ndirect/internal/tensor"
)

// parked reports whether eng's pool for n-element buffers holds one,
// taking it out if so.
func parked(eng *Engine, n int) bool {
	p, ok := eng.pools.Load(n)
	return ok && p.(*sync.Pool).Get() != nil
}

// TestTryForwardFuncRecyclesOutput: use sees TryForward's output, bit
// for bit, and afterwards the buffer is back in the engine's pool, so a
// later forward writes into it. sync.Pool may drop a parked buffer (it
// does so at random under -race), so the reuse need only show once in a
// run of forwards.
func TestTryForwardFuncRecyclesOutput(t *testing.T) {
	net := &Network{Name: "one-conv", Layers: []Layer{builderForTest().convUnit("c1", 4, 8, 8, 3, 1, 1, true, false)}}
	x := tensor.New(1, 4, 8, 8)
	x.FillRandom(3)
	want := net.Forward(&Engine{Algo: AlgoNDirect, Threads: 2}, x)
	eng := &Engine{Algo: AlgoNDirect, Threads: 2, Reuse: true}
	var prev *float32
	reused := false
	for i := 0; i < 50; i++ {
		var first *float32
		err := net.TryForwardFunc(context.Background(), eng, x, func(out *tensor.Tensor) {
			if d := tensor.MaxAbsDiff(want, out); d != 0 {
				t.Fatalf("forward %d: output differs from TryForward's by %g", i, d)
			}
			first = &out.Data[0]
		})
		if err != nil {
			t.Fatal(err)
		}
		reused = reused || first == prev
		prev = first
	}
	if !reused {
		t.Fatal("no forward wrote into the previous forward's output buffer")
	}
}

// TestTryForwardFuncFailureReleasesNothing: a forward that fails does
// not run use and parks no buffer.
func TestTryForwardFuncFailureReleasesNothing(t *testing.T) {
	net := &Network{Name: "one-conv", Layers: []Layer{builderForTest().convUnit("c1", 4, 8, 8, 3, 1, 1, true, false)}}
	eng := &Engine{Algo: AlgoNDirect, Threads: 2, Reuse: true}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x := tensor.New(1, 4, 8, 8)
	err := net.TryForwardFunc(ctx, eng, x, func(*tensor.Tensor) { t.Fatal("use ran after a failed forward") })
	if !errors.Is(err, conv.ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	eng.pools.Range(func(n, _ any) bool {
		t.Fatalf("a failed forward parked a buffer of %d elements", n)
		return false
	})
}

// TestTryForwardFuncNeverParksTheInput: when the output is the caller's
// input (a network of no layers returns x), it stays the caller's.
func TestTryForwardFuncNeverParksTheInput(t *testing.T) {
	net := &Network{Name: "empty"}
	eng := &Engine{Algo: AlgoNDirect, Threads: 2, Reuse: true}
	x := tensor.New(1, 2, 3, 3)
	x.FillRandom(5)
	saw := false
	if err := net.TryForwardFunc(context.Background(), eng, x, func(out *tensor.Tensor) { saw = out == x }); err != nil {
		t.Fatal(err)
	}
	if !saw {
		t.Fatal("use did not see the input as the output")
	}
	if parked(eng, len(x.Data)) {
		t.Fatal("the caller's input went to the engine's pool")
	}
}
