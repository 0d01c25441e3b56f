package nn

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"ndirect/internal/conv"
	"ndirect/internal/tensor"
)

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
