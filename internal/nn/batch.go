package nn

import (
	"fmt"

	"ndirect/internal/core"
	"ndirect/internal/tensor"
)

// TryForwardBatch runs ONE forward pass over a set of coalesced
// requests: the inputs are stacked along the batch axis, the network
// executes once at N = Σ n_i (so every conv layer plans, packs and
// joins one worker grid instead of len(xs)), and the stacked output is
// split back into per-request views — no copy on the way out. Because
// every layer's per-image work is independent of N (the conv tile
// solvers ignore the batch dimension, and the elementwise / pooling /
// FC passes partition on it), the result for each request is
// bit-identical to a solo TryForward of that request.
//
// Inputs must be 4D NCHW with matching C/H/W (ragged per-request batch
// dims are fine). The returned tensors are views into one backing
// array: treat them as read-only results and do not return them to a
// buffer pool (serve.Runtime.Recycle refuses them by construction).
func (n *Network) TryForwardBatch(eng *Engine, xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("%w: empty forward batch", core.ErrBadOptions)
	}
	if len(xs) == 1 {
		out, err := n.TryForward(eng, xs[0])
		if err != nil {
			return nil, err
		}
		return []*tensor.Tensor{out}, nil
	}
	first := xs[0]
	if len(first.Dims) != 4 {
		return nil, fmt.Errorf("%w: batched forward needs NCHW inputs, got %v", core.ErrBadOptions, first.Dims)
	}
	c, h, w := first.Dims[1], first.Dims[2], first.Dims[3]
	total := 0
	for i, x := range xs {
		if x == nil || len(x.Dims) != 4 || x.Dims[0] < 1 || x.Dims[1] != c || x.Dims[2] != h || x.Dims[3] != w {
			return nil, fmt.Errorf("%w: batch member %d does not match geometry %dx%dx%d", core.ErrBadOptions, i, c, h, w)
		}
		total += x.Dims[0]
	}

	// Stack. This is the one copy batching costs on the way in; the
	// stacked buffer comes from the engine pool and goes back as soon as
	// the first layer has consumed it (TryForward treats it as the
	// caller's input and never releases it itself).
	per := c * h * w
	stacked := eng.newOutput(total, c, h, w) // filled whole by the copies below
	off := 0
	for _, x := range xs {
		copy(stacked.Data[off*per:(off+x.Dims[0])*per], x.Data)
		off += x.Dims[0]
	}
	out, err := n.TryForward(eng, stacked)
	if err != nil {
		// A failed layer may have abandoned workers still touching its
		// operands; leave stacked to the GC rather than the pool.
		return nil, err
	}
	if out != stacked {
		eng.release(stacked)
	}
	if len(out.Dims) < 1 || out.Dims[0] != total {
		return nil, fmt.Errorf("%w: network changed the batch axis: in %d out %v", core.ErrBadOptions, total, out.Dims)
	}

	// Scatter: per-request views into the stacked output, zero copies.
	perOut := out.Len() / total
	outs := make([]*tensor.Tensor, len(xs))
	off = 0
	for i, x := range xs {
		ni := x.Dims[0]
		dims := append([]int{ni}, out.Dims[1:]...)
		outs[i] = tensor.FromSlice(out.Data[off*perOut:(off+ni)*perOut], dims...)
		off += ni
	}
	return outs, nil
}
