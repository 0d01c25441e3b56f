package core

import (
	"context"
	"fmt"

	"ndirect/internal/conv"
	"ndirect/internal/tensor"
)

// Grouped convolution: the continuum between the standard convolution
// (groups=1) and the depthwise convolution of §10.2 (groups=C). Each
// group convolves C/g input channels into K/g output channels with an
// independent filter set — the ResNeXt/AlexNet-style building block.
// nDirect extends naturally: image n's group g reads a contiguous slab
// of the NCHW input and writes a contiguous slab of the NKPQ output, so
// each (n, g) sub-problem is one governed execution of a shared
// per-group Plan on views of the operands — no copy, and the plan's
// own thread grid inside.

// TryGroupedConv2D convolves an NCHW input with a [K, C/groups, R, S]
// filter in `groups` independent channel groups, returning the NKPQ
// output. groups must divide both C and K. groups=1 degenerates to
// Conv2D. Checked variant: validation failures return errors; a
// faulted sub-problem is logged and replayed on its plan's oracle.
func TryGroupedConv2D(s conv.Shape, groups int, in, filter *tensor.Tensor, opt Options) (*tensor.Tensor, error) {
	return TryGroupedConv2DCtx(context.Background(), s, groups, in, filter, opt)
}

// TryGroupedConv2DCtx is the context-bounded form of TryGroupedConv2D:
// every (n, g) sub-problem runs under ctx with the deadline semantics
// of Plan.TryExecuteCtx, so the first one to hit the deadline returns an
// error wrapping conv.ErrDeadline.
func TryGroupedConv2DCtx(ctx context.Context, s conv.Shape, groups int, in, filter *tensor.Tensor, opt Options) (*tensor.Tensor, error) {
	if groups < 1 || s.C%groups != 0 || s.K%groups != 0 {
		return nil, fmt.Errorf("%w: groups=%d must divide C=%d and K=%d", conv.ErrBadShape, groups, s.C, s.K)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cg, kg := s.C/groups, s.K/groups
	if err := conv.ValidateTensor("grouped input", in, s.N, s.C, s.H, s.W); err != nil {
		return nil, err
	}
	if err := conv.ValidateTensor("grouped filter", filter, s.K, cg, s.R, s.S); err != nil {
		return nil, err
	}
	if groups == 1 {
		return TryConv2DCtx(ctx, s, in, filter, opt)
	}

	gs := s // the per-group sub-problem
	gs.C, gs.K = cg, kg
	if err := gs.Validate(); err != nil {
		return nil, fmt.Errorf("%w (per-group sub-problem, groups=%d)", err, groups)
	}
	plan, err := planFor(gs.WithBatch(1), opt)
	if err != nil {
		return nil, err
	}
	out := s.NewOutput()
	inLen, outLen, fLen := cg*s.H*s.W, kg*s.P()*s.Q(), kg*cg*s.R*s.S
	for ng := 0; ng < s.N*groups; ng++ {
		g := ng % groups
		inView := tensor.FromSlice(in.Data[ng*inLen:(ng+1)*inLen], 1, cg, s.H, s.W)
		fView := tensor.FromSlice(filter.Data[g*fLen:(g+1)*fLen], kg, cg, s.R, s.S)
		outView := tensor.FromSlice(out.Data[ng*outLen:(ng+1)*outLen], 1, kg, s.P(), s.Q())
		if err := plan.TryExecuteCtx(ctx, inView, fView, outView); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// GroupedConv2D is the panicking wrapper over TryGroupedConv2D.
func GroupedConv2D(s conv.Shape, groups int, in, filter *tensor.Tensor, opt Options) *tensor.Tensor {
	out, err := TryGroupedConv2D(s, groups, in, filter, opt)
	if err != nil {
		panic(err)
	}
	return out
}
