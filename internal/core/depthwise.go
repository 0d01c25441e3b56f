package core

import (
	"context"
	"fmt"

	"ndirect/internal/conv"
	"ndirect/internal/tensor"
)

// Depthwise separable convolution support (§10.2). DSC = depthwise
// convolution (per-channel spatial filter, no C reduction) followed by
// pointwise convolution (1×1 standard convolution). The paper notes
// nDirect computes the pointwise part directly, and the depthwise
// part by "removing the reduction operations of dimension C in
// micro-kernels" — which is what depthwiseKernel below does: the
// register tile vectorises over the output columns instead of output
// channels, because each output channel depends on exactly one input
// channel.

// TryDepthwiseConv2D computes out[n][c][p][q] = Σ_{r,s} in[n][c][·][·]
// · filter[c][r][s] on NCHW input with a [C,R,S] filter. The Shape's K
// is ignored (output channels equal input channels). Checked variant:
// validation failures return errors; a faulting parallel worker is
// logged and the execution replayed on the depthwisePlaneRange oracle.
func TryDepthwiseConv2D(s conv.Shape, in, filter *tensor.Tensor, opt Options) (*tensor.Tensor, error) {
	return TryDepthwiseConv2DCtx(context.Background(), s, in, filter, opt)
}

// TryDepthwiseConv2DCtx is the context-bounded form of
// TryDepthwiseConv2D: a DepthwisePlan built and executed once, so the
// kernel family, the fused epilogue (Options.FusedEpilogue, length C)
// and the deadline semantics are the plan's (Plan.TryExecuteCtx's: on
// expiry the grid is abandoned and the call returns an error wrapping
// conv.ErrDeadline).
func TryDepthwiseConv2DCtx(ctx context.Context, s conv.Shape, in, filter *tensor.Tensor, opt Options) (*tensor.Tensor, error) {
	p, err := TryNewDepthwisePlan(s, opt)
	if err != nil {
		return nil, err
	}
	out := tensor.New(s.N, s.C, s.P(), s.Q())
	if err := p.TryExecuteCtx(ctx, in, filter, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DepthwiseConv2D is the panicking wrapper over TryDepthwiseConv2D.
func DepthwiseConv2D(s conv.Shape, in, filter *tensor.Tensor, opt Options) *tensor.Tensor {
	out, err := TryDepthwiseConv2D(s, in, filter, opt)
	if err != nil {
		panic(err)
	}
	return out
}

// PointwiseShape returns the conv.Shape of a 1×1/stride-1/pad-0
// pointwise convolution over an H×W grid with C input and K output
// channels.
func PointwiseShape(n, c, h, w, k int) conv.Shape {
	return conv.Shape{N: n, C: c, H: h, W: w, K: k, R: 1, S: 1, Str: 1, Pad: 0}
}

// validatePointwiseShape checks that s really is a pointwise
// convolution (the geometry the entry's name promises) and that it
// describes a realisable computation.
func validatePointwiseShape(s conv.Shape) error {
	if s.R != 1 || s.S != 1 || s.Str != 1 || s.Pad != 0 {
		return fmt.Errorf("%w: pointwise convolution requires R=S=1, Str=1, Pad=0; got R=%d S=%d Str=%d Pad=%d",
			conv.ErrBadShape, s.R, s.S, s.Str, s.Pad)
	}
	return s.Validate()
}

// TryPointwiseConv2DShape is the 1×1 convolution of a
// depthwise-separable block, dispatched straight to the standard
// nDirect path (§10.2: "nDirect can be directly called to compute the
// Pointwise Convolution"). The shape is validated as a pointwise
// geometry (R=S=1, Str=1, Pad=0) before planning, so a malformed
// dimension fails typed here instead of producing an undersized
// output tensor downstream. Build it with PointwiseShape or a
// SeparableShape's PWShape.
func TryPointwiseConv2DShape(s conv.Shape, in, filter *tensor.Tensor, opt Options) (*tensor.Tensor, error) {
	if err := validatePointwiseShape(s); err != nil {
		return nil, err
	}
	return TryConv2D(s, in, filter, opt)
}

// TryPointwiseConv2DShapeCtx is TryPointwiseConv2DShape bounded by
// ctx, with the deadline semantics of TryConv2DCtx.
func TryPointwiseConv2DShapeCtx(ctx context.Context, s conv.Shape, in, filter *tensor.Tensor, opt Options) (*tensor.Tensor, error) {
	if err := validatePointwiseShape(s); err != nil {
		return nil, err
	}
	return TryConv2DCtx(ctx, s, in, filter, opt)
}

// Shape3D describes a 3-D convolution: input [N,C,D,H,W], filter
// [K,C,T,R,S], output [N,K,Dout,P,Q].
type Shape3D struct {
	conv.Shape     // the 2-D cross-section (N,C,H,W,K,R,S,Str,Pad)
	D, T       int // input depth and kernel depth
	StrD, PadD int // depth stride and padding
}

// DOut returns the output depth.
func (s Shape3D) DOut() int { return (s.D+2*s.PadD-s.T)/s.StrD + 1 }

// Validate checks the 2-D cross-section (shadowing the promoted
// conv.Shape method) and then the depth geometry of the 3-D extension.
func (s Shape3D) Validate() error {
	if err := s.Shape.Validate(); err != nil {
		return err
	}
	switch {
	case s.D < 1 || s.D > conv.MaxDim:
		return fmt.Errorf("%w: 3-D depth D=%d outside [1, %d]", conv.ErrBadShape, s.D, conv.MaxDim)
	case s.T < 1 || s.T > conv.MaxDim:
		return fmt.Errorf("%w: 3-D kernel depth T=%d outside [1, %d]", conv.ErrBadShape, s.T, conv.MaxDim)
	case s.StrD < 1:
		return fmt.Errorf("%w: 3-D depth stride %d < 1", conv.ErrBadShape, s.StrD)
	case s.PadD < 0 || s.PadD > conv.MaxDim:
		return fmt.Errorf("%w: 3-D depth padding %d outside [0, %d]", conv.ErrBadShape, s.PadD, conv.MaxDim)
	case s.DOut() < 1:
		return fmt.Errorf("%w: 3-D depth geometry D=%d T=%d strD=%d padD=%d yields no output",
			conv.ErrBadShape, s.D, s.T, s.StrD, s.PadD)
	case int64(s.C)*int64(s.T) > conv.MaxDim:
		return fmt.Errorf("%w: 3-D reduction C·T=%d·%d exceeds %d channels", conv.ErrBadShape, s.C, s.T, conv.MaxDim)
	}
	return nil
}

// TryConv3D computes a 3-D convolution as one 2-D nDirect convolution
// per output depth (§10.2: "3D Convolution can be seen as 2D
// Convolution with additional reduction dimensions, so we can directly
// use the micro-kernels of nDirect"): the T depth taps join the
// reduction as C·T input channels. The KCTRS filter is read in place as
// that problem's [K, C·T, R, S] filter; depth d's input gathers input
// plane d·strD−padD+t of channel c into channel c·T+t, zero outside
// [0, D). Checked variant: never panics.
func TryConv3D(s Shape3D, in, filter *tensor.Tensor, opt Options) (*tensor.Tensor, error) {
	return TryConv3DCtx(context.Background(), s, in, filter, opt)
}

// TryConv3DCtx is TryConv3D bounded by ctx: each output depth is one
// governed execution of the same plan under ctx, with the deadline and
// fault semantics of Plan.TryExecuteCtx, so the first depth to hit the
// deadline returns an error wrapping conv.ErrDeadline.
func TryConv3DCtx(ctx context.Context, s Shape3D, in, filter *tensor.Tensor, opt Options) (*tensor.Tensor, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s2 := s.Shape
	s2.C = s.C * s.T
	plan, err := planFor(s2, opt)
	if err != nil {
		return nil, err
	}
	if err := conv.ValidateTensor("3-D input", in, s.N, s.C, s.D, s.H, s.W); err != nil {
		return nil, err
	}
	if err := conv.ValidateTensor("3-D filter", filter, s.K, s.C, s.T, s.R, s.S); err != nil {
		return nil, err
	}
	dOut, hw, pq := s.DOut(), s.H*s.W, s.P()*s.Q()
	out := tensor.New(s.N, s.K, dOut, s.P(), s.Q())
	fView := tensor.FromSlice(filter.Data, s.K, s2.C, s.R, s.S)
	inSlice := tensor.New(s.N, s2.C, s.H, s.W)
	outSlice := tensor.New(s.N, s.K, s.P(), s.Q())
	for d := 0; d < dOut; d++ {
		for nc := 0; nc < s.N*s.C; nc++ {
			for t := 0; t < s.T; t++ {
				dst := inSlice.Data[(nc*s.T+t)*hw : (nc*s.T+t+1)*hw]
				if id := d*s.StrD - s.PadD + t; id >= 0 && id < s.D {
					copy(dst, in.Data[(nc*s.D+id)*hw:])
				} else {
					clear(dst)
				}
			}
		}
		if err := plan.TryExecuteCtx(ctx, inSlice, fView, outSlice); err != nil {
			return nil, err
		}
		for nk := 0; nk < s.N*s.K; nk++ {
			copy(out.Data[(nk*dOut+d)*pq:], outSlice.Data[nk*pq:(nk+1)*pq])
		}
	}
	return out, nil
}

// Conv3D is the panicking wrapper over TryConv3D.
func Conv3D(s Shape3D, in, filter *tensor.Tensor, opt Options) *tensor.Tensor {
	out, err := TryConv3D(s, in, filter, opt)
	if err != nil {
		panic(err)
	}
	return out
}
