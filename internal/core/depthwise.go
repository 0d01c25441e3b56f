package core

import (
	"context"
	"errors"
	"fmt"

	"ndirect/internal/conv"
	"ndirect/internal/parallel"
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
// logged and the result recomputed on the oracle path.
func TryDepthwiseConv2D(s conv.Shape, in, filter *tensor.Tensor, opt Options) (*tensor.Tensor, error) {
	return TryDepthwiseConv2DCtx(context.Background(), s, in, filter, opt)
}

// TryDepthwiseConv2DCtx is the context-bounded form of
// TryDepthwiseConv2D: a DepthwisePlan built and executed once, so the
// kernel family, the fused epilogue (Options.FusedEpilogue, length C)
// and the deadline semantics are the plan's (Plan.TryExecuteCtx's: on
// expiry the grid is abandoned and the call returns an error wrapping
// conv.ErrDeadline, unless Options.FallbackBudget grants the oracle
// recompute time to finish).
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

// fallbackCtx classifies a parallel-loop error for the sibling
// drivers (grouped/fp64/int16): a worker fault keeps the
// unbounded sequential fallback (fctx is Background), while a context
// abandonment either returns the conv.ErrDeadline-wrapped error
// as-is (no FallbackBudget) or grants the fallback that budget. The
// returned cancel must be deferred when derr is nil.
func fallbackCtx(ctx context.Context, err error, opt Options) (fctx context.Context, cancel context.CancelFunc, derr error) {
	if !errors.Is(err, parallel.ErrCanceled) {
		return context.Background(), func() {}, nil
	}
	if opt.FallbackBudget <= 0 {
		return nil, nil, fmt.Errorf("%w: %w", conv.ErrDeadline, err)
	}
	fctx, cancel = context.WithTimeout(context.WithoutCancel(ctx), opt.FallbackBudget)
	return fctx, cancel, nil
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
	}
	return nil
}

// TryConv3D computes a 3-D convolution by decomposing it into 2-D
// nDirect convolutions summed over the kernel depth (§10.2: "3D
// Convolution can be seen as 2D Convolution with additional reduction
// dimensions, so we can directly use the micro-kernels of nDirect").
// Each (d, t) pair convolves input depth-slice d·strD−padD+t with
// filter depth-slice t, accumulating into output slice d. Checked
// variant: never panics.
func TryConv3D(s Shape3D, in, filter *tensor.Tensor, opt Options) (*tensor.Tensor, error) {
	return TryConv3DCtx(context.Background(), s, in, filter, opt)
}

// TryConv3DCtx is TryConv3D bounded by ctx: the deadline applies to
// the whole depth decomposition — each per-slice 2-D execution runs
// under the same context, so the first slice to hit the deadline
// aborts the 3-D computation with an error wrapping conv.ErrDeadline.
func TryConv3DCtx(ctx context.Context, s Shape3D, in, filter *tensor.Tensor, opt Options) (*tensor.Tensor, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	plan, err := TryNewPlan(s.Shape, opt)
	if err != nil {
		return nil, err
	}
	if err := conv.ValidateTensor("3-D input", in, s.N, s.C, s.D, s.H, s.W); err != nil {
		return nil, err
	}
	if err := conv.ValidateTensor("3-D filter", filter, s.K, s.C, s.T, s.R, s.S); err != nil {
		return nil, err
	}
	dOut := s.DOut()
	p, q := s.P(), s.Q()
	out := tensor.New(s.N, s.K, dOut, p, q)

	// Views: slicing depth d of the input requires a gather because D
	// is interior to the NCDHW layout; build per-slice NCHW tensors.
	inSlice := tensor.New(s.N, s.C, s.H, s.W)
	fSlice := tensor.New(s.K, s.C, s.R, s.S)
	outSlice := tensor.New(s.N, s.K, p, q)
	hw2 := s.H * s.W
	rs := s.R * s.S
	for d := 0; d < dOut; d++ {
		outSlice.Zero()
		for t := 0; t < s.T; t++ {
			id := d*s.StrD - s.PadD + t
			if id < 0 || id >= s.D {
				continue
			}
			for n := 0; n < s.N; n++ {
				for c := 0; c < s.C; c++ {
					src := in.Data[(((n*s.C+c)*s.D + id) * hw2):(((n*s.C+c)*s.D+id)*hw2 + hw2)]
					copy(inSlice.Data[(n*s.C+c)*hw2:], src)
				}
			}
			for k := 0; k < s.K; k++ {
				for c := 0; c < s.C; c++ {
					src := filter.Data[(((k*s.C+c)*s.T + t) * rs):(((k*s.C+c)*s.T+t)*rs + rs)]
					copy(fSlice.Data[(k*s.C+c)*rs:], src)
				}
			}
			if err := plan.TryExecuteAddCtx(ctx, inSlice, fSlice, outSlice); err != nil {
				return nil, err
			}
		}
		for n := 0; n < s.N; n++ {
			for k := 0; k < s.K; k++ {
				copy(out.Data[(((n*s.K+k)*dOut+d)*p*q):], outSlice.Data[((n*s.K+k)*p*q):((n*s.K+k)+1)*p*q])
			}
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
