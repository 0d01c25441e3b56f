package core

import (
	"context"

	"ndirect/internal/conv"
	"ndirect/internal/tensor"
)

// A plan's byte sizes and its reference executor. The sizes report what
// an execution and the plan's packed weights occupy — the serving
// registry's weight-residency budget quotes PackedBytes before a pack is
// allocated — and TryExecuteReferenceCtx runs the plan's convolution on
// the naive loop for the reference engine (nn.Engine.ForceReference).

// ScratchBytes returns an upper bound on the transient worker-scratch
// memory one NCHW execution of the plan allocates: the per-worker
// transformed-filter block and packing buffer, times the full
// PTk × PN × PH × PW thread grid. A plan that reads its tiles in place
// (Plan.inPlace) has no packing buffer until an NHWC execution needs
// one. Actual usage can be lower — worker ranges collapse when a
// dimension is smaller than its grid factor, and the plan's run pool
// reuses scratch across calls — so this is a safe admission estimate,
// not an exact meter.
func (p *Plan) ScratchBytes() int64 {
	per := p.tfLen()
	if !p.inPlace {
		per += p.bufLen()
	}
	workers := p.TM.PTk * p.TM.PN * p.TM.PH * p.TM.PW
	return 4 * int64(per) * int64(workers)
}

// tfLen is one worker's transformed-filter block: Tk rounded up to whole
// K-blocks, by Tc·R·S.
func (p *Plan) tfLen() int {
	s := p.Shape
	kBlocks := (p.CT.Tk + p.RT.Vk - 1) / p.RT.Vk
	return kBlocks * p.RT.Vk * p.CT.Tc * s.R * s.S
}

// bufLen is one worker's packing buffer: Tc·R rows of the packed width.
func (p *Plan) bufLen() int {
	s := p.Shape
	return p.CT.Tc * s.R * ((p.RT.Vw-1)*s.Str + s.S)
}

// OutputBytes returns the size of the plan's NKPQ output tensor.
func (p *Plan) OutputBytes() int64 {
	s := p.Shape
	return 4 * int64(s.N) * int64(s.K) * int64(s.P()) * int64(s.Q())
}

// PackedBytes returns the size of the PackedFilter TransformFilter
// would build for this plan (⌈K/Vk⌉·C·R·S·Vk floats) — the admission
// quote a weight-residency budget checks before the packed copy is
// allocated, so a denied charge costs nothing.
func (p *Plan) PackedBytes() int64 {
	s := p.Shape
	kBlocks := (s.K + p.RT.Vk - 1) / p.RT.Vk
	return 4 * int64(kBlocks) * int64(s.C) * int64(s.R) * int64(s.S) * int64(p.RT.Vk)
}

// TryExecuteReferenceCtx computes the plan's convolution with the
// naive seven-loop algorithm directly into out — no worker grid, no
// scratch buffers — replaying the plan's
// fused epilogue. It is the path of a reference engine
// (nn.Engine.ForceReference), the registry's quarantine rung: it needs
// only the output the caller was owed anyway. Accumulation is float64
// in the same (c, r, s) order as conv.Reference, so its results are
// bit-identical to the reference oracle. The context is polled between
// output rows; expiry returns an error wrapping conv.ErrDeadline and
// the context's cause. NCHW only (the layout the serving entry points
// use).
func (p *Plan) TryExecuteReferenceCtx(ctx context.Context, in, filter *tensor.Tensor, out *tensor.Tensor) error {
	if err := conv.ValidateOperands(p.Shape, in, filter); err != nil {
		return err
	}
	if err := conv.ValidateOutput(p.Shape, out); err != nil {
		return err
	}
	if err := p.checkResidual(false); err != nil {
		return err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s := p.Shape
	pp, q := s.P(), s.Q()
	poll := ctx.Done() != nil
	rs := s.R * s.S
	for n := 0; n < s.N; n++ {
		for k := 0; k < s.K; k++ {
			var bias, scale, shift float32
			hasBias, hasAffine, relu := false, false, false
			if !p.ep.none {
				if p.ep.bias != nil {
					bias, hasBias = p.ep.bias[k], true
				}
				if p.ep.scale != nil {
					scale, shift, hasAffine = p.ep.scale[k], p.ep.shift[k], true
				}
				relu = p.ep.relu
			}
			for oj := 0; oj < pp; oj++ {
				if poll && ctx.Err() != nil {
					return deadlineErr(ctx)
				}
				row := out.Data[((n*s.K+k)*pp+oj)*q : ((n*s.K+k)*pp+oj+1)*q]
				for oi := 0; oi < q; oi++ {
					var acc float64
					ij := s.Str*oj - s.Pad
					ii := s.Str*oi - s.Pad
					for c := 0; c < s.C; c++ {
						inBase := ((n*s.C + c) * s.H) * s.W
						fBase := (k*s.C + c) * rs
						for r := 0; r < s.R; r++ {
							ih := ij + r
							if ih < 0 || ih >= s.H {
								continue
							}
							for ss := 0; ss < s.S; ss++ {
								iw := ii + ss
								if iw < 0 || iw >= s.W {
									continue
								}
								acc += float64(in.Data[inBase+ih*s.W+iw]) *
									float64(filter.Data[fBase+r*s.S+ss])
							}
						}
					}
					v := float32(acc)
					if hasBias {
						v += bias
					}
					if hasAffine {
						v = float32(v*scale) + shift
					}
					if relu && v < 0 {
						v = 0
					}
					row[oi] = v
				}
			}
		}
	}
	return nil
}
