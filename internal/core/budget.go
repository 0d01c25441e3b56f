package core

import (
	"context"

	"ndirect/internal/tensor"
)

// A plan's byte sizes and its reference executor. The sizes report what
// an execution and the plan's packed weights occupy — the serving
// registry's weight-residency budget quotes PackedBytes before a pack is
// allocated — and TryExecuteReferenceCtx runs the plan serially on its
// oracle for the reference engine (nn.Engine.ForceReference).

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

// TryExecuteReferenceCtx computes the plan's convolution into out on
// the plan's oracle — the looped kernel12x8 with the Go store, reading
// the raw filter, the fused epilogue replayed in the store — on the
// calling goroutine: no worker grid, no packed weights. It is the path
// of a reference engine (nn.Engine.ForceReference), the registry's
// quarantine rung, and the replay a faulted execution recovers with, so
// its results are bit-identical to a fault-free TryExecute for every
// input. A context already done at entry returns an error wrapping
// conv.ErrDeadline and the context's cause; the computation itself is
// not polled. NCHW only (the layout the serving entry points use).
func (p *Plan) TryExecuteReferenceCtx(ctx context.Context, in, filter *tensor.Tensor, out *tensor.Tensor) error {
	if ctx != nil && ctx.Err() != nil {
		return deadlineErr(ctx)
	}
	r, err := p.load(execReq{in: in, filter: filter, out: out})
	if err != nil {
		return err
	}
	defer r.release()
	r.oracle()
	r.replay()
	return nil
}
