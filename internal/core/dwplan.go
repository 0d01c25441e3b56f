package core

import (
	"context"
	"fmt"

	"ndirect/internal/conv"
	"ndirect/internal/parallel"
	"ndirect/internal/tensor"
)

// DepthwisePlan is the reusable execution state for a depthwise
// convolution (DESIGN.md §13): §10.2's "same kernel without the
// C-reduction" as a plan. It fixes the shape, kernel family
// (dispatch.go), fused epilogue and row-tile decomposition at
// construction and executes through the shared harness and ladder
// (govern.go), so a warm plan runs with zero heap allocations — the
// steady-state contract the standard packed path holds.
//
// The iteration space is the N·C independent (n, c) planes, each cut
// into row tiles of rowTile output rows; grid cells are distributed
// contiguously over the worker tasks. Depthwise needs no packing
// scratch (each output channel reads one input plane directly), so a
// worker's only state is its cell range.
type DepthwisePlan struct {
	Shape conv.Shape // K normalised to C (depthwise: one output per input channel)

	threads int
	family  *kernelFamily // nil: generic depthwisePlaneRange body
	ep      epilogue      // per-channel (length C) fused epilogue

	rowTile int              // output rows per grid cell
	tiles   int              // row tiles per plane
	cells   int              // N·C·tiles
	ranges  []parallel.Range // cells per worker task

	runs runPool
}

// dwRun is one execution's operands on top of the shared harness.
type dwRun struct {
	gridRun
	p          *DepthwisePlan
	in, filter *tensor.Tensor // filter: the raw [C,R,S] weights (packed: the pack's source)

	inD, fdata, outD []float32       // fdata: the weights the grid reads
	kern             depthwiseKernel // this execution's body (dwBody)
}

// TryNewDepthwisePlan validates the geometry and options and builds a
// reusable depthwise plan. The Shape's K is ignored (output channels
// equal input channels); Options.FusedEpilogue applies per output
// channel, so its slices must have length C, not K.
// Options.ForceTh overrides the row-tile height (0 solves it).
func TryNewDepthwisePlan(s conv.Shape, opt Options) (*DepthwisePlan, error) {
	chk := s
	chk.K = 1
	if err := chk.Validate(); err != nil {
		return nil, err
	}
	s.K = s.C
	if opt.Threads < 0 || opt.Threads > maxThreads {
		return nil, fmt.Errorf("%w: Threads=%d outside [0, %d]", ErrBadOptions, opt.Threads, maxThreads)
	}
	if opt.ForceTh < 0 {
		return nil, fmt.Errorf("%w: ForceTh=%d negative", ErrBadOptions, opt.ForceTh)
	}
	if opt.DepthwiseEpilogue != nil {
		return nil, fmt.Errorf("%w: DepthwiseEpilogue is a separable-plan option; a depthwise plan's epilogue is FusedEpilogue", ErrBadOptions)
	}
	if err := validateChannelEpilogue(opt.FusedEpilogue, s.C, "depthwise", false); err != nil {
		return nil, err
	}

	p := &DepthwisePlan{Shape: s, ep: normalizeEpilogue(opt.FusedEpilogue), family: dwFamilyFor(s)}
	p.threads = opt.Threads
	if p.threads == 0 {
		p.threads = parallel.DefaultThreads()
	}

	pp := s.P()
	planes := s.N * s.C
	switch {
	case opt.ForceTh > 0:
		p.rowTile = min(opt.ForceTh, pp)
	case planes >= 2*p.threads:
		// Enough whole planes to balance the grid: no row split.
		p.rowTile = pp
	default:
		// Few planes (small C·N, large H — the MobileNet stem): split
		// rows so every worker gets ~2 cells to balance stragglers.
		per := (2*p.threads + planes - 1) / planes
		if per > pp {
			per = pp
		}
		p.rowTile = (pp + per - 1) / per
	}
	p.tiles = (pp + p.rowTile - 1) / p.rowTile
	p.cells = planes * p.tiles
	p.ranges = parallel.Split(p.cells, p.threads)
	return p, nil
}

// validateChannelEpilogue checks an EpilogueParams' slice lengths
// against the channel count of the stage it fuses into, and that a
// residual operand is asked only of a stage whose executions can carry
// one (residualOK).
func validateChannelEpilogue(fe *EpilogueParams, ch int, stage string, residualOK bool) error {
	if fe == nil {
		return nil
	}
	if fe.Residual && !residualOK {
		return fmt.Errorf("%w: %s epilogue cannot take a residual operand", ErrBadOptions, stage)
	}
	if fe.Bias != nil && len(fe.Bias) != ch {
		return fmt.Errorf("%w: %s epilogue bias length %d, want %d", ErrBadOptions, stage, len(fe.Bias), ch)
	}
	if (fe.Scale == nil) != (fe.Shift == nil) {
		return fmt.Errorf("%w: %s epilogue Scale and Shift must be both nil or both set", ErrBadOptions, stage)
	}
	if fe.Scale != nil && (len(fe.Scale) != ch || len(fe.Shift) != ch) {
		return fmt.Errorf("%w: %s epilogue affine lengths %d/%d, want %d", ErrBadOptions, stage, len(fe.Scale), len(fe.Shift), ch)
	}
	return nil
}

// KernelName reports which depthwise kernel the plan's next execution
// runs: its family's name, or "dw.generic" (no family, or family
// quarantined).
func (p *DepthwisePlan) KernelName() string { return dwKernelName(p.family) }

// OutputBytes returns the byte size of the plan's output tensor.
func (p *DepthwisePlan) OutputBytes() int64 {
	s := p.Shape
	return 4 * int64(s.N) * int64(s.C) * int64(s.P()) * int64(s.Q())
}

// ScratchBytes returns the plan's worker-private scratch footprint:
// zero — depthwise workers read the input plane directly and write the
// output in place.
func (p *DepthwisePlan) ScratchBytes() int64 { return 0 }

// PackedBytes returns the byte size TransformFilter would allocate.
func (p *DepthwisePlan) PackedBytes() int64 {
	s := p.Shape
	return 4 * int64(s.C) * int64(s.R) * int64(s.S)
}

// cell computes one grid cell: the row tile [h0, h1) of plane
// cell/tiles, kernel accumulation then the per-channel epilogue sweep
// (bias → affine → ReLU, the storeLane order, applied in a second
// pass over the still-cache-hot tile — float32 store+reload is
// value-preserving, so the sweep is bit-identical to an in-register
// epilogue and to the separate nn addBias/applyBN/applyReLU passes).
func (p *DepthwisePlan) cell(in, filter, out []float32, cell int, kern depthwiseKernel) {
	s := p.Shape
	pp, q := s.P(), s.Q()
	plane := cell / p.tiles
	h0 := (cell % p.tiles) * p.rowTile
	h1 := min(h0+p.rowTile, pp)
	c := plane % s.C
	inPlane := in[plane*s.H*s.W : (plane+1)*s.H*s.W]
	fch := filter[c*s.R*s.S : (c+1)*s.R*s.S]
	dst := out[plane*pp*q+h0*q : plane*pp*q+h1*q]
	kern(s, inPlane, fch, dst, h0, h1)
	if !p.ep.none {
		applyChannelEpilogue(dst, &p.ep, c)
	}
}

// applyChannelEpilogue applies one channel's fused epilogue over a
// contiguous slice of that channel's outputs, in storeLane's
// per-element order: bias, affine, ReLU.
func applyChannelEpilogue(dst []float32, ep *epilogue, c int) {
	var bias, scale, shift float32
	hasBias := ep.bias != nil
	if hasBias {
		bias = ep.bias[c]
	}
	hasAffine := ep.scale != nil
	if hasAffine {
		scale, shift = ep.scale[c], ep.shift[c]
	}
	relu := ep.relu
	for i := range dst {
		v := dst[i]
		if hasBias {
			v += bias
		}
		if hasAffine {
			v = float32(v*scale) + shift
		}
		if relu && v < 0 {
			v = 0
		}
		dst[i] = v
	}
}

// newRun builds a run state: one task per worker over its contiguous
// cell range.
func (p *DepthwisePlan) newRun() *dwRun {
	r := &dwRun{p: p}
	r.init(r, &p.runs, p.Shape, len(p.ranges), &r.fdata)
	return r
}

func (r *dwRun) cells(w int) {
	rg := r.p.ranges[w]
	for cell := rg.Lo; cell < rg.Hi; cell++ {
		if r.fs.Stopped() {
			return
		}
		r.p.cell(r.inD, r.fdata, r.outD, cell, r.kern)
	}
}

func (r *dwRun) unload() {
	r.in, r.filter, r.inD, r.outD = nil, nil, nil, nil
}

// recompute is the depthwise oracle path, from the raw weights.
func (r *dwRun) recompute() {
	r.p.oracle(r.in.Data, r.filter.Data, r.out.Data)
}

// TryExecute runs the depthwise plan on an NCHW input with a [C,R,S]
// filter, writing the [N,C,P,Q] output in place. A nil error always
// means a correct output: execution faults are recomputed on the
// oracle path.
func (p *DepthwisePlan) TryExecute(in, filter, out *tensor.Tensor) error {
	return p.exec(context.Background(), in, filter, nil, out)
}

// TryExecuteCtx is TryExecute bounded by ctx, with Plan.TryExecuteCtx
// deadline semantics: on expiry the grid is abandoned and the call
// returns an error wrapping conv.ErrDeadline.
func (p *DepthwisePlan) TryExecuteCtx(ctx context.Context, in, filter, out *tensor.Tensor) error {
	return p.exec(ctx, in, filter, nil, out)
}

// TryExecutePacked runs the plan with a pre-packed depthwise filter in
// place of the raw [C,R,S] tensor; results are bit-identical to
// TryExecute with the packed filter's source weights.
func (p *DepthwisePlan) TryExecutePacked(in *tensor.Tensor, pf *PackedDepthwiseFilter, out *tensor.Tensor) error {
	return p.TryExecutePackedCtx(context.Background(), in, pf, out)
}

// TryExecutePackedCtx is TryExecutePacked bounded by ctx.
func (p *DepthwisePlan) TryExecutePackedCtx(ctx context.Context, in *tensor.Tensor, pf *PackedDepthwiseFilter, out *tensor.Tensor) error {
	if err := pf.validateFor(p.Shape); err != nil {
		return err
	}
	return p.exec(ctx, in, pf.src, &pf.packedCore, out)
}

// exec validates the operands, loads them into a pooled run and hands
// it to the ladder (govern); pc is the packed weights' handle, nil for
// a raw-filter execution.
func (p *DepthwisePlan) exec(ctx context.Context, in, filter *tensor.Tensor, pc *packedCore, out *tensor.Tensor) error {
	s := p.Shape
	if err := conv.ValidateTensor("depthwise input", in, s.N, s.C, s.H, s.W); err != nil {
		return err
	}
	if err := conv.ValidateTensor("depthwise filter", filter, s.C, s.R, s.S); err != nil {
		return err
	}
	if err := conv.ValidateTensor("depthwise output", out, s.N, s.C, s.P(), s.Q()); err != nil {
		return err
	}
	var r *dwRun
	if g := p.runs.get(); g != nil {
		r = g.owner.(*dwRun)
	} else {
		r = p.newRun()
	}
	r.in, r.filter, r.inD, r.fdata, r.outD = in, filter, in.Data, filter.Data, out.Data
	if pc != nil {
		r.packed[0].core, r.fdata = pc, pc.data
	}
	r.out = out
	r.kern = dwBody(p.family)
	return govern(ctx, &r.gridRun)
}

// oracle computes the full result sequentially on the generic oracle
// body plus the epilogue sweep into out.
func (p *DepthwisePlan) oracle(in, filter, out []float32) {
	s := p.Shape
	pp, q := s.P(), s.Q()
	for plane := 0; plane < s.N*s.C; plane++ {
		c := plane % s.C
		inPlane := in[plane*s.H*s.W : (plane+1)*s.H*s.W]
		fch := filter[c*s.R*s.S : (c+1)*s.R*s.S]
		dst := out[plane*pp*q : (plane+1)*pp*q]
		depthwisePlaneRange(s, inPlane, fch, dst, 0, pp)
		if !p.ep.none {
			applyChannelEpilogue(dst, &p.ep, c)
		}
	}
}

// PackedDepthwiseFilter is the persistent packed form of a depthwise
// [C,R,S] filter: a private copy of the weights on the shared
// packed-weights core (DESIGN.md §12 — the depthwise layout is already
// the per-channel contiguous form the kernels consume, so packing buys
// immutability, residency accounting and checksum protection rather
// than a reordering). Verification runs on the same sampled schedule as
// PackedFilter (SetPackedVerifyInterval), and a mismatch is typed
// ErrIntegrity: the owner must re-pack from the retained source.
type PackedDepthwiseFilter struct {
	packedCore
	c, r, s int
}

// TransformFilter packs the [C,R,S] depthwise filter for the plan,
// stamping its CRC32-C. The source tensor is retained (Source) so
// fault fallbacks and re-packs read pristine weights.
func (p *DepthwisePlan) TransformFilter(filter *tensor.Tensor) (*PackedDepthwiseFilter, error) {
	return packDepthwise(p.Shape, filter)
}

// packDepthwise packs a depthwise stage's weights (a DepthwisePlan's,
// or a SeparablePlan's depthwise stage).
func packDepthwise(s conv.Shape, filter *tensor.Tensor) (*PackedDepthwiseFilter, error) {
	if err := conv.ValidateTensor("depthwise filter", filter, s.C, s.R, s.S); err != nil {
		return nil, err
	}
	pf := &PackedDepthwiseFilter{c: s.C, r: s.R, s: s.S}
	pf.seal(fmt.Sprintf("packed depthwise filter C%d R%d S%d", s.C, s.R, s.S), filter, append([]float32(nil), filter.Data...))
	return pf, nil
}

// CompatibleWith reports whether the packed geometry matches the plan.
func (pf *PackedDepthwiseFilter) CompatibleWith(p *DepthwisePlan) bool { return pf.fits(p.Shape) }

func (pf *PackedDepthwiseFilter) fits(s conv.Shape) bool {
	return pf.c == s.C && pf.r == s.R && pf.s == s.S
}

// validateFor checks the packed filter against a depthwise stage's
// shape.
func (pf *PackedDepthwiseFilter) validateFor(s conv.Shape) error {
	if pf == nil {
		return fmt.Errorf("%w: nil packed depthwise filter", ErrBadOptions)
	}
	if err := pf.usable(); err != nil {
		return err
	}
	if !pf.fits(s) {
		return fmt.Errorf("%w: %s does not match plan %v", ErrBadOptions, pf.what, s)
	}
	return nil
}

// depthwiseProbeShape is a depthwise family's golden probe plane: 23
// columns give both strides at least two 8-wide vector blocks, the last
// one ragged, with a halo column on each side (stride 1: columns 1–21 in
// blocks, stride 2: 1–10), and 13 rows a top and a bottom edge row.
func depthwiseProbeShape(f *kernelFamily) conv.Shape {
	return conv.Shape{N: 1, C: 5, H: 13, W: 23, K: 5, R: f.r, S: f.s, Str: f.str, Pad: 1}
}

// newDepthwiseProbe builds the golden probe for a depthwise family
// (VerifyKernelFamily): the body over depthwiseProbeShape, compared
// against the depthwisePlaneRange oracle.
func newDepthwiseProbe(f *kernelFamily) (*familyProbe, error) {
	s := depthwiseProbeShape(f)
	p, err := TryNewDepthwisePlan(s, Options{Threads: 1})
	if err != nil {
		return nil, err
	}
	p.family = f.probeCopy()
	in, filter := tensor.New(s.N, s.C, s.H, s.W), tensor.New(s.C, s.R, s.S)
	fillProbe(in.Data, 0xD3A11CE)
	fillProbe(filter.Data, 0xD3B0B)
	kp := &familyProbe{
		shape: s,
		out:   tensor.New(s.N, s.C, s.P(), s.Q()),
		want:  tensor.New(s.N, s.C, s.P(), s.Q()),
	}
	p.oracle(in.Data, filter.Data, kp.want.Data)
	kp.exec = func() error { return p.TryExecute(in, filter, kp.out) }
	return kp, nil
}
