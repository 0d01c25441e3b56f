package core

import (
	"context"
	"fmt"

	"ndirect/internal/conv"
	"ndirect/internal/parallel"
	"ndirect/internal/tensor"
)

// Fused depthwise-separable convolution (DESIGN.md §13). A separable
// block is a depthwise convolution (per-channel spatial filter)
// followed by a 1×1 pointwise convolution; run as two calls, the
// [N][C][P][Q] intermediate round-trips through memory twice. The
// SeparablePlan fuses the stages at row-tile granularity instead: each
// grid cell computes a tile of depthwise output rows for all C
// channels into pooled scratch and immediately feeds it to the
// pointwise stage while it is still cache-hot. The full intermediate
// tensor is never allocated — the per-worker footprint is
// C·rowTile·Q floats, bounded by the row-tile solve below.
//
// The plan runs the code of the two plans the block is built from
// (§10.2): its depthwise plan's rows (kernel, then the depthwise-stage
// epilogue) per channel, and its full-shape pointwise plan's worker
// over the row tile, reading the intermediate in place as an input
// view. So the fused pointwise stage is the standard plan's per-element
// float32 operation sequence exactly — the same channel-tile partition
// (the pointwise plan's CT.Tc), the same body and register
// accumulation within a tile, the same spill-and-add between tiles and
// the same store-side epilogue — and TrySeparableConv2D is
// bit-identical to TryDepthwiseConv2D + TryPointwiseConv2DShape with
// matching options.

// SeparableShape describes a depthwise-separable block: the depthwise
// stage's geometry (C input/intermediate channels, R×S filter, stride,
// padding) plus the pointwise stage's K output channels. The pointwise
// stage is always 1×1, stride 1, pad 0 on the depthwise output.
type SeparableShape struct {
	N   int // batch
	C   int // input (= depthwise output) channels
	H   int // input rows
	W   int // input columns
	K   int // pointwise output channels
	R   int // depthwise filter rows
	S   int // depthwise filter columns
	Str int // depthwise stride
	Pad int // depthwise padding
}

// DWShape returns the depthwise stage as a conv.Shape (K = C).
func (s SeparableShape) DWShape() conv.Shape {
	return conv.Shape{N: s.N, C: s.C, H: s.H, W: s.W, K: s.C, R: s.R, S: s.S, Str: s.Str, Pad: s.Pad}
}

// PWShape returns the pointwise stage as a conv.Shape: a 1×1
// convolution over the depthwise output grid.
func (s SeparableShape) PWShape() conv.Shape {
	dw := s.DWShape()
	return conv.Shape{N: s.N, C: s.C, H: dw.P(), W: dw.Q(), K: s.K, R: 1, S: 1, Str: 1, Pad: 0}
}

// P and Q are the final (pointwise = depthwise) output dimensions.
func (s SeparableShape) P() int { return s.DWShape().P() }
func (s SeparableShape) Q() int { return s.DWShape().Q() }

// Validate checks both stages describe a realisable computation.
func (s SeparableShape) Validate() error {
	chk := s.DWShape()
	chk.K = 1 // depthwise: K is implied by C, not a free dimension
	if err := chk.Validate(); err != nil {
		return err
	}
	if s.K < 1 || s.K > conv.MaxDim {
		return fmt.Errorf("%w: separable K=%d outside [1, %d]", conv.ErrBadShape, s.K, conv.MaxDim)
	}
	return s.PWShape().Validate()
}

// SeparablePlan is the reusable fused execution state for a
// SeparableShape. Construct once with TryNewSeparablePlan, execute
// many times; a warm plan executing packed runs at zero heap
// allocations per call.
type SeparablePlan struct {
	Shape SeparableShape

	dw conv.Shape // depthwise stage (K normalised to C)
	pw conv.Shape // pointwise stage

	threads int
	dwPlan  *DepthwisePlan // depthwise stage: kernel family and epilogue (length C)
	pwPlan  *Plan          // full-shape pointwise plan: Tc partition, packed layout, store epilogue

	rowTile int              // depthwise output rows per grid cell
	tiles   int              // row tiles per image
	cells   int              // N·tiles
	ranges  []parallel.Range // cells per worker task
	midLen  int              // C·rowTile·Q: one worker's intermediate scratch
	preLen  int              // ⌈K/8⌉·C·8: packed pointwise filter length

	runs runPool
}

// sepMidBudget bounds the default per-worker intermediate scratch so
// a depthwise row tile and its pointwise consumption stay L2-resident
// (the whole point of the fusion).
const sepMidBudget = 256 << 10 // bytes

// TryNewSeparablePlan validates the shape and options and builds the
// fused plan. Epilogue routing: Options.DepthwiseEpilogue (length C)
// applies to the depthwise stage before the pointwise kernel consumes
// it; Options.FusedEpilogue (length K) applies at the pointwise store,
// exactly as it would on a standalone pointwise plan.
// Options.ForceTh overrides the depthwise row-tile height (0 solves
// it below).
func TryNewSeparablePlan(shape SeparableShape, opt Options) (*SeparablePlan, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if err := validateChannelEpilogue(opt.FusedEpilogue, shape.K, "pointwise-stage", false); err != nil {
		return nil, err
	}
	p := &SeparablePlan{
		Shape: shape,
		dw:    shape.DWShape(),
		pw:    shape.PWShape(),
	}
	var err error
	if p.dwPlan, err = TryNewDepthwisePlan(p.dw, Options{FusedEpilogue: opt.DepthwiseEpilogue}); err != nil {
		return nil, err
	}
	pwOpt := opt
	pwOpt.DepthwiseEpilogue = nil // the depthwise plan's epilogue
	if p.pwPlan, err = TryNewPlan(p.pw, pwOpt); err != nil {
		return nil, err
	}
	p.threads = opt.Threads
	if p.threads == 0 {
		p.threads = parallel.DefaultThreads()
	}

	pp, q := p.dw.P(), p.dw.Q()
	switch {
	case opt.ForceTh > 0:
		p.rowTile = min(opt.ForceTh, pp)
	default:
		th := pp
		// Cache bound: C channels × th rows × Q columns of f32.
		if byCache := sepMidBudget / (4 * shape.C * q); byCache < th {
			th = byCache
		}
		// Balance bound: aim for ~2 cells per worker.
		if needTiles := (2*p.threads + shape.N - 1) / shape.N; needTiles > 1 {
			if byBal := (pp + needTiles - 1) / needTiles; byBal < th {
				th = byBal
			}
		}
		p.rowTile = balancedRowTile(pp, max(th, 1), shape.N, p.threads)
	}
	p.tiles = (pp + p.rowTile - 1) / p.rowTile
	p.cells = shape.N * p.tiles
	p.ranges = parallel.Split(p.cells, p.threads)
	p.midLen = shape.C * p.rowTile * q
	p.preLen = (shape.K + 7) / 8 * shape.C * 8
	return p, nil
}

// balancedRowTile is the tallest row tile of at most th rows (the cache
// and balance bounds) whose N·⌈pp/tile⌉ cells are a multiple of the
// worker count, so that no worker idles a cell while another finishes
// its last: F29_30 (P = 112, th = 18) at two workers makes 7 cells, 4
// and 3, where a 14-row tile makes 8, 4 and 4. A count no shorter tile
// reaches within threads more tiles keeps th.
func balancedRowTile(pp, th, n, threads int) int {
	first := (pp + th - 1) / th
	for tiles := first; tiles <= min(pp, first+threads); tiles++ {
		t := (pp + tiles - 1) / tiles
		if n*((pp+t-1)/t)%threads == 0 {
			return t
		}
	}
	return th
}

// KernelNames reports what each stage's next execution runs.
func (p *SeparablePlan) KernelNames() (dw, pw string) {
	return p.dwPlan.KernelName(), p.pwPlan.KernelName()
}

// PointwisePlan returns the full-shape pointwise plan the fused path
// shares its channel-tile partition and packed-filter layout with. A
// PackedFilter built by it (or by TransformFilters) serves both the
// fused path and a standalone pointwise execution.
func (p *SeparablePlan) PointwisePlan() *Plan { return p.pwPlan }

// OutputBytes returns the final output tensor's byte size.
func (p *SeparablePlan) OutputBytes() int64 {
	return 4 * int64(p.Shape.N) * int64(p.Shape.K) * int64(p.Shape.P()) * int64(p.Shape.Q())
}

// ScratchBytes returns the per-worker fused scratch footprint — the
// row-tile intermediate that replaces the full N·C·P·Q tensor.
func (p *SeparablePlan) ScratchBytes() int64 {
	return 4 * int64(p.midLen+canaryWords)
}

// IntermediateBytes returns what the unfused composition would have
// allocated for the full depthwise output — the memory the fusion
// never materialises.
func (p *SeparablePlan) IntermediateBytes() int64 {
	return 4 * int64(p.Shape.N) * int64(p.Shape.C) * int64(p.Shape.P()) * int64(p.Shape.Q())
}

// PackedBytes returns the combined byte size of the two packed
// artifacts TransformFilters builds.
func (p *SeparablePlan) PackedBytes() int64 {
	return 4 * (int64(p.Shape.C)*int64(p.Shape.R)*int64(p.Shape.S) + int64(p.preLen))
}

// TransformFilters packs both stages' weights: the depthwise [C,R,S]
// filter into a CRC-stamped PackedDepthwiseFilter and the pointwise
// [K,C,1,1] filter into the standard PackedFilter (built by the
// embedded pointwise plan, so it is also valid for standalone
// pointwise execution and shares the serve layer's weight budget).
func (p *SeparablePlan) TransformFilters(dwFilter, pwFilter *tensor.Tensor) (*PackedDepthwiseFilter, *PackedFilter, error) {
	pdw, err := p.TransformDepthwiseFilter(dwFilter)
	if err != nil {
		return nil, nil, err
	}
	ppw, err := p.pwPlan.TransformFilter(pwFilter)
	if err != nil {
		return nil, nil, err
	}
	return pdw, ppw, nil
}

// TransformDepthwiseFilter packs only the depthwise stage's weights —
// for callers that source the pointwise artifact separately (a serving
// unit sharing one budget-charged PackedFilter between the fused path
// and a standalone pointwise unit builds it via PointwisePlan()).
func (p *SeparablePlan) TransformDepthwiseFilter(dwFilter *tensor.Tensor) (*PackedDepthwiseFilter, error) {
	return packDepthwise(p.dw, dwFilter)
}

// sepScratch is one worker's private state: the row-tile intermediate
// (a guarded allocation, gridRun.guard) and the pointwise worker's
// scratch, of which it uses the register files (the stage reads the
// intermediate in place and the packed filter, so it packs and
// transforms nothing).
type sepScratch struct {
	mid []float32
	ws  workerScratch
}

// sepRun is one execution's operands on top of the shared harness.
// packBuf lazily holds the per-run pointwise pack for the unpacked
// path and the oracle; it belongs to the run (not a shared pool) so a
// deadline-abandoned straggler can never race a recycled buffer.
type sepRun struct {
	gridRun
	p       *SeparablePlan
	scratch []*sepScratch // per grid slot

	inD, outD []float32
	dwFilterD []float32 // the raw filters (packed: the packs' sources)
	pwFilterD []float32
	dwf, pre  []float32 // the weights the grid reads
	packBuf   []float32

	kern depthwiseKernel // this execution's depthwise body (dwBody)
	b    bodies          // and pointwise bodies (Plan.body)
}

func (p *SeparablePlan) newRun() *sepRun {
	r := &sepRun{p: p}
	r.init(r, &p.runs, fmt.Sprintf("separable %+v", p.Shape), len(p.ranges), &r.dwf, &r.pre)
	for w := range p.ranges {
		r.scratch = append(r.scratch, &sepScratch{mid: r.guard(w, p.midLen), ws: workerScratch{stats: &Stats{}}})
	}
	return r
}

func (r *sepRun) cells(w int) {
	rg := r.p.ranges[w]
	for cell := rg.Lo; cell < rg.Hi; cell++ {
		if r.fs.Stopped() {
			return
		}
		r.cell(cell, r.scratch[w])
	}
}

func (r *sepRun) unload() {
	r.inD, r.outD, r.dwFilterD, r.pwFilterD = nil, nil, nil, nil
}

// oracle points the run at the depthwisePlaneRange loop, the pointwise
// plan's oracleBody and the raw weights (the pointwise filter packed
// into the run's own buffer).
func (r *sepRun) oracle() {
	r.kern, r.b = depthwisePlaneRange, r.p.pwPlan.oracleBody()
	r.dwf, r.pre = r.dwFilterD, r.packPointwise()
}

// packPointwise transforms the raw pointwise filter into the run's
// packBuf, [⌈K/8⌉][C][8] like a PackedFilter, and returns it.
func (r *sepRun) packPointwise() []float32 {
	pw := r.p.pw
	if r.packBuf == nil {
		r.packBuf = make([]float32, r.p.preLen)
	}
	transformFilter(r.pwFilterD, r.packBuf, pw.K, pw.C, 1, 1, 0, pw.K, 0, pw.C, 8)
	return r.packBuf
}

// cell computes one grid cell: depthwise rows [h0, h1) of image n for
// all C channels into the worker's intermediate (the depthwise plan's
// rows), then the fused pointwise stage over the same rows — the
// pointwise plan's worker, over all K and the cell's pixels
// [h0·Q, h1·Q) of the one-row grid, reading channel c's pixels at
// mid[c·rowTile·Q:]. r.pre is the [⌈K/8⌉][C][8] packed pointwise filter.
func (r *sepRun) cell(cell int, sc *sepScratch) {
	p := r.p
	s := p.dw
	q := s.Q()
	n := cell / p.tiles
	h0 := (cell % p.tiles) * p.rowTile
	h1 := min(h0+p.rowTile, s.P())
	chStride := p.rowTile * q
	for c := 0; c < s.C; c++ {
		p.dwPlan.rows(r.kern, r.inD, r.dwf, sc.mid[c*chStride:c*chStride+(h1-h0)*q], n*s.C+c, h0, h1)
	}
	t := runTask{kHi: p.pw.K, nr: parallel.Range{Lo: n, Hi: n + 1}, hr: parallel.Range{Hi: 1},
		wr: parallel.Range{Lo: h0 * q, Hi: h1 * q}, ws: &sc.ws}
	p.pwPlan.worker(inView{d: sc.mid, ch: chStride, first: h0 * q}, nil, r.pre, r.outD, nil, true, &t, &r.fs, &r.b)
}

// TryExecute runs the fused block: NCHW input, [C,R,S] depthwise
// filter, [K,C,1,1] pointwise filter, [N,K,P,Q] output written in
// place. A nil error always means a correct output.
func (p *SeparablePlan) TryExecute(in, dwFilter, pwFilter, out *tensor.Tensor) error {
	return p.exec(context.Background(), in, dwFilter, pwFilter, nil, nil, out)
}

// TryExecuteCtx is TryExecute bounded by ctx.
func (p *SeparablePlan) TryExecuteCtx(ctx context.Context, in, dwFilter, pwFilter, out *tensor.Tensor) error {
	return p.exec(ctx, in, dwFilter, pwFilter, nil, nil, out)
}

// TryExecutePacked runs the fused block from the two packed artifacts.
func (p *SeparablePlan) TryExecutePacked(in *tensor.Tensor, pdw *PackedDepthwiseFilter, ppw *PackedFilter, out *tensor.Tensor) error {
	return p.TryExecutePackedCtx(context.Background(), in, pdw, ppw, out)
}

// TryExecutePackedCtx is TryExecutePacked bounded by ctx.
func (p *SeparablePlan) TryExecutePackedCtx(ctx context.Context, in *tensor.Tensor, pdw *PackedDepthwiseFilter, ppw *PackedFilter, out *tensor.Tensor) error {
	if err := pdw.validateFor(p.dw); err != nil {
		return err
	}
	if err := ppw.validateFor(p.pwPlan); err != nil {
		return err
	}
	return p.exec(ctx, in, pdw.src, ppw.src, &pdw.packedCore, &ppw.packedCore, out)
}

// exec validates the operands, loads them into a pooled run and hands
// it to the ladder (govern). pdw/ppw are the packed handles, nil on the
// raw-filter path, where the pointwise filter is packed once into the
// run-owned buffer before dispatch.
func (p *SeparablePlan) exec(ctx context.Context, in, dwFilter, pwFilter *tensor.Tensor, pdw, ppw *packedCore, out *tensor.Tensor) error {
	s := p.dw
	if err := conv.ValidateTensor("separable input", in, s.N, s.C, s.H, s.W); err != nil {
		return err
	}
	if err := conv.ValidateTensor("depthwise filter", dwFilter, s.C, s.R, s.S); err != nil {
		return err
	}
	if err := conv.ValidateTensor("pointwise filter", pwFilter, p.pw.K, p.pw.C, 1, 1); err != nil {
		return err
	}
	if err := conv.ValidateTensor("separable output", out, s.N, p.pw.K, p.pw.P(), p.pw.Q()); err != nil {
		return err
	}
	var r *sepRun
	if g := p.runs.get(); g != nil {
		r = g.owner.(*sepRun)
	} else {
		r = p.newRun()
	}
	r.inD, r.outD, r.out = in.Data, out.Data, out
	r.dwFilterD, r.pwFilterD, r.dwf = dwFilter.Data, pwFilter.Data, dwFilter.Data
	if pdw != nil {
		r.packed[0].core, r.dwf = pdw, pdw.data
	}
	if ppw != nil {
		r.packed[1].core, r.pre = ppw, ppw.data
	} else {
		r.pre = r.packPointwise()
	}
	r.kern, r.b = dwBody(p.dwPlan.family), p.pwPlan.body()
	return govern(ctx, &r.gridRun)
}

// TrySeparableConv2D computes a full depthwise-separable block — the
// fused equivalent of TryDepthwiseConv2D (+ DepthwiseEpilogue) then
// TryPointwiseConv2DShape (+ FusedEpilogue) — allocating only the final
// [N,K,P,Q] output. For repeated execution construct a SeparablePlan
// once and reuse it (with packed filters for the zero-alloc path).
func TrySeparableConv2D(shape SeparableShape, in, dwFilter, pwFilter *tensor.Tensor, opt Options) (*tensor.Tensor, error) {
	return TrySeparableConv2DCtx(context.Background(), shape, in, dwFilter, pwFilter, opt)
}

// TrySeparableConv2DCtx is TrySeparableConv2D bounded by ctx, with the
// deadline semantics of TryConv2DCtx.
func TrySeparableConv2DCtx(ctx context.Context, shape SeparableShape, in, dwFilter, pwFilter *tensor.Tensor, opt Options) (*tensor.Tensor, error) {
	p, err := TryNewSeparablePlan(shape, opt)
	if err != nil {
		return nil, err
	}
	out := tensor.New(shape.N, shape.K, shape.P(), shape.Q())
	if err := p.TryExecuteCtx(ctx, in, dwFilter, pwFilter, out); err != nil {
		return nil, err
	}
	return out, nil
}
