package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"ndirect/internal/conv"
	"ndirect/internal/faultinject"
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
// pointwise micro-kernel while it is still cache-hot. The full
// intermediate tensor is never allocated — the per-worker footprint is
// C·rowTile·Q floats, bounded by the row-tile solve below.
//
// Bit-exactness: the fused pointwise stage reproduces the standard
// plan's per-element float32 operation sequence exactly — the same
// channel-tile partition (the pointwise plan's CT.Tc), the same
// register accumulation within a tile (the pointwise plan's own body,
// reading the intermediate in place), the same spill-and-add between tiles
// and the same store-side epilogue (Plan.store, called directly) — so
// TrySeparableConv2D is bit-identical to TryDepthwiseConv2D +
// TryPointwiseConv2DShape with matching options.

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

	opts     Options
	threads  int
	dwFamily *kernelFamily // nil: generic depthwise body
	dwEp     epilogue      // depthwise-stage epilogue (length C)
	pwPlan   *Plan         // full-shape pointwise plan: Tc partition, packed layout, store epilogue

	rowTile int // depthwise output rows per grid cell
	tiles   int // row tiles per image
	cells   int // N·tiles
	workers int
	midLen  int // C·rowTile·Q: one worker's intermediate scratch
	preLen  int // ⌈K/8⌉·C·8: packed pointwise filter length

	runMu   sync.Mutex
	runFree []*sepRun
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
// Options.ForceTh overrides the depthwise row-tile height — the
// `ndtune -depthwise` tuning knob.
func TryNewSeparablePlan(shape SeparableShape, opt Options) (*SeparablePlan, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if err := validateChannelEpilogue(opt.DepthwiseEpilogue, shape.C, "depthwise-stage", false); err != nil {
		return nil, err
	}
	if err := validateChannelEpilogue(opt.FusedEpilogue, shape.K, "pointwise-stage", false); err != nil {
		return nil, err
	}
	p := &SeparablePlan{
		Shape: shape,
		dw:    shape.DWShape(),
		pw:    shape.PWShape(),
		opts:  opt,
	}
	pwOpt := opt
	pwOpt.DepthwiseEpilogue = nil // consumed by the depthwise stage above
	pwPlan, err := TryNewPlan(p.pw, pwOpt)
	if err != nil {
		return nil, err
	}
	if pwPlan.RT.Vw != maxVw || pwPlan.RT.Vk != 8 {
		return nil, fmt.Errorf("%w: fused separable requires the 12×8 register file; pointwise solved/forced to %d×%d",
			ErrBadOptions, pwPlan.RT.Vw, pwPlan.RT.Vk)
	}
	p.pwPlan = pwPlan
	p.dwEp = normalizeEpilogue(opt.DepthwiseEpilogue)
	if !opt.ForceGenericKernel {
		p.dwFamily = familyFor(p.dw, true)
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
		p.rowTile = max(th, 1)
	}
	p.tiles = (pp + p.rowTile - 1) / p.rowTile
	p.cells = shape.N * p.tiles
	p.workers = min(p.threads, p.cells)
	if p.workers < 1 {
		p.workers = 1
	}
	p.midLen = shape.C * p.rowTile * q
	p.preLen = (shape.K + 7) / 8 * shape.C * 8
	return p, nil
}

// KernelNames reports what each stage's next execution runs.
func (p *SeparablePlan) KernelNames() (dw, pw string) {
	return dwKernelName(p.dwFamily), p.pwPlan.KernelName()
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

// RowTile returns the depthwise row-tile height the plan solved (or
// was forced to) — surfaced so `ndtune -depthwise` can report it.
func (p *SeparablePlan) RowTile() int { return p.rowTile }

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
	s := p.dw
	if err := conv.ValidateTensor("depthwise filter", dwFilter, s.C, s.R, s.S); err != nil {
		return nil, err
	}
	data := append([]float32(nil), dwFilter.Data...)
	return &PackedDepthwiseFilter{
		c: s.C, r: s.R, s: s.S,
		src:  dwFilter,
		data: data,
		crc:  crcFloats(data),
	}, nil
}

// compatibleDW reports whether the packed depthwise filter matches the
// plan's depthwise geometry.
func (p *SeparablePlan) validateDW(pdw *PackedDepthwiseFilter) error {
	if pdw == nil {
		return fmt.Errorf("%w: nil packed depthwise filter", ErrBadOptions)
	}
	if pdw.Released() {
		return fmt.Errorf("%w: packed depthwise filter C%d R%d S%d", ErrWeightsReleased, pdw.c, pdw.r, pdw.s)
	}
	s := p.dw
	if pdw.c != s.C || pdw.r != s.R || pdw.s != s.S {
		return fmt.Errorf("%w: packed depthwise filter C%d R%d S%d does not match plan %v",
			ErrBadOptions, pdw.c, pdw.r, pdw.s, s)
	}
	return nil
}

// sepScratch is one worker's private state: the guarded row-tile
// intermediate and the pointwise register file.
type sepScratch struct {
	midFull []float32 // mid + canary guard words
	mid     []float32
	acc     accFile8
}

func (p *SeparablePlan) newScratch() *sepScratch {
	ws := &sepScratch{midFull: newGuarded(p.midLen)}
	ws.mid = ws.midFull[:p.midLen:p.midLen]
	return ws
}

type sepTask struct {
	r      *sepRun
	w      int
	lo, hi int // cell range
	ws     *sepScratch
	fn     func()
	body   func()
}

// sepRun is one execution's pooled mutable state (planRun's twin).
// packBuf lazily holds the per-run pointwise pack for the unpacked
// path; it belongs to the run (not a shared pool) so a
// deadline-abandoned straggler can never race a recycled buffer.
type sepRun struct {
	p            *SeparablePlan
	in, dwf, pre []float32
	out          []float32
	packBuf      []float32

	fs    parallel.FaultSink
	g     parallel.Group
	tasks []*sepTask

	abandonFn func(error)
	drainFn   func()
}

func (p *SeparablePlan) newRun() *sepRun {
	r := &sepRun{p: p}
	chunk := (p.cells + p.workers - 1) / p.workers
	for w := 0; w < p.workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, p.cells)
		if lo >= hi {
			break
		}
		t := &sepTask{r: r, w: w, lo: lo, hi: hi, ws: p.newScratch()}
		t.body = func() {
			faultinject.Fire(faultinject.WorkerPanic, t.w)
			faultinject.Stall(faultinject.WorkerStall, t.w)
			if faultinject.Should(faultinject.ScratchOverrun, t.w) {
				// Clobber the first guard word past the intermediate: the
				// canary check at join must quarantine this run state.
				t.ws.midFull[len(t.ws.mid)] = 1
			}
			for cell := t.lo; cell < t.hi; cell++ {
				if t.r.fs.Stopped() {
					return
				}
				p.cell(t.r.in, t.r.dwf, t.r.pre, t.r.out, cell, t.ws)
			}
		}
		t.fn = func() { r.fs.Record(parallel.Protect(t.body)) }
		r.tasks = append(r.tasks, t)
	}
	r.abandonFn = func(err error) { r.fs.Record(err) }
	r.drainFn = func() { p.releaseRun(r) }
	return r
}

func (p *SeparablePlan) getRun() *sepRun {
	p.runMu.Lock()
	if n := len(p.runFree); n > 0 {
		r := p.runFree[n-1]
		p.runFree[n-1] = nil
		p.runFree = p.runFree[:n-1]
		p.runMu.Unlock()
		return r
	}
	p.runMu.Unlock()
	return p.newRun()
}

func (p *SeparablePlan) releaseRun(r *sepRun) {
	r.in, r.dwf, r.pre, r.out = nil, nil, nil, nil
	if r.scratchTripped() >= 0 {
		scratchCanaryTrips.Add(1)
		return // quarantined: never parked
	}
	p.runMu.Lock()
	if len(p.runFree) < maxFreeRuns {
		p.runFree = append(p.runFree, r)
	}
	p.runMu.Unlock()
}

func (r *sepRun) scratchTripped() int {
	for _, t := range r.tasks {
		if !canariesIntact(t.ws.midFull, len(t.ws.mid)) {
			return t.w
		}
	}
	return -1
}

// dwKernel resolves the depthwise-stage body; cell calls it per grid
// cell, so a quarantine lands mid-execution too.
func (p *SeparablePlan) dwKernel() depthwiseKernel { return dwBody(p.dwFamily) }

// cell computes one grid cell: depthwise rows [h0, h1) of image n for
// all C channels into the worker's intermediate, the depthwise-stage
// epilogue sweep, then the fused pointwise stage over the same rows.
func (p *SeparablePlan) cell(in, dwf, pre, out []float32, cell int, ws *sepScratch) {
	s := p.dw
	pp, q := s.P(), s.Q()
	n := cell / p.tiles
	h0 := (cell % p.tiles) * p.rowTile
	h1 := min(h0+p.rowTile, pp)
	th := h1 - h0
	kern := p.dwKernel()
	chStride := p.rowTile * q
	for c := 0; c < s.C; c++ {
		inPlane := in[(n*s.C+c)*s.H*s.W : (n*s.C+c+1)*s.H*s.W]
		fch := dwf[c*s.R*s.S : (c+1)*s.R*s.S]
		dst := ws.mid[c*chStride : c*chStride+th*q]
		kern(s, inPlane, fch, dst, h0, h1)
		if !p.dwEp.none {
			applyChannelEpilogue(dst, &p.dwEp, c)
		}
	}
	p.pwStage(pre, out, n, h0, h1, ws)
}

// pwStage runs the pointwise plan's micro-kernel body and tile store
// (Plan.body, resolved per cell like the depthwise stage's) over the row
// tile just produced in ws.mid, in place: channel cv's row is
// ws.mid[cv*chStride:],
// so the body's row pitch is one channel plane instead of a packed
// buffer's wIn. Loop order ct → kb → oh → qt with the pointwise plan's
// own Tc: per output element the channel-tile sequence, the in-tile FMA
// chain, the between-tile spill-and-add and the final epilogue are
// exactly the standard plan's — the bit-identity contract. pre is the
// [⌈K/8⌉][C][8] packed pointwise filter.
func (p *SeparablePlan) pwStage(pre, out []float32, n, h0, h1 int, ws *sepScratch) {
	pw := p.pwPlan
	C, K, q := p.pw.C, p.pw.K, p.pw.Q()
	tc := pw.CT.Tc
	kvBlocks := (K + 7) / 8
	chStride := p.rowTile * q
	acc := &ws.acc
	kern, vst := pw.body()
	for ct := 0; ct < C; ct += tc {
		tcEff := min(tc, C-ct)
		firstC := ct == 0
		lastC := ct+tcEff >= C
		for kb := 0; kb < kvBlocks; kb++ {
			tfBlock := pre[(kb*C+ct)*8:]
			for oh := h0; oh < h1; oh++ {
				rowBase := ct*chStride + (oh-h0)*q
				for qt0 := 0; qt0 < q; qt0 += maxVw {
					vwEff := min(maxVw, q-qt0)
					*acc = accFile8{}
					kern(acc, ws.mid[rowBase+qt0:], tfBlock, tcEff, vwEff, chStride)
					pw.store(vst, acc, out, nil, true, n, kb*8, K, oh, qt0, vwEff, firstC, lastC)
				}
			}
		}
	}
}

// run executes the cell grid with Plan.run's dispatch and join
// semantics. pre may be nil (unpacked path): the pointwise filter
// pwfRaw is then packed once into the run-owned buffer before
// dispatch.
func (p *SeparablePlan) run(ctx context.Context, in, dwf, pre, pwfRaw, out []float32) error {
	r := p.getRun()
	if len(r.tasks) == 0 {
		p.releaseRun(r)
		return nil
	}
	if pre == nil {
		if r.packBuf == nil {
			r.packBuf = make([]float32, p.preLen)
		}
		transformFilter(pwfRaw, r.packBuf, p.pw.K, p.pw.C, 1, 1, 0, p.pw.K, 0, p.pw.C, 8)
		pre = r.packBuf
	}
	r.in, r.dwf, r.pre, r.out = in, dwf, pre, out
	r.fs.Reset()

	if ctx == nil || ctx.Done() == nil {
		if len(r.tasks) > 1 {
			pool := parallel.DefaultPool()
			for _, t := range r.tasks[1:] {
				r.g.GoVia(pool, t.fn)
			}
			r.tasks[0].fn()
			r.g.Wait()
		} else {
			r.tasks[0].fn()
		}
		err := r.fs.Err()
		if err == nil {
			if w := r.scratchTripped(); w >= 0 {
				err = fmt.Errorf("%w: scratch canary tripped on grid slot %d", ErrIntegrity, w)
			}
		}
		p.releaseRun(r)
		return err
	}

	pool := parallel.DefaultPool()
	for _, t := range r.tasks {
		r.g.GoVia(pool, t.fn)
	}
	if err := r.g.WaitCtx(ctx, r.abandonFn, r.drainFn); err != nil {
		return fmt.Errorf("%w: %w", conv.ErrDeadline, err)
	}
	err := r.fs.Err()
	if err == nil {
		if w := r.scratchTripped(); w >= 0 {
			err = fmt.Errorf("%w: scratch canary tripped on grid slot %d", ErrIntegrity, w)
		}
	}
	p.releaseRun(r)
	return err
}

// TryExecute runs the fused block: NCHW input, [C,R,S] depthwise
// filter, [K,C,1,1] pointwise filter, [N,K,P,Q] output written in
// place. A nil error always means a correct output.
func (p *SeparablePlan) TryExecute(in, dwFilter, pwFilter, out *tensor.Tensor) error {
	return p.TryExecuteCtx(context.Background(), in, dwFilter, pwFilter, out)
}

// TryExecuteCtx is TryExecute bounded by ctx.
func (p *SeparablePlan) TryExecuteCtx(ctx context.Context, in, dwFilter, pwFilter, out *tensor.Tensor) error {
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
	return p.execChecked(ctx, in, dwFilter, pwFilter, nil, nil, out)
}

// TryExecutePacked runs the fused block from the two packed artifacts.
func (p *SeparablePlan) TryExecutePacked(in *tensor.Tensor, pdw *PackedDepthwiseFilter, ppw *PackedFilter, out *tensor.Tensor) error {
	return p.TryExecutePackedCtx(context.Background(), in, pdw, ppw, out)
}

// TryExecutePackedCtx is TryExecutePacked bounded by ctx.
func (p *SeparablePlan) TryExecutePackedCtx(ctx context.Context, in *tensor.Tensor, pdw *PackedDepthwiseFilter, ppw *PackedFilter, out *tensor.Tensor) error {
	if err := p.validateDW(pdw); err != nil {
		return err
	}
	if err := ppw.validateFor(p.pwPlan); err != nil {
		return err
	}
	s := p.dw
	if err := conv.ValidateTensor("separable input", in, s.N, s.C, s.H, s.W); err != nil {
		return err
	}
	if err := conv.ValidateTensor("separable output", out, s.N, p.pw.K, p.pw.P(), p.pw.Q()); err != nil {
		return err
	}
	return p.execChecked(ctx, in, pdw.src, ppw.src, pdw, ppw, out)
}

// execChecked is the fused path's fault ladder, mirroring
// Plan.execChecked: injected weight corruption against run-private
// copies, sampled CRC verification of both packed artifacts (typed
// ErrIntegrity), non-finite scan, sequential bit-identical recompute
// on worker faults, budget-bounded recompute on deadlines.
func (p *SeparablePlan) execChecked(ctx context.Context, in, dwFilter, pwFilter *tensor.Tensor,
	pdw *PackedDepthwiseFilter, ppw *PackedFilter, out *tensor.Tensor) error {
	if ctx == nil {
		ctx = context.Background()
	}
	cancellable := ctx.Done() != nil
	if cancellable && ctx.Err() != nil {
		if p.opts.FallbackBudget <= 0 {
			return deadlineErr(ctx)
		}
		return p.deadlineFallback(ctx, in, dwFilter, pwFilter, out, deadlineErr(ctx))
	}
	injecting := faultinject.Enabled()
	dwData := dwFilter.Data
	var pre []float32
	if pdw != nil {
		dwData = pdw.data
		if pdw.shouldVerify() {
			if verr := pdw.verifyConsumed(dwData); verr != nil {
				return verr
			}
		}
	}
	if ppw != nil {
		pre = ppw.data
		forceVerify := false
		if injecting {
			if idx, ok := faultinject.Take(faultinject.WeightBitflip); ok && len(pre) > 0 {
				if idx < 0 || idx >= len(pre) {
					idx = 0
				}
				corrupted := append([]float32(nil), pre...)
				corrupted[idx] = math.Float32frombits(math.Float32bits(corrupted[idx]) ^ 0x00400000)
				pre = corrupted
				forceVerify = true
			}
		}
		if forceVerify || ppw.shouldVerify() {
			if verr := ppw.verifyConsumed(pre); verr != nil {
				return verr
			}
		}
		if injecting {
			if idx, ok := faultinject.Take(faultinject.PackedCorrupt); ok && len(pre) > 0 {
				if idx < 0 || idx >= len(pre) {
					idx = 0
				}
				corrupted := append([]float32(nil), pre...)
				corrupted[idx] = float32(math.NaN())
				pre = corrupted
			}
		}
	}
	err := p.run(ctx, in.Data, dwData, pre, pwFilter.Data, out.Data)
	if err == nil && injecting {
		if idx, ok := faultinject.Take(faultinject.NaNPoison); ok && len(out.Data) > 0 {
			if idx < 0 || idx >= len(out.Data) {
				idx = 0
			}
			out.Data[idx] = float32(math.NaN())
		}
	}
	if err == nil && (injecting || p.opts.CheckNumerics) {
		if i, bad := scanNonFinite(out.Data); bad {
			err = fmt.Errorf("%w: non-finite separable output at element %d", ErrExecFault, i)
		}
	}
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrIntegrity) {
		return err
	}
	if errors.Is(err, conv.ErrDeadline) {
		if p.opts.FallbackBudget <= 0 {
			return err
		}
		return p.deadlineFallback(ctx, in, dwFilter, pwFilter, out, err)
	}
	Logf("core: separable path faulted on %+v; recomputing sequentially: %v", p.Shape, err)
	p.fallbackSequential(nil, in.Data, dwFilter.Data, pwFilter.Data, out.Data)
	if p.opts.CheckNumerics {
		if i, bad := scanNonFinite(out.Data); bad {
			return fmt.Errorf("%w: non-finite separable output at element %d after fallback", ErrExecFault, i)
		}
	}
	return nil
}

// fallbackSequential replays the fused computation cell by cell on
// the caller's goroutine with fresh scratch and pristine weights —
// bit-identical to a clean parallel run (same kernels, same tile
// partition) and, like the fast path, never materialising the full
// intermediate. A non-nil ctx makes it poll per cell and return false
// on expiry.
func (p *SeparablePlan) fallbackSequential(ctx context.Context, in, dwf, pwfRaw, out []float32) bool {
	pre := make([]float32, p.preLen)
	transformFilter(pwfRaw, pre, p.pw.K, p.pw.C, 1, 1, 0, p.pw.K, 0, p.pw.C, 8)
	ws := p.newScratch()
	for cell := 0; cell < p.cells; cell++ {
		if ctx != nil && ctx.Err() != nil {
			return false
		}
		p.cell(in, dwf, pre, out, cell, ws)
	}
	return true
}

// deadlineFallback spends Options.FallbackBudget recomputing
// sequentially after a blown deadline, publishing through a fresh
// backing array (abandoned stragglers may still store into the old
// one).
func (p *SeparablePlan) deadlineFallback(ctx context.Context, in, dwFilter, pwFilter *tensor.Tensor, out *tensor.Tensor, origErr error) error {
	fctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), p.opts.FallbackBudget)
	defer cancel()
	Logf("core: separable path abandoned on %+v; recomputing sequentially within %v: %v",
		p.Shape, p.opts.FallbackBudget, origErr)
	fresh := make([]float32, len(out.Data))
	if !p.fallbackSequential(fctx, in.Data, dwFilter.Data, pwFilter.Data, fresh) {
		return origErr
	}
	out.Data = fresh
	if p.opts.CheckNumerics {
		if i, bad := scanNonFinite(out.Data); bad {
			return fmt.Errorf("%w: non-finite separable output at element %d after fallback", ErrExecFault, i)
		}
	}
	return nil
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
