package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"ndirect/internal/conv"
	"ndirect/internal/faultinject"
	"ndirect/internal/parallel"
	"ndirect/internal/tensor"
)

// DepthwisePlan is the reusable execution state for a depthwise
// convolution (DESIGN.md §13): the depthwise twin of Plan. It fixes
// the shape, kernel family (dispatch.go), fused epilogue and row-tile
// decomposition at construction, and pools per-run state so a warm plan
// executes with zero heap allocations — the same steady-state contract
// the standard packed path holds.
//
// The iteration space is the N·C independent (n, c) planes, each cut
// into row tiles of rowTile output rows; grid cells are distributed
// contiguously over the worker tasks. Depthwise needs no packing
// scratch (each output channel reads one input plane directly), so a
// worker's only state is its task range.
type DepthwisePlan struct {
	Shape conv.Shape // K normalised to C (depthwise: one output per input channel)

	opts    Options
	threads int
	family  *kernelFamily // nil: generic depthwisePlaneRange body
	ep      epilogue      // per-channel (length C) fused epilogue

	rowTile int // output rows per grid cell
	tiles   int // row tiles per plane
	cells   int // N·C·tiles
	workers int

	runMu   sync.Mutex
	runFree []*dwRun
	runSeq  uint64 // guarded by runMu; diagnostic only
}

// dwTask is one worker's prebuilt dispatch unit: a contiguous range of
// grid cells and the two closures the drivers reuse (fn = recovery
// shell, body = fault-injection points + the cell loop). Closures are
// built once per run state, so steady-state dispatch allocates no
// funcvals.
type dwTask struct {
	r      *dwRun
	w      int // task slot, also the faultinject worker index
	lo, hi int // cell range
	fn     func()
	body   func()
}

// dwRun is one execution's mutable state, pooled on the plan exactly
// like planRun: operand slices are cleared on release so a parked run
// never pins a caller's tensors.
type dwRun struct {
	p               *DepthwisePlan
	in, filter, out []float32
	kern            depthwiseKernel // this execution's body (dwBody)

	fs    parallel.FaultSink
	g     parallel.Group
	tasks []*dwTask

	abandonFn func(error)
	drainFn   func()
}

// TryNewDepthwisePlan validates the geometry and options and builds a
// reusable depthwise plan. The Shape's K is ignored (output channels
// equal input channels); Options.FusedEpilogue applies per output
// channel, so its slices must have length C, not K.
// Options.ForceTh overrides the row-tile height (the `ndtune`
// depthwise tuning knob); Options.ForceGenericKernel pins the plan to
// the oracle body.
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

	p := &DepthwisePlan{Shape: s, opts: opt, ep: normalizeEpilogue(opt.FusedEpilogue)}
	p.threads = opt.Threads
	if p.threads == 0 {
		p.threads = parallel.DefaultThreads()
	}
	if !opt.ForceGenericKernel {
		p.family = familyFor(s, true)
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
	p.workers = min(p.threads, p.cells)
	if p.workers < 1 {
		p.workers = 1
	}
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

// OutputBytes returns the byte size of the plan's output tensor (the
// serve-layer admission ladder's per-request footprint input).
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

// kernel resolves the body for one execution.
func (p *DepthwisePlan) kernel() depthwiseKernel { return dwBody(p.family) }

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
			v = v*scale + shift
		}
		if relu && v < 0 {
			v = 0
		}
		dst[i] = v
	}
}

// newRun builds a run state: one task per worker, cells distributed
// contiguously (parallel.Split's policy), closures prebuilt.
func (p *DepthwisePlan) newRun() *dwRun {
	r := &dwRun{p: p}
	chunk := (p.cells + p.workers - 1) / p.workers
	for w := 0; w < p.workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, p.cells)
		if lo >= hi {
			break
		}
		t := &dwTask{r: r, w: w, lo: lo, hi: hi}
		t.body = func() {
			faultinject.Fire(faultinject.WorkerPanic, t.w)
			faultinject.Stall(faultinject.WorkerStall, t.w)
			for cell := t.lo; cell < t.hi; cell++ {
				if t.r.fs.Stopped() {
					return
				}
				p.cell(t.r.in, t.r.filter, t.r.out, cell, t.r.kern)
			}
		}
		t.fn = func() { r.fs.Record(parallel.Protect(t.body)) }
		r.tasks = append(r.tasks, t)
	}
	r.abandonFn = func(err error) { r.fs.Record(err) }
	r.drainFn = func() { p.releaseRun(r) }
	return r
}

func (p *DepthwisePlan) getRun() *dwRun {
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

func (p *DepthwisePlan) releaseRun(r *dwRun) {
	r.in, r.filter, r.out = nil, nil, nil
	p.runMu.Lock()
	if len(p.runFree) < maxFreeRuns {
		p.runFree = append(p.runFree, r)
	}
	p.runMu.Unlock()
}

// run executes the plane/row-tile grid on the persistent worker pool,
// with Plan.run's join semantics: non-cancellable callers execute the
// first task inline and join unconditionally; cancellable callers
// dispatch every task and bound the join by ctx (abandoned stragglers
// are accounted in parallel.LeakedWorkers and the run state recycles
// only when they terminate).
func (p *DepthwisePlan) run(ctx context.Context, in, filter, out []float32) error {
	r := p.getRun()
	if len(r.tasks) == 0 {
		p.releaseRun(r)
		return nil
	}
	r.in, r.filter, r.out = in, filter, out
	r.kern = p.kernel()
	r.fs.Reset()
	p.runMu.Lock()
	p.runSeq++
	p.runMu.Unlock()

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
	p.releaseRun(r)
	return err
}

// TryExecute runs the depthwise plan on an NCHW input with a [C,R,S]
// filter, writing the [N,C,P,Q] output in place. A nil error always
// means a correct output: execution faults are recomputed on the
// oracle path.
func (p *DepthwisePlan) TryExecute(in, filter, out *tensor.Tensor) error {
	return p.TryExecuteCtx(context.Background(), in, filter, out)
}

// TryExecuteCtx is TryExecute bounded by ctx, with Plan.TryExecuteCtx
// deadline semantics (abandon + conv.ErrDeadline, or a
// FallbackBudget-bounded oracle recompute published through a fresh
// out.Data array).
func (p *DepthwisePlan) TryExecuteCtx(ctx context.Context, in, filter, out *tensor.Tensor) error {
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
	return p.execChecked(ctx, in, filter, nil, out)
}

// TryExecutePacked runs the plan with a pre-packed depthwise filter in
// place of the raw [C,R,S] tensor; results are bit-identical to
// TryExecute with the packed filter's source weights.
func (p *DepthwisePlan) TryExecutePacked(in *tensor.Tensor, pf *PackedDepthwiseFilter, out *tensor.Tensor) error {
	return p.TryExecutePackedCtx(context.Background(), in, pf, out)
}

// TryExecutePackedCtx is TryExecutePacked bounded by ctx.
func (p *DepthwisePlan) TryExecutePackedCtx(ctx context.Context, in *tensor.Tensor, pf *PackedDepthwiseFilter, out *tensor.Tensor) error {
	if err := pf.validateFor(p); err != nil {
		return err
	}
	s := p.Shape
	if err := conv.ValidateTensor("depthwise input", in, s.N, s.C, s.H, s.W); err != nil {
		return err
	}
	if err := conv.ValidateTensor("depthwise output", out, s.N, s.C, s.P(), s.Q()); err != nil {
		return err
	}
	return p.execChecked(ctx, in, pf.src, pf, out)
}

// execChecked is the depthwise twin of Plan.execChecked: the same
// fault ladder (fast-fail expired contexts, injected weight
// corruption against a run-private copy, sampled packed verification
// returned typed, non-finite scan under injection or CheckNumerics,
// oracle recompute on worker faults, budget-bounded recompute on
// deadlines).
func (p *DepthwisePlan) execChecked(ctx context.Context, in, filter *tensor.Tensor, pf *PackedDepthwiseFilter, out *tensor.Tensor) error {
	if ctx == nil {
		ctx = context.Background()
	}
	cancellable := ctx.Done() != nil
	if cancellable && ctx.Err() != nil {
		if p.opts.FallbackBudget <= 0 {
			return deadlineErr(ctx)
		}
		return p.deadlineFallback(ctx, in, filter, out, deadlineErr(ctx))
	}
	injecting := faultinject.Enabled()
	fdata := filter.Data
	if pf != nil {
		fdata = pf.data
		forceVerify := false
		if injecting {
			if idx, ok := faultinject.Take(faultinject.WeightBitflip); ok && len(fdata) > 0 {
				if idx < 0 || idx >= len(fdata) {
					idx = 0
				}
				corrupted := append([]float32(nil), fdata...)
				corrupted[idx] = math.Float32frombits(math.Float32bits(corrupted[idx]) ^ 0x00400000)
				fdata = corrupted
				forceVerify = true
			}
		}
		if forceVerify || pf.shouldVerify() {
			if verr := pf.verifyConsumed(fdata); verr != nil {
				return verr
			}
		}
		if injecting {
			if idx, ok := faultinject.Take(faultinject.PackedCorrupt); ok && len(fdata) > 0 {
				if idx < 0 || idx >= len(fdata) {
					idx = 0
				}
				corrupted := append([]float32(nil), fdata...)
				corrupted[idx] = float32(math.NaN())
				fdata = corrupted
			}
		}
	}
	err := p.run(ctx, in.Data, fdata, out.Data)
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
			err = fmt.Errorf("%w: non-finite depthwise output at element %d", ErrExecFault, i)
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
		return p.deadlineFallback(ctx, in, filter, out, err)
	}
	Logf("core: depthwise path faulted on %v; recomputing on oracle path: %v", p.Shape, err)
	p.fallbackOracle(in.Data, filter.Data, out.Data)
	if p.opts.CheckNumerics {
		if i, bad := scanNonFinite(out.Data); bad {
			return fmt.Errorf("%w: non-finite depthwise output at element %d after oracle fallback", ErrExecFault, i)
		}
	}
	return nil
}

// fallbackOracle recomputes the full result sequentially on the
// generic oracle body plus the epilogue sweep, in place — safe because
// the fault path joins every worker first.
func (p *DepthwisePlan) fallbackOracle(in, filter, out []float32) {
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

// deadlineFallback spends Options.FallbackBudget recomputing on the
// oracle path after a blown deadline, publishing through a fresh
// backing array because the abandoned grid may still store into the
// old one (Plan.deadlineFallback's contract).
func (p *DepthwisePlan) deadlineFallback(ctx context.Context, in, filter *tensor.Tensor, out *tensor.Tensor, origErr error) error {
	fctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), p.opts.FallbackBudget)
	defer cancel()
	Logf("core: depthwise path abandoned on %v; recomputing on oracle path within %v: %v",
		p.Shape, p.opts.FallbackBudget, origErr)
	s := p.Shape
	pp, q := s.P(), s.Q()
	fresh := make([]float32, len(out.Data))
	for plane := 0; plane < s.N*s.C; plane++ {
		if fctx.Err() != nil {
			return origErr
		}
		c := plane % s.C
		inPlane := in.Data[plane*s.H*s.W : (plane+1)*s.H*s.W]
		fch := filter.Data[c*s.R*s.S : (c+1)*s.R*s.S]
		dst := fresh[plane*pp*q : (plane+1)*pp*q]
		depthwisePlaneRange(s, inPlane, fch, dst, 0, pp)
		if !p.ep.none {
			applyChannelEpilogue(dst, &p.ep, c)
		}
	}
	out.Data = fresh
	if p.opts.CheckNumerics {
		if i, bad := scanNonFinite(out.Data); bad {
			return fmt.Errorf("%w: non-finite depthwise output at element %d after oracle fallback", ErrExecFault, i)
		}
	}
	return nil
}

// PackedDepthwiseFilter is the persistent packed form of a depthwise
// [C,R,S] filter: a private copy of the weights stamped with a
// CRC32-C at pack time (DESIGN.md §12 — the depthwise layout is
// already the per-channel contiguous form the kernels consume, so
// packing buys immutability, residency accounting and checksum
// protection rather than a reordering). Verification runs on the same
// sampled schedule as PackedFilter (SetPackedVerifyInterval), and a
// mismatch is typed ErrIntegrity: the owner must re-pack from the
// retained source.
type PackedDepthwiseFilter struct {
	c, r, s   int
	src       *tensor.Tensor
	data      []float32
	released  atomic.Bool
	crc       uint32
	verifySeq atomic.Uint64
}

// TransformFilter packs the [C,R,S] depthwise filter for the plan,
// stamping its CRC32-C. The source tensor is retained (Source) so
// fault fallbacks and re-packs read pristine weights.
func (p *DepthwisePlan) TransformFilter(filter *tensor.Tensor) (*PackedDepthwiseFilter, error) {
	s := p.Shape
	if err := conv.ValidateTensor("depthwise filter", filter, s.C, s.R, s.S); err != nil {
		return nil, err
	}
	data := append([]float32(nil), filter.Data...)
	return &PackedDepthwiseFilter{
		c: s.C, r: s.R, s: s.S,
		src:  filter,
		data: data,
		crc:  crcFloats(data),
	}, nil
}

// Checksum returns the pack-time CRC32-C.
func (pf *PackedDepthwiseFilter) Checksum() uint32 { return pf.crc }

// Verify re-checks the packed weights against the pack-time CRC32-C.
func (pf *PackedDepthwiseFilter) Verify() error { return pf.verifyConsumed(pf.data) }

func (pf *PackedDepthwiseFilter) verifyConsumed(data []float32) error {
	packedVerifies.Add(1)
	if crcFloats(data) != pf.crc {
		packedVerifyFailures.Add(1)
		return fmt.Errorf("%w: packed depthwise filter C%d R%d S%d fails its pack-time CRC32-C; re-pack from the source",
			ErrIntegrity, pf.c, pf.r, pf.s)
	}
	return nil
}

func (pf *PackedDepthwiseFilter) shouldVerify() bool {
	iv := packedVerifyInterval.Load()
	if iv <= 0 {
		return false
	}
	return pf.verifySeq.Add(1)%uint64(iv) == 0
}

// Bytes returns the packed allocation size (weight-budget accounting).
func (pf *PackedDepthwiseFilter) Bytes() int64 { return 4 * int64(len(pf.data)) }

// Source returns the retained [C,R,S] source tensor.
func (pf *PackedDepthwiseFilter) Source() *tensor.Tensor { return pf.src }

// CompatibleWith reports whether the packed geometry matches the plan.
func (pf *PackedDepthwiseFilter) CompatibleWith(p *DepthwisePlan) bool {
	s := p.Shape
	return pf.c == s.C && pf.r == s.R && pf.s == s.S
}

// Release marks the packed weights evicted, exactly once. In-flight
// runs holding the data finish safely (the array is immutable); new
// executions fail typed with ErrWeightsReleased.
func (pf *PackedDepthwiseFilter) Release() bool {
	return !pf.released.Swap(true)
}

// Released reports whether Release has been called.
func (pf *PackedDepthwiseFilter) Released() bool { return pf.released.Load() }

func (pf *PackedDepthwiseFilter) validateFor(p *DepthwisePlan) error {
	if pf == nil {
		return fmt.Errorf("%w: nil packed depthwise filter", ErrBadOptions)
	}
	if pf.Released() {
		return fmt.Errorf("%w: packed depthwise filter C%d R%d S%d", ErrWeightsReleased, pf.c, pf.r, pf.s)
	}
	if !pf.CompatibleWith(p) {
		return fmt.Errorf("%w: packed depthwise filter C%d R%d S%d does not match plan %v",
			ErrBadOptions, pf.c, pf.r, pf.s, p.Shape)
	}
	return nil
}

// newDepthwiseProbe builds the golden probe for a depthwise family
// (VerifyKernelFamily): small, padded, with a ragged Q tail (11 = 2·4+3
// at stride 1) so the vector interior, the guarded halo and the scalar
// tail all run, compared against the depthwisePlaneRange oracle (the
// pre-plan scalar loop).
func newDepthwiseProbe(f *kernelFamily) (*familyProbe, error) {
	s := conv.Shape{N: 1, C: 5, H: 11, W: 11, K: 5, R: f.r, S: f.s, Str: f.str, Pad: 1}
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
	p.fallbackOracle(in.Data, filter.Data, kp.want.Data)
	kp.exec = func() error { return p.TryExecute(in, filter, kp.out) }
	return kp, nil
}
