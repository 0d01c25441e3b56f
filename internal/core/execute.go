package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"ndirect/internal/conv"
	"ndirect/internal/faultinject"
	"ndirect/internal/parallel"
	"ndirect/internal/simd"
	"ndirect/internal/tensor"
)

// TryExecute runs the plan on an NCHW input and KCRS filter, writing
// the NKPQ output in place (out is fully overwritten; it need not be
// zeroed). Validation failures return errors wrapping
// conv.ErrDimMismatch; execution faults (a recovered worker panic, an
// injected numerical corruption) are logged via Logf and the result is
// recomputed on the naive reference path — a nil error always means a
// correct output.
func (p *Plan) TryExecute(in, filter, out *tensor.Tensor) error {
	return p.TryExecuteCtx(context.Background(), in, filter, out)
}

// TryExecuteCtx is TryExecute bounded by ctx. When the context expires
// or is canceled before the worker grid finishes, the driver raises
// the grid's cooperative stop flag, abandons the join (a wedged worker
// goroutine is leaked deliberately and accounted in
// parallel.LeakedWorkers until it terminates) and returns an error
// wrapping conv.ErrDeadline plus the context's cause, so
// errors.Is(err, context.DeadlineExceeded) classifies a blown budget.
// With Options.FallbackBudget > 0 the driver instead spends up to that
// extra budget recomputing the result on the naive reference path,
// returning a correct output and a nil error when it finishes in time.
// Because abandoned workers may still store tiles into the array they
// captured whenever they resume, the fallback result is published by
// swapping a freshly allocated array into out.Data — callers holding
// an alias of the previous backing slice must re-read out.Data after a
// deadline fallback. A context without a deadline or cancellation
// behaves exactly like TryExecute (same join, no extra goroutines).
func (p *Plan) TryExecuteCtx(ctx context.Context, in, filter, out *tensor.Tensor) error {
	if err := conv.ValidateOperands(p.Shape, in, filter); err != nil {
		return err
	}
	if err := conv.ValidateOutput(p.Shape, out); err != nil {
		return err
	}
	return p.execChecked(ctx, in, filter, nil, nil, out, true, false)
}

// TryExecutePacked runs the plan with a pre-transformed filter (see
// TransformFilter) in place of the on-the-fly transform of Algorithm 2
// line 5: the worker loop reads the persistent blocked weights
// directly and Stats.TransformSec is zero. Results are bit-identical
// to TryExecute with the packed filter's source weights. The packed
// geometry must match the plan (CompatibleWith); a mismatch returns an
// error wrapping ErrBadOptions.
func (p *Plan) TryExecutePacked(in *tensor.Tensor, pf *PackedFilter, out *tensor.Tensor) error {
	return p.TryExecutePackedCtx(context.Background(), in, pf, out)
}

// TryExecutePackedCtx is TryExecutePacked bounded by ctx; deadline
// semantics follow TryExecuteCtx (the reference fallback recomputes
// from the packed filter's source KCRS weights).
func (p *Plan) TryExecutePackedCtx(ctx context.Context, in *tensor.Tensor, pf *PackedFilter, out *tensor.Tensor) error {
	if err := pf.validateFor(p); err != nil {
		return err
	}
	if err := conv.ValidateOperands(p.Shape, in, pf.src); err != nil {
		return err
	}
	if err := conv.ValidateOutput(p.Shape, out); err != nil {
		return err
	}
	return p.execChecked(ctx, in, pf.src, pf, nil, out, true, false)
}

// TryExecutePackedNHWC is the NHWC-activation form of TryExecutePacked
// (NHWC input, NPQK output, same packed KCRS-derived weights).
func (p *Plan) TryExecutePackedNHWC(in *tensor.Tensor, pf *PackedFilter, out *tensor.Tensor) error {
	return p.TryExecutePackedNHWCCtx(context.Background(), in, pf, out)
}

// TryExecutePackedNHWCCtx is the context-bounded form of
// TryExecutePackedNHWC.
func (p *Plan) TryExecutePackedNHWCCtx(ctx context.Context, in *tensor.Tensor, pf *PackedFilter, out *tensor.Tensor) error {
	if err := pf.validateFor(p); err != nil {
		return err
	}
	s := p.Shape
	if err := conv.ValidateTensor("input", in, s.N, s.H, s.W, s.C); err != nil {
		return err
	}
	if err := conv.ValidateTensor("output", out, s.N, s.P(), s.Q(), s.K); err != nil {
		return err
	}
	return p.execChecked(ctx, in, pf.src, pf, nil, out, false, false)
}

// TryExecuteResidualCtx runs a plan built with EpilogueParams.Residual
// on NCHW operands: residual, shaped like out and distinct from it, is
// added to each output element after the affine step and before ReLU,
// in the store — conv→BN→(+identity)→ReLU as one pass, bit-identical to
// the convolution followed by the separate sweeps. With a packed filter
// pf the weights come from it and filter is ignored (it may be nil);
// with pf nil the plan transforms filter on the fly. Deadline and fault
// semantics follow TryExecuteCtx, the reference fallback replaying the
// residual step. It is the only entry point such a plan executes
// through, and it takes no other plan: either mismatch returns an error
// wrapping ErrBadOptions.
func (p *Plan) TryExecuteResidualCtx(ctx context.Context, in, filter *tensor.Tensor, pf *PackedFilter, residual, out *tensor.Tensor) error {
	if pf != nil {
		if err := pf.validateFor(p); err != nil {
			return err
		}
		filter = pf.src
	}
	if err := conv.ValidateOperands(p.Shape, in, filter); err != nil {
		return err
	}
	if err := conv.ValidateOutput(p.Shape, out); err != nil {
		return err
	}
	if residual == nil {
		return fmt.Errorf("%w: TryExecuteResidualCtx needs a residual operand", ErrBadOptions)
	}
	s := p.Shape
	if err := conv.ValidateTensor("residual", residual, s.N, s.K, s.P(), s.Q()); err != nil {
		return err
	}
	if &residual.Data[0] == &out.Data[0] {
		return fmt.Errorf("%w: the residual operand must not alias the output", ErrBadOptions)
	}
	return p.execChecked(ctx, in, filter, pf, residual, out, true, false)
}

// Execute is the panicking wrapper over TryExecute.
func (p *Plan) Execute(in, filter, out *tensor.Tensor) {
	if err := p.TryExecute(in, filter, out); err != nil {
		panic(err)
	}
}

// TryExecuteNHWC runs the plan on an NHWC input, writing an NPQK
// output. Checked variant: validation failures return errors,
// execution faults fall back to the reference path.
func (p *Plan) TryExecuteNHWC(in, filter, out *tensor.Tensor) error {
	return p.TryExecuteNHWCCtx(context.Background(), in, filter, out)
}

// TryExecuteNHWCCtx is the context-bounded form of TryExecuteNHWC;
// deadline semantics follow TryExecuteCtx.
func (p *Plan) TryExecuteNHWCCtx(ctx context.Context, in, filter, out *tensor.Tensor) error {
	s := p.Shape
	if err := conv.ValidateTensor("input", in, s.N, s.H, s.W, s.C); err != nil {
		return err
	}
	if err := conv.ValidateTensor("filter", filter, s.K, s.C, s.R, s.S); err != nil {
		return err
	}
	if err := conv.ValidateTensor("output", out, s.N, s.P(), s.Q(), s.K); err != nil {
		return err
	}
	return p.execChecked(ctx, in, filter, nil, nil, out, false, false)
}

// ExecuteNHWC is the panicking wrapper over TryExecuteNHWC.
func (p *Plan) ExecuteNHWC(in, filter, out *tensor.Tensor) {
	if err := p.TryExecuteNHWC(in, filter, out); err != nil {
		panic(err)
	}
}

// TryExecuteAdd accumulates the convolution into out instead of
// overwriting it (used by the 3-D convolution extension, which sums
// 2-D slices over the kernel depth). Checked variant of ExecuteAdd.
func (p *Plan) TryExecuteAdd(in, filter, out *tensor.Tensor) error {
	return p.TryExecuteAddCtx(context.Background(), in, filter, out)
}

// TryExecuteAddCtx is the context-bounded form of TryExecuteAdd;
// deadline semantics follow TryExecuteCtx.
func (p *Plan) TryExecuteAddCtx(ctx context.Context, in, filter, out *tensor.Tensor) error {
	if err := conv.ValidateOperands(p.Shape, in, filter); err != nil {
		return err
	}
	if err := conv.ValidateOutput(p.Shape, out); err != nil {
		return err
	}
	return p.execChecked(ctx, in, filter, nil, nil, out, true, true)
}

// ExecuteAdd is the panicking wrapper over TryExecuteAdd.
func (p *Plan) ExecuteAdd(in, filter, out *tensor.Tensor) {
	if err := p.TryExecuteAdd(in, filter, out); err != nil {
		panic(err)
	}
}

// deadlineErr wraps a done context's cause in conv.ErrDeadline.
func deadlineErr(ctx context.Context) error {
	return fmt.Errorf("%w: %w", conv.ErrDeadline, context.Cause(ctx))
}

// scanNonFinite returns the index of the first NaN/Inf in data.
func scanNonFinite(data []float32) (int, bool) {
	for i, v := range data {
		if f64 := float64(v); math.IsNaN(f64) || math.IsInf(f64, 0) {
			return i, true
		}
	}
	return 0, false
}

// execChecked runs the optimised path and degrades to the reference
// implementation whenever it faults, so the caller always receives a
// correct result. Accumulate runs snapshot the prior output first: a
// mid-run fault leaves partially-updated accumulation targets that
// cannot be reconstructed any other way. The non-finite output scan
// runs under fault injection and, for production callers, under
// Options.CheckNumerics. A context abandonment (deadline expiry,
// cancellation) is not a fault: the reference fallback then runs only
// within Options.FallbackBudget, because the caller asked for bounded
// time, and otherwise the conv.ErrDeadline-wrapped error is returned.
// When pf is non-nil the workers read the pre-transformed weights
// instead of running the per-tile filter transform; filter is then
// pf's source KCRS tensor, which the reference fallback consumes. res
// is the residual operand: present exactly when the plan's epilogue has
// the residual step.
func (p *Plan) execChecked(ctx context.Context, in, filter *tensor.Tensor, pf *PackedFilter, res, out *tensor.Tensor, nchw, accumulate bool) error {
	var resData []float32
	if res != nil {
		resData = res.Data
	}
	if err := p.checkResidual(res != nil); err != nil {
		return err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cancellable := ctx.Done() != nil
	if cancellable && ctx.Err() != nil {
		// Fast fail before any work is spawned — but the FallbackBudget
		// contract still holds at the boundary: a deadline miss grants
		// the reference path its bounded recompute.
		if p.opts.FallbackBudget <= 0 {
			return deadlineErr(ctx)
		}
		var prev []float32
		if accumulate {
			prev = append([]float32(nil), out.Data...)
		}
		return p.deadlineFallback(ctx, in, filter, resData, out, nchw, accumulate, prev, deadlineErr(ctx))
	}
	injecting := faultinject.Enabled()
	var prev []float32
	if accumulate && (injecting || cancellable || p.opts.CheckNumerics) {
		prev = append([]float32(nil), out.Data...)
	}
	var pre []float32
	if pf != nil {
		pre = pf.data
		forceVerify := false
		if injecting {
			if idx, ok := faultinject.Take(faultinject.WeightBitflip); ok && len(pre) > 0 {
				if idx < 0 || idx >= len(pre) {
					idx = 0
				}
				// Flip one mantissa bit on a run-private copy (the shared
				// PackedFilter is immutable): the value stays finite, so
				// the non-finite scan can never catch it — only the
				// checksum can, which is exactly what this drill proves.
				corrupted := append([]float32(nil), pre...)
				corrupted[idx] = math.Float32frombits(math.Float32bits(corrupted[idx]) ^ 0x00400000)
				pre = corrupted
				forceVerify = true
			}
		}
		if forceVerify || pf.shouldVerify() {
			// Sampled (or injection-forced) pre-consumption verification:
			// a checksum mismatch is silent corruption, returned typed —
			// the reference fallback below must not mask it, because the
			// resident artifact stays poisoned until the owner re-packs.
			if verr := pf.verifyConsumed(pre); verr != nil {
				return verr
			}
		}
		if injecting {
			if idx, ok := faultinject.Take(faultinject.PackedCorrupt); ok && len(pre) > 0 {
				if idx < 0 || idx >= len(pre) {
					idx = 0
				}
				// Poison a run-private copy: the shared PackedFilter is
				// immutable and other runs must keep reading clean
				// weights. The NaN propagates into the output, where the
				// injection-mode non-finite scan below catches it and the
				// reference fallback recomputes from pf's KCRS source.
				corrupted := append([]float32(nil), pre...)
				corrupted[idx] = float32(math.NaN())
				pre = corrupted
			}
		}
	}
	err := p.run(ctx, in.Data, filter.Data, pre, resData, out.Data, nil, nil, nchw, accumulate)
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
			err = fmt.Errorf("%w: non-finite output at element %d", ErrExecFault, i)
		}
	}
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrIntegrity) {
		// Detected corruption is never silently recovered: the faulty
		// artifact (scratch state, packed weights) must be quarantined
		// or re-packed by the owning layer before results can be
		// trusted again, so the typed error passes through.
		return err
	}
	if accumulate && prev == nil {
		// Fault without a snapshot (injection armed mid-run): the
		// accumulation target may be partially updated and cannot be
		// recovered. Surface the fault instead of guessing.
		return fmt.Errorf("%w: %v", ErrExecFault, err)
	}
	if errors.Is(err, conv.ErrDeadline) {
		if p.opts.FallbackBudget <= 0 {
			return err
		}
		return p.deadlineFallback(ctx, in, filter, resData, out, nchw, accumulate, prev, err)
	}
	Logf("core: optimised path faulted on %v; recomputing on reference path: %v", p.Shape, err)
	p.fallbackReference(in, filter, resData, out, nchw, accumulate, prev)
	if p.opts.CheckNumerics {
		// The reference path cannot repair non-finite inputs or genuine
		// overflow: surface them instead of returning a poisoned tensor.
		if i, bad := scanNonFinite(out.Data); bad {
			return fmt.Errorf("%w: non-finite output at element %d after reference fallback", ErrExecFault, i)
		}
	}
	return nil
}

// checkResidual matches an execution against the plan's residual step:
// the operand comes with exactly the executions of a plan built for it.
func (p *Plan) checkResidual(have bool) error {
	switch {
	case p.ep.residual && !have:
		return fmt.Errorf("%w: plan has a residual epilogue: execute it through TryExecuteResidualCtx", ErrBadOptions)
	case have && !p.ep.residual:
		return fmt.Errorf("%w: residual operand given to a plan built without EpilogueParams.Residual", ErrBadOptions)
	}
	return nil
}

// deadlineFallback spends Options.FallbackBudget recomputing the
// result on the reference path after a blown deadline. On success the
// caller receives a correct tensor and a nil error; an exhausted
// budget reports origErr (the original deadline error) instead. The
// recompute publishes through a fresh backing array (see
// fallbackReferenceCtx): the abandoned grid may still write the old
// one.
func (p *Plan) deadlineFallback(ctx context.Context, in, filter *tensor.Tensor, res []float32, out *tensor.Tensor, nchw, accumulate bool, prev []float32, origErr error) error {
	fctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), p.opts.FallbackBudget)
	defer cancel()
	Logf("core: optimised path abandoned on %v; recomputing on reference path within %v: %v",
		p.Shape, p.opts.FallbackBudget, origErr)
	if ferr := p.fallbackReferenceCtx(fctx, in, filter, res, out, nchw, accumulate, prev); ferr != nil {
		return origErr
	}
	if p.opts.CheckNumerics {
		// The reference path cannot repair non-finite inputs or genuine
		// overflow: surface them instead of returning a poisoned tensor.
		if i, bad := scanNonFinite(out.Data); bad {
			return fmt.Errorf("%w: non-finite output at element %d after reference fallback", ErrExecFault, i)
		}
	}
	return nil
}

// fallbackReference recomputes the convolution with conv.Reference and
// applies the plan's epilogue, reproducing exactly what a fault-free
// optimised run would have stored. It writes out.Data in place, which
// is safe only because the fault path joins every worker before the
// fallback runs.
func (p *Plan) fallbackReference(in, filter *tensor.Tensor, res []float32, out *tensor.Tensor, nchw, accumulate bool, prev []float32) {
	ref := conv.Reference(p.Shape, p.refInput(in, nchw), filter)
	p.applyFallback(ref, out.Data, res, nchw, accumulate, prev)
}

// fallbackReferenceCtx is fallbackReference bounded by ctx: the
// cancellable oracle polls the context between output rows, so a
// deadline-abandoned execution does not trade an unbounded grid join
// for an unbounded sequential recompute. Unlike the fault path, the
// deadline path abandons its grid, and a straggler that resumes can
// still store tiles into the array it captured — so the result is
// computed into a fresh allocation swapped into out.Data, leaving the
// old array to the stragglers and never reading it again.
func (p *Plan) fallbackReferenceCtx(ctx context.Context, in, filter *tensor.Tensor, res []float32, out *tensor.Tensor, nchw, accumulate bool, prev []float32) error {
	ref, err := conv.ReferenceCtx(ctx, p.Shape, p.refInput(in, nchw), filter)
	if err != nil {
		return err
	}
	fresh := make([]float32, len(out.Data))
	p.applyFallback(ref, fresh, res, nchw, accumulate, prev)
	out.Data = fresh
	return nil
}

// refInput converts the input to the oracle's NCHW layout if needed.
func (p *Plan) refInput(in *tensor.Tensor, nchw bool) *tensor.Tensor {
	if nchw {
		return in
	}
	return tensor.NHWCToNCHW(in)
}

// applyFallback stores the oracle's NKPQ result into dst, replaying
// accumulation and the plan's fused epilogue (same per-element order
// as storeLane: bias, affine, residual, ReLU; res is laid out like dst).
func (p *Plan) applyFallback(ref *tensor.Tensor, dst, res []float32, nchw, accumulate bool, prev []float32) {
	s := p.Shape
	if !nchw {
		ref = tensor.NCHWToNHWC(ref) // NKPQ -> NPQK, the NHWC output layout
	}
	pp, q := s.P(), s.Q()
	for i := range dst {
		v := ref.Data[i]
		if accumulate {
			v += prev[i]
		}
		if !p.ep.none {
			var k int
			if nchw {
				k = (i / (pp * q)) % s.K
			} else {
				k = i % s.K
			}
			if p.ep.bias != nil {
				v += p.ep.bias[k]
			}
			if p.ep.scale != nil {
				v = v*p.ep.scale[k] + p.ep.shift[k]
			}
			if p.ep.residual {
				v += res[i]
			}
			if p.ep.relu && v < 0 {
				v = 0
			}
		}
		dst[i] = v
	}
}

// workerScratch is the thread-private memory of one worker: the
// transformed filter block, the packed input buffer, the generic
// accumulator file, and the per-stage timers.
type workerScratch struct {
	tf  []float32
	buf []float32
	// tfFull/bufFull are the guarded allocations behind tf/buf:
	// canaryWords stamped guard words sit past each logical end, and
	// intact() checks them when the run's grid joins (DESIGN.md §12).
	tfFull  []float32
	bufFull []float32
	// acc lives in the scratch (not on the worker's stack) so passing
	// &acc through a family body's indirect kernel call cannot make it
	// escape — the steady-state path stays allocation-free.
	acc   accFile8
	accG  []simd.Vec4
	stats *Stats // always non-nil; only accumulated when timed
	timed bool
}

// intact reports whether the scratch guard words still hold their
// stamp.
func (ws *workerScratch) intact() bool {
	return canariesIntact(ws.tfFull, len(ws.tf)) && canariesIntact(ws.bufFull, len(ws.buf))
}

func (p *Plan) newScratch() *workerScratch {
	s := p.Shape
	kBlocks := (p.CT.Tk + p.RT.Vk - 1) / p.RT.Vk
	tfLen := kBlocks * p.RT.Vk * p.CT.Tc * s.R * s.S
	bufLen := p.CT.Tc * s.R * ((p.RT.Vw-1)*s.Str + s.S)
	ws := &workerScratch{
		tfFull:  newGuarded(tfLen),
		bufFull: newGuarded(bufLen),
	}
	ws.tf = ws.tfFull[:tfLen:tfLen]
	ws.buf = ws.bufFull[:bufLen:bufLen]
	if p.kind == kindGeneric {
		ws.accG = make([]simd.Vec4, p.RT.Vw*p.RT.Vk/simd.Width)
	}
	ws.stats = &Stats{}
	ws.timed = p.opts.CollectStats
	return ws
}

// runTask is one grid cell's prebuilt dispatch unit: its slice of the
// iteration space, its private scratch, and the two closures the
// drivers hand around (fn = recovery shell + fault recording, body =
// fault-injection points + the worker loop nest). Both closures are
// built once when the run state is created and read the current
// operands through the run pointer, so steady-state dispatch creates
// no new funcvals — the allocation a per-call `go func` closure would
// otherwise make on every convolution.
type runTask struct {
	r          *planRun
	w          int // grid slot, also the faultinject worker index
	kLo, kHi   int
	nr, hr, wr parallel.Range
	ws         *workerScratch
	fn         func()
	body       func()
}

// planRun is one execution's complete mutable state: operands, fault
// sink, join group and the task set. Runs are pooled on the plan
// (checked out per call, returned once every worker has terminated),
// so a warm plan executes with zero heap allocations. The operand
// slices are cleared on release so a parked run never pins a caller's
// tensors.
type planRun struct {
	p                *Plan
	in, filter, pre  []float32
	out, res         []float32 // res: the residual operand, laid out like out; nil for none
	nchw, accumulate bool
	kern             specializedKernel // this execution's V_k=8 body and
	vst              tileStore         // tile store (Plan.body)

	// Batched execution (TryExecuteBatch*): per-image operand slices,
	// one entry per image of the plan's batch dimension. When non-nil
	// the workers read image n from imgIn[n] and scatter its rows
	// directly into imgOut[n] (a caller-owned per-request buffer)
	// instead of indexing the contiguous in/out arrays — the zero-copy
	// scatter of the serving micro-batcher.
	imgIn, imgOut [][]float32

	fs    parallel.FaultSink
	g     parallel.Group
	tasks []*runTask
	seq   uint64

	abandonFn func(error) // raises the stop flag on a detached join
	drainFn   func()      // releases the run from the straggler monitor
}

// maxFreeRuns bounds the plan's run free list: up to this many
// concurrent executions reuse parked state allocation-free, beyond it
// the extra run states are dropped to the GC when they complete (the
// serving admission gate bounds useful concurrency well below this).
const maxFreeRuns = 8

// newRun builds a run state: one task per grid cell, in the same
// k→n→h→w nesting order as the original per-call spawn loop so the
// faultinject worker indices are unchanged.
func (p *Plan) newRun() *planRun {
	r := &planRun{p: p}
	s := p.Shape
	r.tasks = make([]*runTask, 0, len(p.kRanges)*len(p.nRanges)*len(p.hRanges)*len(p.wRanges))
	w := 0
	for _, kr := range p.kRanges {
		kLo := kr.Lo * p.RT.Vk
		kHi := kr.Hi * p.RT.Vk
		if kHi > s.K {
			kHi = s.K
		}
		for _, nr := range p.nRanges {
			for _, hr := range p.hRanges {
				for _, wr := range p.wRanges {
					t := &runTask{r: r, w: w, kLo: kLo, kHi: kHi, nr: nr, hr: hr, wr: wr, ws: p.newScratch()}
					t.body = func() {
						faultinject.Fire(faultinject.WorkerPanic, t.w)
						faultinject.Stall(faultinject.WorkerStall, t.w)
						if faultinject.Should(faultinject.ScratchOverrun, t.w) {
							// Simulate an out-of-bounds store past the packing
							// buffer's logical end (what a miscompiled or
							// assembly kernel could do): clobber the first
							// guard word. The canary check at run completion
							// must catch it and quarantine this run state.
							t.ws.bufFull[len(t.ws.buf)] = 1
						}
						p.worker(r.in, r.filter, r.pre, r.out, r.res, r.imgIn, r.imgOut, r.nchw, r.accumulate,
							t.kLo, t.kHi, t.nr, t.hr, t.wr, t.ws, &r.fs, r.kern, r.vst)
					}
					t.fn = func() { r.fs.Record(parallel.Protect(t.body)) }
					r.tasks = append(r.tasks, t)
					w++
				}
			}
		}
	}
	r.abandonFn = func(err error) { r.fs.Record(err) }
	r.drainFn = func() { p.releaseRun(r) }
	return r
}

// getRun checks a parked run state out of the plan's free list,
// building a fresh one when none is parked (cold start, or more
// concurrent executions than maxFreeRuns).
func (p *Plan) getRun() *planRun {
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

// releaseRun publishes the run's stats and parks it for reuse. Only
// called once every worker of the run — including deadline-abandoned
// stragglers — has terminated, so a wedged goroutine can never
// scribble on recycled state.
func (p *Plan) releaseRun(r *planRun) {
	if p.opts.CollectStats {
		var st Stats
		for _, t := range r.tasks {
			st.TransformSec += t.ws.stats.TransformSec
			st.PackSec += t.ws.stats.PackSec
			st.KernelSec += t.ws.stats.KernelSec
			st.StoreSec += t.ws.stats.StoreSec
		}
		p.statsMu.Lock()
		// An abandoned run drains only when its stragglers finally
		// exit, possibly after a newer run already completed: never
		// let the stale partial stats overwrite the newer snapshot.
		if r.seq > p.lastStatsSeq {
			p.lastStats = st
			p.lastStatsSeq = r.seq
		}
		p.statsMu.Unlock()
	}
	r.in, r.filter, r.pre, r.out, r.res = nil, nil, nil, nil, nil
	r.imgIn, r.imgOut = nil, nil
	if r.scratchTripped() >= 0 {
		// A guard word past a worker's scratch was overwritten: the run
		// state is quarantined — dropped to the GC, never parked — so a
		// buffer that has hosted an overrun can never serve another
		// request (the pool-level twin of the serve layer's canary
		// quarantine).
		scratchCanaryTrips.Add(1)
		return
	}
	p.runMu.Lock()
	if len(p.runFree) < maxFreeRuns {
		p.runFree = append(p.runFree, r)
	}
	p.runMu.Unlock()
}

// scratchTripped returns the grid slot of the first worker whose
// scratch guard words were overwritten, or -1 when all are intact.
func (r *planRun) scratchTripped() int {
	for _, t := range r.tasks {
		if !t.ws.intact() {
			return t.w
		}
	}
	return -1
}

// run executes the §6 thread grid: PT_k workers along the output
// channels × (PN × PH × PW) workers along batch/rows/column-tiles.
// Grid cells are dispatched onto the persistent default worker pool
// (parallel.DefaultPool) instead of spawning goroutines, and all
// per-run state comes from the plan's run pool, so a warm call
// allocates nothing and creates no goroutines. Every worker runs
// inside the parallel runtime's panic-recovery shell; the first fault
// raises the grid's cooperative stop flag and is returned after the
// join.
//
// Without a cancellable context the caller's goroutine executes the
// first grid cell itself (the whole grid, when the plan is
// single-threaded) and joins the rest unconditionally. With one, every
// cell is dispatched and the join is bounded by ctx: on expiry the
// grid is abandoned (stop flag up, stragglers leaked deliberately and
// accounted in parallel.LeakedWorkers — a straggler occupying a pool
// slot holds only that slot, the pool itself keeps serving) and the
// returned error wraps conv.ErrDeadline; the run state is then
// recycled only after the stragglers terminate. A non-nil pre buffer
// holds the whole-filter pre-transformed weights
// ([⌈K/Vk⌉][C][R][S][Vk]); workers then skip the per-tile transform
// entirely.
func (p *Plan) run(ctx context.Context, in, filter, pre, res, out []float32, imgIn, imgOut [][]float32, nchw, accumulate bool) error {
	r := p.getRun()
	if len(r.tasks) == 0 {
		p.releaseRun(r)
		return nil
	}
	r.in, r.filter, r.pre, r.out, r.res = in, filter, pre, out, res
	r.imgIn, r.imgOut = imgIn, imgOut
	r.nchw, r.accumulate = nchw, accumulate
	r.kern, r.vst = p.body()
	r.fs.Reset()
	r.seq = p.runSeq.Add(1)
	if p.opts.CollectStats {
		for _, t := range r.tasks {
			*t.ws.stats = Stats{}
		}
	}

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

	// Cancellable join: every cell goes through the pool (running one
	// inline would let a wedged first cell block the caller past its
	// deadline), and on abandonment the run is recycled by the detached
	// monitor, not here.
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

// worker executes Algorithm 2 over its slice of the iteration space.
// Loop names follow the paper; the filter transform (line 5) is
// hoisted above the batch/row loops so each worker converts a block
// once per (ct, kt) pair — the natural amortisation of the paper's
// "on-the-fly" conversion. With a pre-transformed filter (pre != nil)
// the transform is skipped altogether and the k-block slabs are read
// from the persistent [⌈K/Vk⌉][C][R][S][Vk] buffer: the global layout
// has the same Vk-innermost blocking and the same R·S·Vk channel
// stride as the per-tile buffer, so block kt/Vk+kb at channel offset
// ct is byte-for-byte the slab transformFilter would have produced.
// The fault sink's stop flag is polled at tile granularity so
// surviving workers cancel promptly after a sibling faults.
//
// Batched scatter (imgIn/imgOut non-nil): image n's operands come from
// the per-image slice tables instead of offsets into in/out, with the
// batch index collapsed to zero — every pack and store below then
// addresses a single-image tensor, so a coalesced batch reads each
// caller's input and writes each caller's output buffer directly (no
// gather or scatter copies). Only the L1 loop changes; tile order,
// accumulation order and hence bit patterns are untouched.
func (p *Plan) worker(in, filter, pre, out, res []float32, imgIn, imgOut [][]float32, nchw, accumulate bool,
	kLo, kHi int, nr, hr, wr parallel.Range, ws *workerScratch, fs *parallel.FaultSink, kern specializedKernel, vst tileStore) {
	s := p.Shape
	vw, vk := p.RT.Vw, p.RT.Vk
	tc, tk, th := p.CT.Tc, p.CT.Tk, p.CT.Th
	q := s.Q()
	wIn := (vw-1)*s.Str + s.S
	use12x8 := p.kind != kindGeneric
	rsv := s.R * s.S * vk // one channel's slab in a transformed block
	acc := &ws.acc

	for ct := 0; ct < s.C; ct += tc { // L3
		tcEff := tc
		if ct+tcEff > s.C {
			tcEff = s.C - ct
		}
		firstC := ct == 0 && !accumulate
		lastC := ct+tcEff >= s.C

		for kt := kLo; kt < kHi; kt += tk { // L4
			if fs.Stopped() {
				return
			}
			tkEff := tk
			if kt+tkEff > kHi {
				tkEff = kHi - kt
			}
			var t0 time.Time
			if pre == nil {
				t0 = now(ws)
				transformFilter(filter, ws.tf, s.K, s.C, s.R, s.S, kt, tkEff, ct, tcEff, vk)
				addTime(ws, &ws.stats.TransformSec, t0)
			}
			kvBlocks := (tkEff + vk - 1) / vk

			for n := nr.Lo; n < nr.Hi; n++ { // L1 (worker slice)
				inD, outD, nEff := in, out, n
				if imgIn != nil {
					inD, outD, nEff = imgIn[n], imgOut[n], 0
				}
				for ht := hr.Lo; ht < hr.Hi; ht += th { // L2
					hEnd := ht + th
					if hEnd > hr.Hi {
						hEnd = hr.Hi
					}
					for oh := ht; oh < hEnd; oh++ { // L5
						if fs.Stopped() {
							return
						}
						for qt := wr.Lo; qt < wr.Hi; qt++ { // L6
							qt0 := qt * vw
							vwEff := vw
							if qt0+vwEff > q {
								vwEff = q - qt0
							}
							g := p.geometry(oh, qt0)
							g.wIn = wIn

							for kb := 0; kb < kvBlocks; kb++ { // L7
								tfBlock := ws.tf[kb*tcEff*rsv:]
								if pre != nil {
									tfBlock = pre[((kt/vk+kb)*s.C+ct)*rsv:]
								}
								if use12x8 {
									*acc = accFile8{}
									if kb == 0 && p.opts.SequentialPack {
										t0 = now(ws)
										if nchw {
											packNCHW(inD, ws.buf, g, nEff, s.C, s.H, s.W, ct, tcEff, s.R)
										} else {
											packNHWC(inD, ws.buf, g, nEff, s.C, s.H, s.W, ct, tcEff, s.R)
										}
										addTime(ws, &ws.stats.PackSec, t0)
									}
									t0 = now(ws)
									if kb == 0 && !p.opts.SequentialPack {
										p.packCompute(kern, acc, inD, ws.buf, tfBlock, g, nEff, ct, tcEff, vwEff, nchw)
									} else {
										kern(acc, ws.buf, tfBlock, tcEff*s.R, vwEff, wIn)
									}
									addTime(ws, &ws.stats.KernelSec, t0)
									t0 = now(ws)
									p.store(vst, acc, outD, res, nchw, nEff, kt+kb*vk, kHi, oh, qt0, vwEff, firstC, lastC)
									addTime(ws, &ws.stats.StoreSec, t0)
								} else {
									clear(ws.accG)
									if kb == 0 {
										t0 = now(ws)
										if nchw {
											packNCHW(inD, ws.buf, g, nEff, s.C, s.H, s.W, ct, tcEff, s.R)
										} else {
											packNHWC(inD, ws.buf, g, nEff, s.C, s.H, s.W, ct, tcEff, s.R)
										}
										addTime(ws, &ws.stats.PackSec, t0)
									}
									t0 = now(ws)
									kernelGeneric(ws.accG, ws.buf, tfBlock, tcEff, s.R, s.S, s.Str, vwEff, wIn, vk)
									addTime(ws, &ws.stats.KernelSec, t0)
									t0 = now(ws)
									p.storeGeneric(ws.accG, outD, res, nchw, nEff, kt+kb*vk, kHi, oh, qt0, vwEff, firstC, lastC)
									addTime(ws, &ws.stats.StoreSec, t0)
								}
							}
						}
					}
				}
			}
		}
	}
}

// now/addTime are the near-zero-cost-when-disabled stage timers.
func now(ws *workerScratch) time.Time {
	if !ws.timed {
		return time.Time{}
	}
	return time.Now()
}

func addTime(ws *workerScratch, dst *float64, t0 time.Time) {
	if !ws.timed {
		return
	}
	*dst += time.Since(t0).Seconds()
}
