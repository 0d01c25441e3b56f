package nn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"ndirect/internal/conv"
	"ndirect/internal/core"
	"ndirect/internal/tensor"
)

// Fused depthwise-separable serving (DESIGN.md §13). A
// DepthwiseSeparable block on a Reuse+nDirect engine routes through
// core.SeparablePlan: the depthwise stage's BN+ReLU fold into the
// plan's per-channel depthwise epilogue, the pointwise unit's BN+ReLU
// into its fused store epilogue, and row tiles of depthwise output
// feed the pointwise micro-kernel straight from pooled scratch — the
// full C·P·Q intermediate is never materialised. The fused route is
// bit-identical to the unfused composition (the core's contract), so
// every other engine configuration — ForceReference (the quarantine
// rung), Fuse (Ansor-style weight folding), the baseline backends —
// keeps today's unfused path and today's bits.

// channelEpilogue builds the core's per-channel epilogue form of a
// BN(+ReLU) pair using the exact float32 expressions applyBN evaluates
// (scale = γ/√(σ²+ε), shift = β − μ·scale), so fusing it into the
// depthwise store is bit-identical to running the sweeps.
func channelEpilogue(bn *BNParams, ch int, relu bool) *core.EpilogueParams {
	if bn == nil && !relu {
		return nil
	}
	ep := &core.EpilogueParams{ReLU: relu}
	if bn != nil {
		scale := make([]float32, ch)
		shift := make([]float32, ch)
		for c := range scale {
			sc := bn.Gamma[c] / float32(math.Sqrt(float64(bn.Var[c])+float64(bn.Eps)))
			scale[c] = sc
			shift[c] = bn.Beta[c] - bn.Mean[c]*sc
		}
		ep.Scale, ep.Shift = scale, shift
	}
	return ep
}

// sepMemoEntry records the inputs that determine a fused separable
// plan (same role as ConvUnit.planMemo for standard plans, which the
// core.PlanCache cannot hold — it is keyed for *core.Plan).
type sepMemoEntry struct {
	shape   core.SeparableShape
	threads int
	dwEp    *core.EpilogueParams
	pwEp    *core.EpilogueParams
	gen     uint64 // unit reuse generation at build
	plan    *core.SeparablePlan
}

// separableShape returns the block's fused geometry at the given batch
// and whether the two stages actually compose (the pointwise unit is a
// 1×1/stride-1/pad-0 convolution on the depthwise output grid). A
// non-composing block — hand-built with mismatched stages — simply
// never takes the fused route.
func (d *DepthwiseSeparable) separableShape(batch int) (core.SeparableShape, bool) {
	dw, pw := d.DWShape, d.PW.Shape
	if pw.R != 1 || pw.S != 1 || pw.Str != 1 || pw.Pad != 0 || pw.C != dw.C {
		return core.SeparableShape{}, false
	}
	ss := core.SeparableShape{
		N: batch, C: dw.C, H: dw.H, W: dw.W,
		K: pw.K, R: dw.R, S: dw.S, Str: dw.Str, Pad: dw.Pad,
	}
	if pw.H != ss.P() || pw.W != ss.Q() {
		return core.SeparableShape{}, false
	}
	return ss, true
}

// dwEpilogue returns the depthwise stage's BN+ReLU as a per-channel
// fused epilogue, built once (the stable pointer is the memo identity,
// like ConvUnit.fusedEpilogue).
func (d *DepthwiseSeparable) dwEpilogue() *core.EpilogueParams {
	d.dwEpOnce.Do(func() {
		d.dwEp = channelEpilogue(d.DWBN, d.DWShape.C, true)
	})
	return d.dwEp
}

// sepPlanFor resolves the block's fused plan through the per-unit memo.
// A memo entry is stale when the unit's reuse generation moved
// (eviction/unregister). Kernel quarantine needs no invalidation: the
// plan resolves its bodies per execution.
func (d *DepthwiseSeparable) sepPlanFor(eng *Engine, ss core.SeparableShape) (*core.SeparablePlan, error) {
	gen := d.sepGen.Load()
	dwEp := d.dwEpilogue()
	pwEp := d.PW.fusedEpilogue()
	if m := d.sepMemo.Load(); m != nil && m.gen == gen && m.shape == ss && m.threads == eng.Threads &&
		m.dwEp == dwEp && m.pwEp == pwEp {
		return m.plan, nil
	}
	opt := core.Options{
		Threads:           eng.Threads,
		DepthwiseEpilogue: dwEp,
		FusedEpilogue:     pwEp,
	}
	plan, err := core.TryNewSeparablePlan(ss, opt)
	if err != nil {
		return nil, err
	}
	d.sepMemo.Store(&sepMemoEntry{
		shape: ss, threads: eng.Threads,
		dwEp: dwEp, pwEp: pwEp, gen: gen, plan: plan,
	})
	return plan, nil
}

// packedDWFor returns the block's packed depthwise filter, building it
// on first use. Unlike the pointwise artifact (a budget-charged
// core.PackedFilter shared with the standalone unit via PW.packedFor),
// the depthwise pack is an identity-layout copy of the [C,R,S] filter
// — kilobytes against the pointwise megabytes — and is held per-unit
// below the weight-residency accounting.
func (d *DepthwiseSeparable) packedDWFor(eng *Engine, plan *core.SeparablePlan) (*core.PackedDepthwiseFilter, error) {
	d.sepMu.Lock()
	defer d.sepMu.Unlock()
	if pf := d.sepPackedDW; pf != nil && pf.Source() == d.DWFilter && !pf.Released() {
		return pf, nil
	}
	d.sepPackedDW = nil
	pf, err := plan.TransformDepthwiseFilter(d.DWFilter)
	if err != nil {
		return nil, err
	}
	if verr := pf.Verify(); verr != nil {
		eng.logLimited("integrity|pack|"+d.LayerName,
			"nn: %s: fresh depthwise pack failed verification, serving unpacked: %v", d.LayerName, verr)
		return nil, nil
	}
	d.sepPackedDW = pf
	return pf, nil
}

// discardPackedDW retires the depthwise artifact after a mid-execution
// integrity failure; the next fetch re-packs bit-identically from the
// retained [C,R,S] source.
func (d *DepthwiseSeparable) discardPackedDW(pf *core.PackedDepthwiseFilter) {
	d.sepMu.Lock()
	if d.sepPackedDW == pf {
		d.sepPackedDW = nil
	}
	d.sepMu.Unlock()
	pf.Release()
}

// invalidateReuse retires the block's fused serving state (the memo
// and the depthwise pack; the pointwise pack lives on the PW unit and
// is retired by its own invalidateReuse) and, with params, the
// depthwise-stage epilogue derived from DWBN.
func (d *DepthwiseSeparable) invalidateReuse(params bool) {
	d.sepMu.Lock()
	d.sepGen.Add(1)
	d.sepMemo.Store(nil)
	if pf := d.sepPackedDW; pf != nil {
		d.sepPackedDW = nil
		pf.Release()
	}
	if params {
		d.dwEpOnce, d.dwEp = sync.Once{}, nil
	}
	d.sepMu.Unlock()
}

// tryFused runs the block on the fused separable path when the engine
// configuration admits it, reporting handled=false (with no error) to
// send the caller down the unfused path — on configuration mismatch,
// on a plan the core cannot build (a shape outside the fused
// contract), or after an unrecoverable execution fault, where the
// unfused composition is the bit-identical recovery.
func (d *DepthwiseSeparable) tryFused(eng *Engine, x *tensor.Tensor) (*tensor.Tensor, bool, error) {
	if !eng.Reuse || eng.Algo != AlgoNDirect || eng.ForceReference || eng.Fuse || d.DWBN == nil {
		return nil, false, nil
	}
	ss, ok := d.separableShape(x.Dims[0])
	if !ok {
		return nil, false, nil
	}
	plan, err := d.sepPlanFor(eng, ss)
	if err != nil {
		eng.logLimited("sep|plan|"+d.LayerName,
			"nn: %s: fused separable plan unavailable (%v); serving unfused", d.LayerName, err)
		return nil, false, nil
	}
	pdw, err := d.packedDWFor(eng, plan)
	if err != nil {
		return nil, false, nil
	}
	ppw, err := d.PW.packedFor(eng, plan.PointwisePlan(), d.PW.Weights)
	if err != nil {
		return nil, false, nil
	}
	out := eng.newOutput(ss.N, ss.K, ss.P(), ss.Q()) // the fused plan writes every element
	ctx, cancel := eng.convCtx()
	defer cancel()
	err = d.execFused(eng, ctx, plan, x, pdw, ppw, out)
	if err == nil {
		return out, true, nil
	}
	if errors.Is(err, conv.ErrDeadline) {
		eng.logLimited("budget|sep|"+d.LayerName,
			"nn: %s: fused path missed ConvBudget; recomputing unbounded: %v", d.LayerName, err)
		// Abandoned workers may still write into out: leak it (never
		// back to the pool) and recompute into a fresh tensor.
		out = eng.newOutput(ss.N, ss.K, ss.P(), ss.Q())
		if err := d.execFused(eng, context.Background(), plan, x, pdw, ppw, out); err == nil {
			return out, true, nil
		}
	}
	eng.logLimited("sep|exec|"+d.LayerName,
		"nn: %s: fused path failed (%v); serving unfused", d.LayerName, err)
	return nil, false, nil
}

// execFused executes one fused forward, degrading through the typed
// recovery ladder the standard Reuse path has: a released or
// integrity-failing packed artifact drops to the on-the-fly transform
// (bit-identical; the suspect artifact is discarded so the next call
// re-packs from source).
func (d *DepthwiseSeparable) execFused(eng *Engine, ctx context.Context, plan *core.SeparablePlan, x *tensor.Tensor,
	pdw *core.PackedDepthwiseFilter, ppw *core.PackedFilter, out *tensor.Tensor) error {
	bounded := ctx.Done() != nil
	if pdw != nil && ppw != nil {
		var err error
		if bounded {
			err = plan.TryExecutePackedCtx(ctx, x, pdw, ppw, out)
		} else {
			err = plan.TryExecutePacked(x, pdw, ppw, out)
		}
		if err == nil {
			return nil
		}
		if errors.Is(err, core.ErrWeightsReleased) || errors.Is(err, core.ErrIntegrity) {
			// Integrity failures join the grid before returning and a
			// released artifact is rejected before launch, so out is safe
			// to reuse on the unpacked retry.
			if errors.Is(err, core.ErrIntegrity) {
				d.discardPackedDW(pdw)
				d.PW.discardPacked(eng, ppw)
			}
		} else {
			return err
		}
	}
	if bounded {
		return plan.TryExecuteCtx(ctx, x, d.DWFilter, d.PW.Weights, out)
	}
	return plan.TryExecute(x, d.DWFilter, d.PW.Weights, out)
}

// --- Standalone depthwise unit ---

// DepthwiseConv is a standalone depthwise conv→BN→ReLU unit — the
// pre-fusion graph form. Network.FuseSeparable rewrites a
// DepthwiseConv followed by its matching 1×1 ConvUnit into a
// DepthwiseSeparable block; a unit left unfused still serves through
// the register-tiled DepthwisePlan on a Reuse engine (with its BN+ReLU
// folded into the plan's per-channel epilogue), and through the plane
// loop everywhere else.
type DepthwiseConv struct {
	LayerName string
	Shape     conv.Shape     // depthwise geometry (K = C)
	Filter    *tensor.Tensor // [C, R, S]
	BN        *BNParams      // optional
	ReLU      bool

	epOnce sync.Once
	ep     *core.EpilogueParams

	planMemo atomic.Pointer[dwMemoEntry]
	reuseGen atomic.Uint64

	packMu sync.Mutex
	packed *core.PackedDepthwiseFilter
}

type dwMemoEntry struct {
	s       conv.Shape
	threads int
	ep      *core.EpilogueParams
	gen     uint64
	plan    *core.DepthwisePlan
}

func (d *DepthwiseConv) Name() string { return d.LayerName }

func (d *DepthwiseConv) Forward(eng *Engine, x *tensor.Tensor) *tensor.Tensor {
	out, err := d.tryForward(eng, x)
	if err != nil {
		panic(fmt.Sprintf("nn: %s: %v", d.LayerName, err))
	}
	return out
}

func (d *DepthwiseConv) epilogue() *core.EpilogueParams {
	d.epOnce.Do(func() {
		d.ep = channelEpilogue(d.BN, d.Shape.C, d.ReLU)
	})
	return d.ep
}

func (d *DepthwiseConv) planFor(eng *Engine, s conv.Shape) (*core.DepthwisePlan, error) {
	gen := d.reuseGen.Load()
	ep := d.epilogue()
	if m := d.planMemo.Load(); m != nil && m.gen == gen && m.s == s && m.threads == eng.Threads && m.ep == ep {
		return m.plan, nil
	}
	plan, err := core.TryNewDepthwisePlan(s, core.Options{
		Threads: eng.Threads, FusedEpilogue: ep,
	})
	if err != nil {
		return nil, err
	}
	d.planMemo.Store(&dwMemoEntry{s: s, threads: eng.Threads, ep: ep, gen: gen, plan: plan})
	return plan, nil
}

func (d *DepthwiseConv) packedFor(eng *Engine, plan *core.DepthwisePlan) (*core.PackedDepthwiseFilter, error) {
	d.packMu.Lock()
	defer d.packMu.Unlock()
	if pf := d.packed; pf != nil && pf.Source() == d.Filter && pf.CompatibleWith(plan) && !pf.Released() {
		return pf, nil
	}
	d.packed = nil
	pf, err := plan.TransformFilter(d.Filter)
	if err != nil {
		return nil, err
	}
	if verr := pf.Verify(); verr != nil {
		eng.logLimited("integrity|pack|"+d.LayerName,
			"nn: %s: fresh depthwise pack failed verification, serving unpacked: %v", d.LayerName, verr)
		return nil, nil
	}
	d.packed = pf
	return pf, nil
}

func (d *DepthwiseConv) discardPacked(pf *core.PackedDepthwiseFilter) {
	d.packMu.Lock()
	if d.packed == pf {
		d.packed = nil
	}
	d.packMu.Unlock()
	pf.Release()
}

// invalidateReuse retires the unit's plan memo and packed filter and,
// with params, the epilogue derived from BN.
func (d *DepthwiseConv) invalidateReuse(params bool) {
	d.packMu.Lock()
	d.reuseGen.Add(1)
	d.planMemo.Store(nil)
	if pf := d.packed; pf != nil {
		d.packed = nil
		pf.Release()
	}
	if params {
		d.epOnce, d.ep = sync.Once{}, nil
	}
	d.packMu.Unlock()
}

func (d *DepthwiseConv) tryForward(eng *Engine, x *tensor.Tensor) (*tensor.Tensor, error) {
	s := d.Shape.WithBatch(x.Dims[0])
	s.K = s.C
	if eng.Reuse && eng.Algo == AlgoNDirect && !eng.ForceReference {
		if out, handled, err := d.tryPlanned(eng, s, x); handled {
			return out, err
		}
	}
	// Unfused / quarantine path: the plane loop plus separate sweeps —
	// today's reference behaviour, bit-identical to the planned route.
	out, err := core.TryDepthwiseConv2D(s, x, d.Filter, core.Options{Threads: eng.Threads})
	if err != nil {
		return nil, err
	}
	if d.BN != nil {
		if err := applyBN(out, d.BN, eng.Threads); err != nil {
			return nil, err
		}
	}
	if d.ReLU {
		if err := applyReLU(out, eng.Threads); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// tryPlanned runs the unit on the register-tiled DepthwisePlan with
// the BN+ReLU fused into the per-channel store epilogue. handled=false
// falls back to the plane-loop path (bit-identical).
func (d *DepthwiseConv) tryPlanned(eng *Engine, s conv.Shape, x *tensor.Tensor) (*tensor.Tensor, bool, error) {
	plan, err := d.planFor(eng, s)
	if err != nil {
		eng.logLimited("dw|plan|"+d.LayerName,
			"nn: %s: depthwise plan unavailable (%v); serving on the plane loop", d.LayerName, err)
		return nil, false, nil
	}
	pf, err := d.packedFor(eng, plan)
	if err != nil {
		return nil, false, nil
	}
	out := eng.newTensor(s.N, s.C, s.P(), s.Q())
	ctx, cancel := eng.convCtx()
	defer cancel()
	err = d.execPlanned(ctx, plan, x, pf, out)
	if err == nil {
		return out, true, nil
	}
	if errors.Is(err, conv.ErrDeadline) {
		eng.logLimited("budget|dw|"+d.LayerName,
			"nn: %s: depthwise plan missed ConvBudget; recomputing unbounded: %v", d.LayerName, err)
		out = eng.newTensor(s.N, s.C, s.P(), s.Q()) // leak the abandoned one
		if err := d.execPlanned(context.Background(), plan, x, pf, out); err == nil {
			return out, true, nil
		}
	}
	eng.logLimited("dw|exec|"+d.LayerName,
		"nn: %s: depthwise plan failed (%v); serving on the plane loop", d.LayerName, err)
	return nil, false, nil
}

func (d *DepthwiseConv) execPlanned(ctx context.Context, plan *core.DepthwisePlan, x *tensor.Tensor,
	pf *core.PackedDepthwiseFilter, out *tensor.Tensor) error {
	bounded := ctx.Done() != nil
	if pf != nil {
		var err error
		if bounded {
			err = plan.TryExecutePackedCtx(ctx, x, pf, out)
		} else {
			err = plan.TryExecutePacked(x, pf, out)
		}
		if err == nil {
			return nil
		}
		if errors.Is(err, core.ErrWeightsReleased) || errors.Is(err, core.ErrIntegrity) {
			if errors.Is(err, core.ErrIntegrity) {
				d.discardPacked(pf)
			}
		} else {
			return err
		}
	}
	if bounded {
		return plan.TryExecuteCtx(ctx, x, d.Filter, out)
	}
	return plan.TryExecute(x, d.Filter, out)
}

// --- Graph-level fusion ---

// FuseSeparable rewrites every DepthwiseConv immediately followed by
// its matching 1×1 ConvUnit into a fused DepthwiseSeparable block,
// returning how many pairs were rewritten. A pair matches when the
// depthwise unit carries the block's canonical BN+ReLU and the
// pointwise unit is a 1×1/stride-1/pad-0 convolution consuming exactly
// the depthwise output grid. Rewriting changes the execution strategy,
// never the bits: the fused block's forward is bit-identical to the
// pair it replaced on every engine configuration.
func (n *Network) FuseSeparable() int {
	fused := 0
	out := n.Layers[:0]
	for i := 0; i < len(n.Layers); i++ {
		if dwc, ok := n.Layers[i].(*DepthwiseConv); ok && i+1 < len(n.Layers) {
			if pw, ok := n.Layers[i+1].(*ConvUnit); ok && separablePair(dwc, pw) {
				out = append(out, &DepthwiseSeparable{
					LayerName: dwc.LayerName + "+" + pw.LayerName,
					DWShape:   dwc.Shape,
					DWFilter:  dwc.Filter,
					DWBN:      dwc.BN,
					PW:        pw,
				})
				i++
				fused++
				continue
			}
		}
		out = append(out, n.Layers[i])
	}
	n.Layers = out
	return fused
}

// separablePair reports whether dwc→pw compose into the canonical
// depthwise-separable block (DepthwiseSeparable's fixed dw-stage
// BN+ReLU, geometry chained exactly).
func separablePair(dwc *DepthwiseConv, pw *ConvUnit) bool {
	if dwc.BN == nil || !dwc.ReLU {
		return false
	}
	s := dwc.Shape
	s.K = s.C
	if pw.Shape.R != 1 || pw.Shape.S != 1 || pw.Shape.Str != 1 || pw.Shape.Pad != 0 {
		return false
	}
	return pw.Shape.C == s.C && pw.Shape.H == s.P() && pw.Shape.W == s.Q()
}
