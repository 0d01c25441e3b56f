package core

import (
	"context"
	"fmt"
	"time"

	"ndirect/internal/conv"
	"ndirect/internal/parallel"
	"ndirect/internal/tensor"
)

// TryExecute runs the plan on an NCHW input and KCRS filter, writing
// the NKPQ output in place (out is fully overwritten; it need not be
// zeroed). Validation failures return errors wrapping
// conv.ErrDimMismatch; execution faults (a recovered worker panic, an
// injected numerical corruption) are logged via Logf and the execution
// replayed serially on the plan's oracle (TryExecuteReferenceCtx) — a
// nil error always means a correct output, bit-identical to a
// fault-free run.
func (p *Plan) TryExecute(in, filter, out *tensor.Tensor) error {
	return p.exec(context.Background(), execReq{in: in, filter: filter, out: out})
}

// TryExecuteCtx is TryExecute bounded by ctx. When the context expires
// or is canceled before the worker grid finishes, the driver raises
// the grid's cooperative stop flag, abandons the join (a wedged worker
// goroutine is leaked deliberately and accounted in
// parallel.LeakedWorkers until it terminates) and returns an error
// wrapping conv.ErrDeadline plus the context's cause, so
// errors.Is(err, context.DeadlineExceeded) classifies a blown budget.
// No oracle replay runs after a deadline, and out.Data is never
// replaced: an abandoned worker may still store tiles into it whenever
// it resumes, so after a deadline error its contents are undefined. A
// context without a deadline or cancellation behaves exactly like
// TryExecute (same join, no extra goroutines).
func (p *Plan) TryExecuteCtx(ctx context.Context, in, filter, out *tensor.Tensor) error {
	return p.exec(ctx, execReq{in: in, filter: filter, out: out})
}

// TryExecutePacked runs the plan with a pre-transformed filter (see
// TransformFilter) in place of the on-the-fly transform of Algorithm 2
// line 5: the worker loop reads the persistent blocked weights
// directly and Stats.TransformSec is zero. Results are bit-identical
// to TryExecute with the packed filter's source weights. The packed
// geometry must match the plan (CompatibleWith); a mismatch returns an
// error wrapping ErrBadOptions.
func (p *Plan) TryExecutePacked(in *tensor.Tensor, pf *PackedFilter, out *tensor.Tensor) error {
	return p.exec(context.Background(), execReq{in: in, pf: pf, packed: true, out: out})
}

// TryExecutePackedCtx is TryExecutePacked bounded by ctx; deadline
// semantics follow TryExecuteCtx (a fault's oracle replay reads the
// packed filter's source KCRS weights).
func (p *Plan) TryExecutePackedCtx(ctx context.Context, in *tensor.Tensor, pf *PackedFilter, out *tensor.Tensor) error {
	return p.exec(ctx, execReq{in: in, pf: pf, packed: true, out: out})
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
	if residual == nil {
		return fmt.Errorf("%w: TryExecuteResidualCtx needs a residual operand", ErrBadOptions)
	}
	return p.exec(ctx, execReq{in: in, filter: filter, pf: pf, packed: pf != nil, res: residual, out: out})
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
	return p.exec(context.Background(), execReq{in: in, filter: filter, out: out, nhwc: true})
}

// TryExecuteNHWCCtx is the context-bounded form of TryExecuteNHWC;
// deadline semantics follow TryExecuteCtx.
func (p *Plan) TryExecuteNHWCCtx(ctx context.Context, in, filter, out *tensor.Tensor) error {
	return p.exec(ctx, execReq{in: in, filter: filter, out: out, nhwc: true})
}

// execReq is one execution request as every Plan entry point states it:
// the exported methods are fixed points of this struct, and the
// combination none of them names (NHWC × packed) is reached by filling
// it directly.
type execReq struct {
	in, out *tensor.Tensor // covering the plan's whole batch
	filter  *tensor.Tensor // KCRS weights; ignored when packed
	pf      *PackedFilter
	packed  bool           // the weights come from pf
	res     *tensor.Tensor // residual operand, NCHW only
	nhwc    bool           // NHWC activations, NPQK outputs
}

// exec validates a request, loads it into a pooled run and hands it to
// the ladder (govern).
func (p *Plan) exec(ctx context.Context, q execReq) error {
	r, err := p.load(q)
	if err != nil {
		return err
	}
	return govern(ctx, &r.gridRun)
}

// load validates a request and loads it into a pooled run. When the
// request is packed the workers read the pre-transformed weights
// instead of running the per-tile filter transform, and the oracle
// consumes the packed filter's source KCRS tensor.
func (p *Plan) load(q execReq) (*planRun, error) {
	if q.packed {
		if err := q.pf.validateFor(p); err != nil {
			return nil, err
		}
		q.filter = q.pf.src
	}
	if err := validateRequest(p.Shape, q.in, q.filter, q.out, !q.nhwc); err != nil {
		return nil, err
	}
	if err := p.checkResidual(q.res != nil); err != nil {
		return nil, err
	}
	if q.res != nil {
		s := p.Shape
		if err := conv.ValidateTensor("residual", q.res, s.N, s.K, s.P(), s.Q()); err != nil {
			return nil, err
		}
		if &q.res.Data[0] == &q.out.Data[0] {
			return nil, fmt.Errorf("%w: the residual operand must not alias the output", ErrBadOptions)
		}
	}

	var r *planRun
	if g := p.runs.get(); g != nil {
		r = g.owner.(*planRun)
	} else {
		r = p.newRun()
	}
	r.filterD, r.nchw = q.filter.Data, !q.nhwc
	if q.packed {
		r.packed[0].core, r.pre = &q.pf.packedCore, q.pf.data
	}
	if q.res != nil {
		r.resD = q.res.Data
	}
	s := p.Shape
	r.in = inView{d: q.in.Data, img: s.C * s.H * s.W, ch: s.H * s.W}
	r.outD, r.out = q.out.Data, q.out
	if q.nhwc && r.tasks[0].ws.buf == nil {
		r.addPackBufs()
	}
	r.b = p.body()
	r.seq = p.runSeq.Add(1)
	if p.opts.CollectStats {
		for _, t := range r.tasks {
			*t.ws.stats = Stats{}
		}
	}
	return r, nil
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

// validateRequest checks a request's operands against shape s, in the
// activation layout it runs in.
func validateRequest(s conv.Shape, in, filter, out *tensor.Tensor, nchw bool) error {
	if nchw {
		if err := conv.ValidateOperands(s, in, filter); err != nil {
			return err
		}
		return conv.ValidateOutput(s, out)
	}
	if err := conv.ValidateTensor("input", in, s.N, s.H, s.W, s.C); err != nil {
		return err
	}
	if err := conv.ValidateTensor("filter", filter, s.K, s.C, s.R, s.S); err != nil {
		return err
	}
	return conv.ValidateTensor("output", out, s.N, s.P(), s.Q(), s.K)
}

// oracle points the run at the plan's looped body and Go store
// (oracleBody) and its raw weights: pre dropped, the workers transform
// the KCRS filter (a packed execution's retained source) per tile.
func (r *planRun) oracle() {
	r.b, r.pre = r.p.oracleBody(), nil
}

// workerScratch is the thread-private memory of one worker: the
// transformed filter block, the packed input buffer, the accumulator
// files of four K-blocks, and the per-stage timers.
type workerScratch struct {
	// tf and buf are guarded allocations: canary words sit past each
	// logical end and are checked when the run's grid joins
	// (gridRun.guard, DESIGN.md §12). buf is nil while the plan reads
	// every tile in place (addPackBufs).
	tf  []float32
	buf []float32
	// acc lives in the scratch (not on the worker's stack) so passing
	// &acc through a family body's indirect kernel call cannot make it
	// escape — the steady-state path stays allocation-free.
	acc   accTile
	stats *Stats // always non-nil; only accumulated when timed
	timed bool
}

// runTask is one grid cell's share of the run: its slice of the
// iteration space — output channels [kLo, kHi), images nr, grid rows hr
// and grid columns wr, in pixels — and its private scratch.
type runTask struct {
	kLo, kHi   int
	nr, hr, wr parallel.Range
	ws         *workerScratch
}

// inView is where a worker reads its input in place: channel c of image
// n starts at d[n*img + c*ch - first], and in it the plan grid's rows lie
// grid.W apart, so the channel's pixel x of grid row 0 is at offset
// x - first. A plan's NCHW operand is the view {in, C·H·W, H·W, 0} (a
// packing execution, and an NHWC one, read only d, in its own layout);
// the separable plan's row-tile intermediate is {mid, 0, rowTile·Q, h0·Q}.
type inView struct {
	d              []float32
	img, ch, first int
}

// planRun is one execution's operands on top of the shared harness
// (gridRun): what the workers read (their data slices, the resolved body
// and store). Everything is cleared on unload so a parked run never pins
// a caller's tensors.
type planRun struct {
	gridRun
	p     *Plan
	tasks []runTask

	in         inView
	filterD    []float32 // KCRS weights (packed: the packed filter's source)
	pre        []float32 // the packed weights the grid reads; nil: transform filterD per tile
	outD, resD []float32 // resD is laid out like outD
	nchw       bool      // activation layout
	b          bodies    // this execution's V_k=8 bodies and tile store (Plan.body)

	seq uint64 // runSeq stamp, orders LastStats publication
}

// newRun builds a run state: one task per grid cell, in k→n→h→w nesting
// order (the faultinject worker indices).
func (p *Plan) newRun() *planRun {
	r := &planRun{p: p}
	s := p.Shape
	r.init(r, &p.runs, s, len(p.kRanges)*len(p.nRanges)*len(p.hRanges)*len(p.wRanges), &r.pre)
	tfLen := p.tfLen()
	for _, kr := range p.kRanges {
		kLo := kr.Lo * p.RT.Vk
		kHi := min(kr.Hi*p.RT.Vk, s.K)
		for _, nr := range p.nRanges {
			for _, hr := range p.hRanges {
				for _, wr := range p.wRanges {
					w := len(r.tasks)
					ws := &workerScratch{tf: r.guard(w, tfLen), stats: &Stats{}, timed: p.opts.CollectStats}
					r.tasks = append(r.tasks, runTask{kLo: kLo, kHi: kHi, nr: nr, hr: hr, wr: wr, ws: ws})
				}
			}
		}
	}
	if !p.inPlace {
		r.addPackBufs()
	}
	return r
}

// addPackBufs gives every worker its packing buffer: when the run is
// built for a plan that packs, and on the first NHWC execution of a run
// whose plan reads its NCHW tiles in place.
func (r *planRun) addPackBufs() {
	n := r.p.bufLen()
	for w := range r.tasks {
		r.tasks[w].ws.buf = r.guard(w, n)
	}
}

// cells runs grid slot w: one worker of the §6 thread grid — PT_k
// workers along the output channels × (PN × PH × PW) along
// batch/rows/columns.
func (r *planRun) cells(w int) {
	r.p.worker(r.in, r.filterD, r.pre, r.outD, r.resD, r.nchw, &r.tasks[w], &r.fs, &r.b)
}

// unload publishes a dispatched run's stats and drops its operands.
func (r *planRun) unload() {
	p := r.p
	if p.opts.CollectStats && r.ran {
		var st Stats
		for _, t := range r.tasks {
			st.TransformSec += t.ws.stats.TransformSec
			st.PackSec += t.ws.stats.PackSec
			st.KernelSec += t.ws.stats.KernelSec
			st.StoreSec += t.ws.stats.StoreSec
		}
		p.statsMu.Lock()
		// An abandoned run unloads only when its stragglers finally
		// exit, possibly after a newer run already completed: never
		// let the stale partial stats overwrite the newer snapshot.
		if r.seq > p.lastStatsSeq {
			p.lastStats = st
			p.lastStatsSeq = r.seq
		}
		p.statsMu.Unlock()
	}
	r.in, r.filterD, r.outD, r.resD = inView{}, nil, nil, nil
}

// worker executes Algorithm 2 over task t's slice of the iteration space:
// every standard and pointwise tile of every plan runs here, the
// separable plan's pointwise stage included (sepRun.cell).
// Loop names follow the paper; the filter transform (line 5) is
// hoisted above the batch/row loops so each worker converts a block
// once per (ct, kt) pair — the natural amortisation of the paper's
// "on-the-fly" conversion. With a pre-transformed filter (pre != nil)
// the transform is skipped altogether and the k-block slabs are read
// from the persistent [⌈K/Vk⌉][C][R][S][Vk] buffer: the global layout
// has the same Vk-innermost blocking and the same R·S·Vk channel
// stride as the per-tile buffer, so block kt/Vk+kb at channel offset
// ct is byte-for-byte the slab transformFilter would have produced.
// An NCHW tile of a plan that reads in place (Plan.inPlace) is handed
// to the body where it lies in the input view v, its row pitch the
// view's channel pitch, and nothing is packed. The loops run on the
// plan's grid shape, so a pointwise plan's plane is one row. Each tile
// runs the pointwise body where the execution has it (bodies.px, NCHW
// only): a pxTile-pixel tile, one call per K-block, stored from
// registers, its time counted as kernel time. Otherwise it is a V_w
// register tile whose k-block loop steps through bodies.span, four or
// two blocks per body call where the multi-block bodies are bound, and
// stores through Plan.store. The fault sink's stop flag is polled at
// tile granularity so surviving workers cancel promptly after a
// sibling faults.
func (p *Plan) worker(v inView, filter, pre, out, res []float32, nchw bool,
	t *runTask, fs *parallel.FaultSink, b *bodies) {
	s := p.grid
	vw, vk := p.RT.Vw, p.RT.Vk
	tc, tk, th := p.CT.Tc, p.CT.Tk, p.CT.Th
	kLo, kHi, nr, hr, wr, ws := t.kLo, t.kHi, t.nr, t.hr, t.wr, t.ws
	wIn := (vw-1)*s.Str + s.S
	rsv := s.R * s.S * vk // one channel's slab in a transformed block
	acc := &ws.acc
	inPlace := nchw && p.inPlace
	px := nchw && b.px != nil
	step := vw // output columns per tile
	if px {
		step = pxTile
	}

	for ct := 0; ct < s.C; ct += tc { // L3
		tcEff := tc
		if ct+tcEff > s.C {
			tcEff = s.C - ct
		}
		firstC := ct == 0
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
			tf, tfOff := ws.tf, tcEff*rsv // K-block kb's slab is tf[kb*tfOff:]
			if pre != nil {
				tf, tfOff = pre[(kt/vk*s.C+ct)*rsv:], s.C*rsv
			}

			for n := nr.Lo; n < nr.Hi; n++ { // L1 (worker slice)
				for ht := hr.Lo; ht < hr.Hi; ht += th { // L2
					hEnd := ht + th
					if hEnd > hr.Hi {
						hEnd = hr.Hi
					}
					for oh := ht; oh < hEnd; oh++ { // L5
						if fs.Stopped() {
							return
						}
						for qt0 := wr.Lo; qt0 < wr.Hi; qt0 += step { // L6
							if fs.Stopped() {
								return
							}
							vwEff := min(step, wr.Hi-qt0)
							g := p.geometry(oh, qt0)
							g.wIn = wIn
							src, pitch := ws.buf, wIn
							if inPlace {
								src, pitch = v.d[n*v.img+ct*v.ch+g.ihBase*s.W+g.iwBase-v.first:], v.ch
							}

							for kb := 0; kb < kvBlocks; { // L7
								tfBlock := tf[kb*tfOff:]
								if px {
									kBase := kt + kb*vk
									o, stride, ep, resT := p.tileOut(res, true, n, kBase, oh, qt0, lastC)
									t0 = now(ws)
									b.px(out[o:], resT, src, tfBlock, ep, kBase, min(kBase+vk, kHi), tcEff, pitch, stride, vwEff, !firstC)
									addTime(ws, &ws.stats.KernelSec, t0)
									kb++
									continue
								}
								nb := b.span(kb, kvBlocks)
								clear(acc[:nb])
								pack := kb == 0 && !inPlace
								if pack && p.opts.SequentialPack {
									t0 = now(ws)
									if nchw {
										packNCHW(v.d, ws.buf, g, n, s.C, s.H, s.W, ct, tcEff, s.R)
									} else {
										packNHWC(v.d, ws.buf, g, n, s.C, s.H, s.W, ct, tcEff, s.R)
									}
									addTime(ws, &ws.stats.PackSec, t0)
								}
								t0 = now(ws)
								if pack && !p.opts.SequentialPack {
									p.packCompute(b, acc, nb, v.d, ws.buf, tfBlock, tfOff, g, n, ct, tcEff, vwEff, nchw)
								} else {
									b.run(acc, nb, src, tfBlock, tfOff, tcEff*s.R, vwEff, pitch)
								}
								addTime(ws, &ws.stats.KernelSec, t0)
								t0 = now(ws)
								for j := 0; j < nb; j++ {
									p.store(b.vst, &acc[j], out, res, nchw, n, kt+(kb+j)*vk, kHi, oh, qt0, vwEff, firstC, lastC)
								}
								addTime(ws, &ws.stats.StoreSec, t0)
								kb += nb
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
	if ws.timed {
		*dst += elapsed(t0)
	}
}

// elapsed is addTime's clock read, out of line so that a disabled timer
// inlines to one branch.
func elapsed(t0 time.Time) float64 { return time.Since(t0).Seconds() }
