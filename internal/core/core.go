// Package core implements nDirect, the paper's direct convolution
// algorithm for ARM multi-cores (Algorithm 2).
//
// nDirect preserves the framework-native NCHW/NHWC activation layouts
// and KCRS filter layout. It tiles the loop nest at two levels — cache
// tiles T_c/T_k/T_h from the Equation 1–2 analytical model, and the
// V_w=12 × V_k=8 register tile Equations 3–4 solve for the paper's 3×3
// working example, on which every standard plan runs — transforms the filter
// block to a vector-friendly blocking on the fly (line 5 of
// Algorithm 2), packs the input micro-panel into a linear buffer
// overlapped with the first compute pass (§5.3), and runs an
// outer-product micro-kernel (Algorithm 3) built on scalar-vector FMA.
// Parallelisation follows §6: a PT_k × PT_n static thread grid over
// the K and N/H/W dimensions, never over the reduction dimensions.
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"ndirect/internal/conv"
	"ndirect/internal/hw"
	"ndirect/internal/model"
	"ndirect/internal/parallel"
	"ndirect/internal/tensor"
)

// EpilogueParams is the fused epilogue applied when the last
// input-channel tile is stored: per-channel bias, per-channel affine
// (the inference form of batch normalisation, y = x·Scale[k] +
// Shift[k]), a residual operand added element for element, and ReLU,
// applied in exactly that order while the accumulator tile is still in
// registers — the operator fusion of §8.3 extended to the
// Conv→BN→(+identity)→ReLU chains real networks serve. The order and
// the per-element float32 expressions match the separate addBias →
// applyBN → residual add → applyReLU passes, so fused output is
// bit-identical to the unfused path. Each non-nil slice must have
// length K; Scale and Shift must be both nil or both set. The slices
// are captured by the plan, not copied — callers must not mutate them
// while the plan is alive (the plan-cache key hashes their contents, so
// mutation would also corrupt cache identity).
//
// Residual says the store reads a second operand of the output's shape
// and layout. The operand is per execution, so a plan built with it
// executes only through Plan.TryExecuteResidualCtx, and that entry point
// accepts no other plan; either mismatch is an ErrBadOptions. Only
// standard plans take it (depthwise and separable plans reject it).
type EpilogueParams struct {
	Bias     []float32
	Scale    []float32
	Shift    []float32
	Residual bool
	ReLU     bool
}

// epilogue is the plan-normalised epilogue the store/fallback paths
// consult: EpilogueParams lowers to it at plan construction, so the hot
// store loop tests plain fields and a nil pointer costs one flag.
type epilogue struct {
	bias     []float32 // nil = no bias
	scale    []float32 // nil = no affine; shift is paired
	shift    []float32
	residual bool // the execution carries a residual operand
	relu     bool
	none     bool // fast path: store raw accumulators
}

// normalizeEpilogue lowers an epilogue selection (nil = none).
func normalizeEpilogue(fe *EpilogueParams) epilogue {
	if fe == nil {
		return epilogue{none: true}
	}
	ep := epilogue{bias: fe.Bias, scale: fe.Scale, shift: fe.Shift, residual: fe.Residual, relu: fe.ReLU}
	ep.none = fe.Bias == nil && fe.Scale == nil && !fe.Residual && !fe.ReLU
	return ep
}

// Options configure plan construction. The zero value asks for the
// paper's defaults: analytically derived tile sizes for the given
// platform, overlapped packing, and one worker per available core.
type Options struct {
	// Threads is the worker count PT. 0 means parallel.DefaultThreads.
	Threads int
	// Platform supplies cache geometry and α for the analytical
	// models. Nil selects a generic profile (64 KiB L1 / 512 KiB L2 /
	// 1 MiB LLC share, α=2), suitable for unknown hosts.
	Platform *hw.Platform
	// SequentialPack disables the §5.3 packing/compute overlap and
	// packs each micro-panel in a separate pass before computing —
	// the baseline ablated in Figure 5.
	SequentialPack bool
	// ForceTc/ForceTk/ForceTh override the cache-tile solver
	// (auto-tuning hooks; 0 keeps the analytical value).
	ForceTc, ForceTk, ForceTh int
	// FusedEpilogue, when non-nil, selects the fused epilogue (bias +
	// per-channel affine + residual add + ReLU, see EpilogueParams). Nil
	// stores raw accumulators.
	FusedEpilogue *EpilogueParams
	// DepthwiseEpilogue is the depthwise-stage epilogue of a separable
	// plan (length C; typically the folded depthwise BN + ReLU), applied
	// to each depthwise row tile before the fused pointwise stage
	// consumes it. Only TryNewSeparablePlan honors it; the standard and
	// depthwise plans reject it so a misrouted option fails loudly
	// instead of being silently ignored. For a separable plan,
	// FusedEpilogue above is the pointwise-stage epilogue (length K).
	DepthwiseEpilogue *EpilogueParams
	// CollectStats makes Execute accumulate per-stage wall time,
	// readable via Plan.LastStats (filter transform, packing,
	// kernel, store).
	CollectStats bool
	// PlanCache, when non-nil, makes the one-shot entry points
	// (TryConv2D and friends, the NHWC/grouped/pointwise forms) fetch
	// their plan from the cache instead of re-solving the Equation 1–6
	// analytical models per call — the cross-call amortisation a
	// serving workload wants. Nil (the default) keeps the seed
	// behaviour: a fresh plan per call. The field itself is not part
	// of the cache key.
	PlanCache *PlanCache
}

// genericPlatform is the tile-model profile used when no platform is
// given.
var genericPlatform = hw.Platform{
	Name:       "generic",
	Cores:      1,
	FreqGHz:    2.0,
	PeakGFLOPS: 16,
	L1:         hw.Cache{SizeBytes: 64 << 10, LineBytes: 64, Ways: 8, LatencyCycles: 4},
	L2:         hw.Cache{SizeBytes: 512 << 10, LineBytes: 64, Ways: 8, LatencyCycles: 14},
	L3:         hw.Cache{SizeBytes: 1 << 20, LineBytes: 64, Ways: 16, LatencyCycles: 40},
	FMAPipes:   2, FMALatency: 4, LoadPipes: 2, MemLatencyCycles: 160,
	Alpha: 2.0,
}

// Plan is a prepared nDirect convolution: shape-specialised tile
// sizes, thread mapping and scratch-space geometry. A Plan is
// immutable after construction and safe for concurrent Execute calls
// (each call checks out a pooled run state — worker scratch, task
// closures, fault sink — and returns it when the grid joins, so the
// steady state allocates nothing).
type Plan struct {
	Shape conv.Shape
	RT    model.RegTile
	CT    model.CacheTiles
	TM    model.ThreadMapping

	opts     Options
	platform hw.Platform
	threads  int
	family   *kernelFamily // body bound at plan time: the standard family (dispatch.go)
	px       *kernelFamily // the pointwise family, nil unless bound (pixelFamilyFor)
	ep       epilogue      // normalised fused epilogue
	inPlace  bool          // 1×1 unpadded: NCHW tiles are read where they lie, never packed
	grid     conv.Shape    // the shape the plan tiles: Shape, or its planes as one row (flatten)
	outP     int           // grid.P(), solved once: the tile store and the worker read it per block
	outQ     int           // grid.Q()
	colTile  int           // output columns per wRanges unit: V_w, or pxTile with the pointwise family

	// The static thread grid (§6) is a pure function of the plan, so
	// the per-dimension worker ranges are solved once here instead of
	// per execution.
	kRanges []parallel.Range // K, in Vk blocks
	nRanges []parallel.Range // batch
	hRanges []parallel.Range // output rows
	wRanges []parallel.Range // output columns, in colTile units

	runs runPool // reusable run states (scratch + task closures)

	runSeq       atomic.Uint64 // stamps each run for stats ordering
	statsMu      sync.Mutex
	lastStats    Stats  // most recent run's stats, under CollectStats
	lastStatsSeq uint64 // runSeq stamp of lastStats, under statsMu
}

// LastStats returns the per-stage times of the most recent run when
// Options.CollectStats is set. Safe against concurrent Execute calls
// on the same plan: each run replaces the stored value under a lock
// once all of its workers have terminated, and runs are stamped with a
// sequence number so a deadline-abandoned run whose stragglers exit
// late never overwrites the snapshot of a newer completed run.
func (p *Plan) LastStats() Stats {
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	return p.lastStats
}

// Stats aggregates per-stage wall time across workers (total CPU
// seconds, not elapsed).
type Stats struct {
	TransformSec float64 // filter layout transform (Alg. 2 line 5)
	PackSec      float64 // input packing micro-kernel (line 8)
	KernelSec    float64 // main micro-kernel (line 10)
	StoreSec     float64 // output register tile store
}

func (s Stats) total() float64 { return s.TransformSec + s.PackSec + s.KernelSec + s.StoreSec }

// Fractions returns each stage's share of the total stage time.
func (s Stats) Fractions() (transform, pack, kernel, store float64) {
	t := s.total()
	if t == 0 {
		return 0, 0, 0, 0
	}
	return s.TransformSec / t, s.PackSec / t, s.KernelSec / t, s.StoreSec / t
}

// validateOptions rejects Options values the planner cannot honour.
// Every failure wraps ErrBadOptions. Threads <= 0 is not an error (it
// selects the default), but a count past maxThreads is.
func validateOptions(s conv.Shape, opt Options) error {
	if opt.Threads > maxThreads {
		return fmt.Errorf("%w: Threads=%d exceeds %d", ErrBadOptions, opt.Threads, maxThreads)
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"ForceTc", opt.ForceTc}, {"ForceTk", opt.ForceTk}, {"ForceTh", opt.ForceTh}} {
		if f.v < 0 {
			return fmt.Errorf("%w: %s=%d is negative", ErrBadOptions, f.name, f.v)
		}
	}
	if opt.DepthwiseEpilogue != nil {
		return fmt.Errorf("%w: DepthwiseEpilogue only applies to separable plans", ErrBadOptions)
	}
	return validateChannelEpilogue(opt.FusedEpilogue, s.K, "fused", true)
}

// TryNewPlan derives an execution plan for the shape: the 12×8 register
// tile, cache tiles from Equations 1–2, thread mapping from Equations
// 5–6. It is the checked, panic-free constructor; the
// returned errors wrap conv.ErrBadShape or ErrBadOptions.
func TryNewPlan(s conv.Shape, opt Options) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := validateOptions(s, opt); err != nil {
		return nil, err
	}
	g := flatten(s)
	p := &Plan{Shape: s, grid: g, opts: opt, outP: g.P(), outQ: g.Q()}
	p.platform = genericPlatform
	if opt.Platform != nil {
		p.platform = *opt.Platform
	}
	p.threads = opt.Threads
	if p.threads <= 0 {
		p.threads = parallel.DefaultThreads()
	}

	// Register tile: every standard plan runs on the 12×8 file, whatever
	// Equations 3–4 solve to for its (S, stride); Registers and FAI are
	// the model's values for that tile, kept for reporting. Every body of
	// the file takes any (R, S, stride), so every shape binds the standard
	// family (dispatch.go).
	p.RT = model.RegTile{Vw: maxVw, Vk: 8,
		Registers: model.RegistersUsed(maxVw, 8, s.S),
		FAI:       model.FAI(maxVw, 8, s.S, s.Str)}
	p.family = standardFamily
	p.px = pixelFamilyFor(s)
	dispatchHits.Add(1)

	// The tiles, the thread grid and the store offsets are solved on the
	// grid shape; operands are checked against Shape.
	p.CT = model.SolveCacheTiles(p.platform, g, p.RT)
	if opt.ForceTc > 0 {
		p.CT.Tc = min(opt.ForceTc, s.C)
	}
	if opt.ForceTk > 0 {
		p.CT.Tk = max(p.RT.Vk, opt.ForceTk/p.RT.Vk*p.RT.Vk)
	}
	if opt.ForceTh > 0 {
		p.CT.Th = min(opt.ForceTh, p.outP)
	}

	p.TM = model.SolveThreadMapping(g, p.platform.Alpha, p.threads, p.RT.Vk)

	p.ep = normalizeEpilogue(opt.FusedEpilogue)
	// A 1×1 unpadded tile's rows are input rows as they lie: channel cv of
	// the tile starts one plane (H·W) after channel cv-1, and its columns
	// are str apart, which is the body's own column step. So the body
	// reads an NCHW tile in place — the copy-free streaming of Georganas
	// et al. — at any stride.
	p.inPlace = s.R == 1 && s.S == 1 && s.Pad == 0

	// A worker's columns are whole pointwise-body tiles where that body is
	// bound, so only the plane's last tile is ragged; the 12×8 bodies walk
	// them as four register tiles.
	p.colTile = p.RT.Vw
	if p.px != nil {
		p.colTile = pxTile
	}
	qTiles := (p.outQ + p.colTile - 1) / p.colTile
	kBlocks := (s.K + p.RT.Vk - 1) / p.RT.Vk
	p.kRanges = parallel.Split(kBlocks, p.TM.PTk)
	p.nRanges = parallel.Split(s.N, p.TM.PN)
	p.hRanges = parallel.Split(p.outP, p.TM.PH)
	p.wRanges = parallel.Split(qTiles, p.TM.PW)
	return p, nil
}

// flatten is the shape a plan of s tiles. A 1×1, stride-1, unpadded
// convolution maps input pixel i of a plane to output pixel i, in NCHW
// and NHWC alike, so its planes tile as one row of P·Q pixels (H=1,
// W=P·Q) and a register tile runs across row ends instead of stopping
// short at each one (2 of 12 columns on a 14×14 plane, 7 on a 7×7).
// Every other shape is tiled as it is.
func flatten(s conv.Shape) conv.Shape {
	if pointwiseShape(s) {
		s.H, s.W = 1, s.H*s.W
	}
	return s
}

// NewPlan is the panicking wrapper over TryNewPlan, kept for callers
// that build plans once at startup where a configuration error is a
// programming error.
func NewPlan(s conv.Shape, opt Options) *Plan {
	p, err := TryNewPlan(s, opt)
	if err != nil {
		panic(err)
	}
	return p
}

// TryConv2D runs a one-shot nDirect convolution on NCHW input and
// KCRS filter, returning a fresh NKPQ output tensor. All shape,
// option and operand problems surface as errors wrapping
// conv.ErrBadShape, ErrBadOptions or conv.ErrDimMismatch; the
// function never panics.
func TryConv2D(s conv.Shape, in, filter *tensor.Tensor, opt Options) (*tensor.Tensor, error) {
	p, err := planFor(s, opt)
	if err != nil {
		return nil, err
	}
	if err := conv.ValidateOperands(s, in, filter); err != nil {
		return nil, err
	}
	out := s.NewOutput()
	if err := p.TryExecute(in, filter, out); err != nil {
		return nil, err
	}
	return out, nil
}

// TryConv2DCtx is TryConv2D bounded by ctx: when the context expires
// or is canceled before the worker grid finishes, the grid is
// abandoned and the call returns an error wrapping conv.ErrDeadline
// and the context's cause. See Plan.TryExecuteCtx.
func TryConv2DCtx(ctx context.Context, s conv.Shape, in, filter *tensor.Tensor, opt Options) (*tensor.Tensor, error) {
	p, err := planFor(s, opt)
	if err != nil {
		return nil, err
	}
	if err := conv.ValidateOperands(s, in, filter); err != nil {
		return nil, err
	}
	out := s.NewOutput()
	if err := p.TryExecuteCtx(ctx, in, filter, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Conv2D is the panicking wrapper over TryConv2D.
func Conv2D(s conv.Shape, in, filter *tensor.Tensor, opt Options) *tensor.Tensor {
	out, err := TryConv2D(s, in, filter, opt)
	if err != nil {
		panic(err)
	}
	return out
}

// TryConv2DNHWC runs nDirect on an NHWC input and KCRS filter,
// producing an NPQK (NHWC) output — the other framework layout
// nDirect supports natively, without converting the activation
// tensors. Checked variant: never panics.
func TryConv2DNHWC(s conv.Shape, in, filter *tensor.Tensor, opt Options) (*tensor.Tensor, error) {
	p, err := planFor(s, opt)
	if err != nil {
		return nil, err
	}
	out := tensor.New(s.N, s.P(), s.Q(), s.K)
	if err := p.TryExecuteNHWC(in, filter, out); err != nil {
		return nil, err
	}
	return out, nil
}

// TryConv2DNHWCCtx is the context-bounded form of TryConv2DNHWC.
func TryConv2DNHWCCtx(ctx context.Context, s conv.Shape, in, filter *tensor.Tensor, opt Options) (*tensor.Tensor, error) {
	p, err := planFor(s, opt)
	if err != nil {
		return nil, err
	}
	out := tensor.New(s.N, s.P(), s.Q(), s.K)
	if err := p.TryExecuteNHWCCtx(ctx, in, filter, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Conv2DNHWC is the panicking wrapper over TryConv2DNHWC.
func Conv2DNHWC(s conv.Shape, in, filter *tensor.Tensor, opt Options) *tensor.Tensor {
	out, err := TryConv2DNHWC(s, in, filter, opt)
	if err != nil {
		panic(err)
	}
	return out
}
