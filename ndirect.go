// Package ndirect is a from-scratch Go implementation of nDirect
// (Wang et al., "Optimizing Direct Convolutions on ARM Multi-Cores",
// SC'23): a direct convolution library that keeps the framework-
// native NCHW/NHWC activation and KCRS filter layouts while matching
// or beating layout-specialised approaches, via analytically derived
// cache and register tiling (Equations 1–4), an outer-product
// micro-kernel, packing overlapped with computation (§5.3) and a
// workload-aware thread mapping (Equations 5–6).
//
// Quick start:
//
//	s := ndirect.Shape{N: 1, C: 64, H: 56, W: 56, K: 64, R: 3, S: 3, Str: 1, Pad: 1}
//	in := ndirect.NewTensor(s.N, s.C, s.H, s.W)   // NCHW
//	w := ndirect.NewTensor(s.K, s.C, s.R, s.S)    // KCRS
//	out := ndirect.Conv2D(s, in, w, ndirect.Options{})
//
// For repeated execution of one layer, build a Plan once:
//
//	plan := ndirect.NewPlan(s, ndirect.Options{Threads: 8})
//	plan.Execute(in, w, out)
//
// The internal packages additionally provide the paper's baselines
// (im2col+GEMM, LIBXSMM-style, XNNPACK-style, ACL-style, an Ansor-
// substitute autotuner), the machine model used to project results
// onto the paper's four ARM platforms, and the benchmark harness that
// regenerates every table and figure (cmd/ndbench).
package ndirect

import (
	"context"
	"fmt"

	"ndirect/internal/autotune"
	"ndirect/internal/conv"
	"ndirect/internal/core"
	"ndirect/internal/hw"
	"ndirect/internal/parallel"
	"ndirect/internal/serve"
	"ndirect/internal/tensor"
)

// Sentinel errors of the checked (Try*) API. Every validation failure
// returned by a Try* function or a (*Plan).Try* method wraps one of
// these, so callers classify with errors.Is.
var (
	// ErrBadShape: a Shape that does not describe a realisable
	// convolution (non-positive or oversized dimension, kernel larger
	// than the padded input, tensor sizes past the element limit).
	ErrBadShape = conv.ErrBadShape
	// ErrDimMismatch: an operand tensor whose rank, dimensions or
	// backing-buffer length disagree with the Shape.
	ErrDimMismatch = conv.ErrDimMismatch
	// ErrBadOptions: an Options value the planner cannot honour
	// (misaligned forced tiles, unknown epilogue, wrong bias length,
	// excessive thread count).
	ErrBadOptions = core.ErrBadOptions
	// ErrBadSchedule: an autotuner schedule that is inadmissible for
	// the shape it is applied to.
	ErrBadSchedule = autotune.ErrBadSchedule
	// ErrWorkerPanic: a panic recovered inside a parallel worker and
	// converted into an error by the fault-tolerant runtime.
	ErrWorkerPanic = parallel.ErrWorkerPanic
	// ErrDeadline: a *Ctx execution abandoned because its context
	// expired before the thread grid finished. Errors wrapping it
	// also wrap the context's cause, so both
	// errors.Is(err, ErrDeadline) and
	// errors.Is(err, context.DeadlineExceeded) hold.
	ErrDeadline = conv.ErrDeadline
	// ErrCanceled: the parallel runtime's sentinel for a worker group
	// abandoned on cancellation (wrapped by ErrDeadline errors).
	ErrCanceled = parallel.ErrCanceled
	// ErrOverloaded: the serving runtime refused the request before
	// doing any convolution work — admission control found the wait
	// queue full (or no slot freed before the deadline), or the memory
	// budget could not cover even the bottom rung of the degradation
	// ladder. The request can be retried once load drains; no partial
	// work was done.
	ErrOverloaded = core.ErrOverloaded
	// ErrIntegrity: detected silent data corruption — a packed filter
	// failing its pack-time CRC32-C before consumption, a scratch or
	// output-buffer canary overwritten by an out-of-bounds store, or a
	// kernel family diverging from the reference oracle on its golden
	// probe. Never silently repaired at this level: the artifact may
	// stay corrupt, so the owner must discard and rebuild it (the nn
	// engine re-packs, the serving runtime quarantines).
	ErrIntegrity = core.ErrIntegrity
)

// LeakedWorkers reports worker goroutines abandoned by expired-context
// joins that are still running; see parallel.LeakedWorkers.
func LeakedWorkers() int64 { return parallel.LeakedWorkers() }

// Shape describes a convolution in the paper's notation: input
// I[N][C][H][W], filter F[K][C][R][S], stride Str and symmetric zero
// padding Pad.
type Shape = conv.Shape

// Tensor is a dense FP32 tensor (flat buffer + shape, last dimension
// contiguous).
type Tensor = tensor.Tensor

// Options configure plan construction; the zero value selects the
// analytical-model defaults. See core.Options for every knob
// (thread count, target platform, packing mode, forced tiles, fused
// epilogues).
type Options = core.Options

// Plan is a prepared, reusable convolution execution plan.
type Plan = core.Plan

// PlanCache is a concurrency-safe LRU cache of plans keyed by
// (Shape, Options), for serving workloads that see the same layer
// geometries call after call: set Options.PlanCache and the one-shot
// entry points (Conv2D and friends, the NHWC/grouped/pointwise forms)
// amortise the Eq. 1–6 analytical solve to a map lookup. See also
// nn.Engine.Reuse for the network-level switch.
type PlanCache = core.PlanCache

// NewPlanCache returns a plan cache bounded to capacity entries
// (least-recently-used eviction; capacity <= 0 selects
// core.DefaultPlanCacheCap).
func NewPlanCache(capacity int) *PlanCache { return core.NewPlanCache(capacity) }

// PlanCacheStats is a point-in-time snapshot of a PlanCache's
// hit/miss/eviction counters and population, via (*PlanCache).Stats.
type PlanCacheStats = core.PlanCacheStats

// Server is the overload-safe serving runtime: admission control with
// a bounded deadline-aware wait queue, a global memory budget with an
// explicit degradation ladder (pooled buffer → fresh allocation →
// smaller-tile plan → reference path), and gated network forward
// passes whose engine can quarantine failing baseline backends behind
// circuit breakers. Requests that cannot be served within those
// bounds fail fast with errors wrapping ErrOverloaded. See
// internal/serve and the README's "Serving hardening" section.
type Server = serve.Runtime

// ServeConfig configures NewServer; the zero value gives one
// in-flight request per core, an equal-size wait queue, accounting
// without a memory ceiling, and a private plan cache.
type ServeConfig = serve.Config

// ServeStats is the Server's counter snapshot (admission, memory,
// ladder rungs, pool and plan-cache activity).
type ServeStats = serve.Stats

// NewServer builds an overload-safe serving runtime.
func NewServer(cfg ServeConfig) *Server { return serve.New(cfg) }

// PackedFilter is a whole-filter pre-transformation of KCRS weights
// into the vector-blocked ⌈K/Vk⌉·C·R·S·Vk layout the micro-kernel
// consumes — build it once per layer with Plan.TransformFilter and
// execute with Plan.TryExecutePacked to skip the per-call on-the-fly
// transform (Algorithm 2 line 5) with bit-identical results.
type PackedFilter = core.PackedFilter

// EpilogueParams is the fused epilogue (per-channel bias,
// per-channel affine — the inference form of batch normalisation — a
// residual operand added element for element, and ReLU) applied inside
// the output store while the accumulator tile is still in registers.
// Select it via Options.FusedEpilogue; output is bit-identical to
// running the separate bias/BN/add/ReLU passes. A plan built with
// Residual executes through Plan.TryExecuteResidualCtx, which takes the
// operand.
type EpilogueParams = core.EpilogueParams

// WorkerPool is the persistent pool of parked worker goroutines every
// parallel loop dispatches onto at steady state (one worker per
// GOMAXPROCS by default). See DefaultWorkerPool.
type WorkerPool = parallel.Pool

// WorkerPoolStats snapshots a pool's dispatch counters; Spawned
// staying flat across calls is the "no new goroutines at steady
// state" invariant.
type WorkerPoolStats = parallel.PoolStats

// DefaultWorkerPool returns the process-wide worker pool, starting it
// on first use.
func DefaultWorkerPool() *WorkerPool { return parallel.DefaultPool() }

// Platform describes a target machine (cache geometry, peak FLOPS,
// the calibrated α of §6.2). The paper's four evaluation platforms
// are available via Platforms / PlatformByName.
type Platform = hw.Platform

// Platforms lists the paper's Table 3 machines.
var Platforms = hw.Platforms

// PlatformByName resolves "phytium", "kp920", "tx2"/"thunderx2" or
// "rpi4" (and the full Table 3 names).
func PlatformByName(name string) (Platform, bool) { return hw.ByName(name) }

// NewTensor allocates a zero tensor with the given dimensions.
func NewTensor(dims ...int) *Tensor { return tensor.New(dims...) }

// TensorFromSlice wraps an existing float32 buffer (shared storage).
func TensorFromSlice(data []float32, dims ...int) *Tensor {
	return tensor.FromSlice(data, dims...)
}

// NewPlan derives an nDirect execution plan for the shape: register
// tile from Equations 3–4, cache tiles from Equations 1–2, thread
// mapping from Equations 5–6. It panics on an invalid shape or
// options; use TryNewPlan for the checked form.
func NewPlan(s Shape, opt Options) *Plan { return core.NewPlan(s, opt) }

// TryNewPlan is the checked form of NewPlan: instead of panicking it
// returns an error wrapping ErrBadShape or ErrBadOptions. The
// resulting Plan additionally offers the checked execution methods
// TryExecute, TryExecuteNHWC and TryExecuteAdd.
func TryNewPlan(s Shape, opt Options) (*Plan, error) { return core.TryNewPlan(s, opt) }

// Conv2D convolves an NCHW input with a KCRS filter, returning a
// freshly allocated NKPQ output. It panics on invalid arguments; use
// TryConv2D for the checked form.
func Conv2D(s Shape, in, filter *Tensor, opt Options) *Tensor {
	return core.Conv2D(s, in, filter, opt)
}

// TryConv2D is the checked form of Conv2D: invalid shapes, options or
// operand tensors return an error (wrapping ErrBadShape,
// ErrBadOptions or ErrDimMismatch) instead of panicking, and an
// execution fault on the optimised path degrades to the reference
// path — a nil error always comes with a correct output.
func TryConv2D(s Shape, in, filter *Tensor, opt Options) (*Tensor, error) {
	return core.TryConv2D(s, in, filter, opt)
}

// TryConv2DCtx is TryConv2D bounded by ctx: when the context expires
// before the thread grid finishes, the run is abandoned (cooperative
// stop flag plus a detached join — see DESIGN.md §5) and the error
// wraps both ErrDeadline and the context's cause. With a positive
// Options.FallbackBudget the result is instead recomputed on the
// reference path within that budget. A context without a deadline
// costs nothing.
func TryConv2DCtx(ctx context.Context, s Shape, in, filter *Tensor, opt Options) (*Tensor, error) {
	return core.TryConv2DCtx(ctx, s, in, filter, opt)
}

// Conv2DNHWC convolves an NHWC input with a KCRS filter, returning an
// NPQK (NHWC) output — no activation layout conversion is performed
// in either direction.
func Conv2DNHWC(s Shape, in, filter *Tensor, opt Options) *Tensor {
	return core.Conv2DNHWC(s, in, filter, opt)
}

// TryConv2DNHWC is the checked form of Conv2DNHWC.
func TryConv2DNHWC(s Shape, in, filter *Tensor, opt Options) (*Tensor, error) {
	return core.TryConv2DNHWC(s, in, filter, opt)
}

// TryConv2DNHWCCtx is TryConv2DNHWC bounded by ctx (see TryConv2DCtx).
func TryConv2DNHWCCtx(ctx context.Context, s Shape, in, filter *Tensor, opt Options) (*Tensor, error) {
	return core.TryConv2DNHWCCtx(ctx, s, in, filter, opt)
}

// DepthwiseConv2D computes a per-channel (depthwise) convolution:
// in is NCHW, filter is [C, R, S] (§10.2).
func DepthwiseConv2D(s Shape, in, filter *Tensor, opt Options) *Tensor {
	return core.DepthwiseConv2D(s, in, filter, opt)
}

// TryDepthwiseConv2D is the checked form of DepthwiseConv2D.
func TryDepthwiseConv2D(s Shape, in, filter *Tensor, opt Options) (*Tensor, error) {
	return core.TryDepthwiseConv2D(s, in, filter, opt)
}

// TryDepthwiseConv2DCtx is TryDepthwiseConv2D bounded by ctx (see
// TryConv2DCtx).
func TryDepthwiseConv2DCtx(ctx context.Context, s Shape, in, filter *Tensor, opt Options) (*Tensor, error) {
	return core.TryDepthwiseConv2DCtx(ctx, s, in, filter, opt)
}

// PointwiseShape builds the conv.Shape of a 1×1 (pointwise)
// convolution over an N×C×H×W input producing K output channels — the
// explicit-shape form the pointwise entry points consume.
func PointwiseShape(n, c, h, w, k int) Shape { return core.PointwiseShape(n, c, h, w, k) }

// TryPointwiseConv2DShape computes a 1×1 convolution for an explicit
// pointwise shape (R = S = 1, stride 1, pad 0 — anything else fails
// with ErrBadShape).
func TryPointwiseConv2DShape(s Shape, in, filter *Tensor, opt Options) (*Tensor, error) {
	return core.TryPointwiseConv2DShape(s, in, filter, opt)
}

// TryPointwiseConv2DShapeCtx is TryPointwiseConv2DShape bounded by
// ctx (see TryConv2DCtx).
func TryPointwiseConv2DShapeCtx(ctx context.Context, s Shape, in, filter *Tensor, opt Options) (*Tensor, error) {
	return core.TryPointwiseConv2DShapeCtx(ctx, s, in, filter, opt)
}

// DepthwisePlan is the reusable execution state for a depthwise
// convolution: register-tiled 3×3 micro-kernels behind the shape
// dispatch, a packed per-channel filter layout (TransformFilter), a
// pooled scratch grid, and the same fault ladder as Plan.
type DepthwisePlan = core.DepthwisePlan

// TryNewDepthwisePlan builds a DepthwisePlan for the depthwise
// geometry s (s.K must equal s.C; filter is [C, R, S]).
func TryNewDepthwisePlan(s Shape, opt Options) (*DepthwisePlan, error) {
	return core.TryNewDepthwisePlan(s, opt)
}

// PackedDepthwiseFilter is the pre-transformed, CRC32-C-protected
// per-channel filter artifact a DepthwisePlan (or SeparablePlan)
// executes packed with.
type PackedDepthwiseFilter = core.PackedDepthwiseFilter

// SeparableShape describes a fused depthwise-separable block: the
// depthwise stage's geometry plus the pointwise stage's K output
// channels (always 1×1, stride 1, pad 0 on the depthwise output).
type SeparableShape = core.SeparableShape

// SeparablePlan executes a depthwise-separable block as ONE fused
// plan: each grid cell computes a row tile of depthwise output for
// all C channels into pooled scratch and immediately feeds it to the
// pointwise micro-kernel while cache-hot — the full [N][C][P][Q]
// intermediate is never materialised, and the result is bit-identical
// to TryDepthwiseConv2D followed by TryPointwiseConv2DShape.
type SeparablePlan = core.SeparablePlan

// TryNewSeparablePlan builds a SeparablePlan for the block shape.
func TryNewSeparablePlan(s SeparableShape, opt Options) (*SeparablePlan, error) {
	return core.TryNewSeparablePlan(s, opt)
}

// TrySeparableConv2D runs a depthwise-separable block (depthwise
// filter [C, R, S], pointwise filter [K, C, 1, 1]) through the fused
// executor, returning the freshly allocated [N, K, P, Q] output.
func TrySeparableConv2D(s SeparableShape, in, dwFilter, pwFilter *Tensor, opt Options) (*Tensor, error) {
	return core.TrySeparableConv2D(s, in, dwFilter, pwFilter, opt)
}

// TrySeparableConv2DCtx is TrySeparableConv2D bounded by ctx (see
// TryConv2DCtx).
func TrySeparableConv2DCtx(ctx context.Context, s SeparableShape, in, dwFilter, pwFilter *Tensor, opt Options) (*Tensor, error) {
	return core.TrySeparableConv2DCtx(ctx, s, in, dwFilter, pwFilter, opt)
}

// GroupedConv2D convolves in `groups` independent channel groups
// (filter [K, C/groups, R, S]); groups=1 is the standard convolution
// and groups=C the depthwise one — the §10.2 spectrum.
func GroupedConv2D(s Shape, groups int, in, filter *Tensor, opt Options) *Tensor {
	return core.GroupedConv2D(s, groups, in, filter, opt)
}

// TryGroupedConv2D is the checked form of GroupedConv2D.
func TryGroupedConv2D(s Shape, groups int, in, filter *Tensor, opt Options) (*Tensor, error) {
	return core.TryGroupedConv2D(s, groups, in, filter, opt)
}

// TryGroupedConv2DCtx is TryGroupedConv2D bounded by ctx (see
// TryConv2DCtx).
func TryGroupedConv2DCtx(ctx context.Context, s Shape, groups int, in, filter *Tensor, opt Options) (*Tensor, error) {
	return core.TryGroupedConv2DCtx(ctx, s, groups, in, filter, opt)
}

// Shape3D describes a 3-D convolution (§10.2): input [N,C,D,H,W],
// filter [K,C,T,R,S].
type Shape3D = core.Shape3D

// Conv3D computes a 3-D convolution by reducing 2-D nDirect
// convolutions over the kernel depth.
func Conv3D(s Shape3D, in, filter *Tensor, opt Options) *Tensor {
	return core.Conv3D(s, in, filter, opt)
}

// TryConv3D is the checked form of Conv3D.
func TryConv3D(s Shape3D, in, filter *Tensor, opt Options) (*Tensor, error) {
	return core.TryConv3D(s, in, filter, opt)
}

// TryConv3DCtx is TryConv3D bounded by ctx (see TryConv2DCtx).
func TryConv3DCtx(ctx context.Context, s Shape3D, in, filter *Tensor, opt Options) (*Tensor, error) {
	return core.TryConv3DCtx(ctx, s, in, filter, opt)
}

// Conv2D64 is the FP64 variant (§3.3): same algorithm with the
// 2-lane-per-register geometry plugged into the analytical models.
// in and filter are flat NCHW/KCRS float64 buffers; the NKPQ result
// is freshly allocated.
func Conv2D64(s Shape, in, filter []float64, opt Options) []float64 {
	return core.Conv2D64(s, in, filter, opt)
}

// TryConv2D64 is the checked form of Conv2D64.
func TryConv2D64(s Shape, in, filter []float64, opt Options) ([]float64, error) {
	return core.TryConv2D64(s, in, filter, opt)
}

// TryConv2D64Ctx is TryConv2D64 bounded by ctx (see TryConv2DCtx).
func TryConv2D64Ctx(ctx context.Context, s Shape, in, filter []float64, opt Options) ([]float64, error) {
	return core.TryConv2D64Ctx(ctx, s, in, filter, opt)
}

// Conv2DInt16 is the quantised variant (§3.3): int16 activations and
// weights with int32 accumulation (the NEON widening-MAC pattern),
// returning the raw NKPQ accumulators for the caller to requantise.
func Conv2DInt16(s Shape, in, filter []int16, opt Options) []int32 {
	return core.Conv2DInt16(s, in, filter, opt)
}

// TryConv2DInt16 is the checked form of Conv2DInt16.
func TryConv2DInt16(s Shape, in, filter []int16, opt Options) ([]int32, error) {
	return core.TryConv2DInt16(s, in, filter, opt)
}

// TryConv2DInt16Ctx is TryConv2DInt16 bounded by ctx (see
// TryConv2DCtx).
func TryConv2DInt16Ctx(ctx context.Context, s Shape, in, filter []int16, opt Options) ([]int32, error) {
	return core.TryConv2DInt16Ctx(ctx, s, in, filter, opt)
}

// Reference computes the convolution with the naive seven-loop
// Algorithm 1 — the correctness oracle (float64 accumulation).
func Reference(s Shape, in, filter *Tensor) *Tensor {
	return conv.Reference(s, in, filter)
}

// Layers returns the paper's Table 4 evaluation layers (IDs 1–28,
// batch 1; use Shape.WithBatch to scale).
func Layers() []conv.Layer { return conv.Table4 }

// Layer is one Table 4 row.
type Layer = conv.Layer

// LayerByID returns Table 4 row id (1–28).
func LayerByID(id int) (Layer, error) {
	l, ok := conv.LayerByID(id)
	if !ok {
		return Layer{}, fmt.Errorf("ndirect: no Table 4 layer with id %d", id)
	}
	return l, nil
}
