// Package serve is the overload-safe serving runtime: it wraps the
// checked, context-bounded convolution entry points (and the nn
// inference engine) with the process-level protections a production
// deployment needs and the per-call API cannot provide on its own:
//
//   - Admission control (Gate): a hard in-flight limit plus a bounded,
//     deadline-aware wait queue. Offered load beyond the queue fails
//     fast with core.ErrOverloaded instead of accumulating goroutines.
//   - A global memory budget (Budget): each admitted request reserves
//     the bytes its execution will touch (output + plan scratch;
//     packed filters are charged at Pack time) against a configurable
//     ceiling. When the reservation fails, the request walks an
//     explicit degradation ladder — pooled output buffer, fresh
//     allocation, a smaller-tile single-thread plan, and finally the
//     zero-scratch reference path — each rung recorded in Stats, so
//     pressure degrades throughput predictably instead of OOM-killing
//     the process.
//   - Backend circuit breakers live one layer down, in the nn engine
//     (Engine.BreakerThreshold); the runtime's Forward path inherits
//     them.
//
// The paper's thesis is that performance comes from explicit resource
// budgeting — register and cache tiles solved from hardware limits
// (Equations 1–4). This package extends that discipline from the
// kernel to the process: concurrency and bytes are budgeted the same
// way registers and cache lines are.
package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ndirect/internal/autotune"
	"ndirect/internal/conv"
	"ndirect/internal/core"
	"ndirect/internal/nn"
	"ndirect/internal/parallel"
	"ndirect/internal/tensor"
)

// Config configures a serving Runtime. The zero value yields a usable
// runtime: one in-flight slot per core, an equally sized wait queue,
// no memory ceiling (accounting only), and a private plan cache.
type Config struct {
	// MaxInFlight bounds concurrently executing requests. <= 0 selects
	// one per available core (each request already spawns its own
	// thread grid, so more in-flight convolutions than cores just
	// multiplies scratch memory and context switches).
	MaxInFlight int
	// MaxQueue bounds requests waiting for a slot. 0 defaults to
	// MaxInFlight; pass a negative value for "no queue, reject the
	// moment all slots are taken".
	MaxQueue int
	// MemLimitBytes is the global memory ceiling for in-flight
	// request memory. <= 0 disables the ceiling but keeps accounting.
	MemLimitBytes int64
	// PoolIdleBytes bounds the activation pool's idle (parked) bytes.
	// <= 0 selects DefaultPoolIdleBytes.
	PoolIdleBytes int64
	// PlanCacheCap is the runtime plan cache's entry bound (<= 0:
	// core.DefaultPlanCacheCap).
	PlanCacheCap int
	// BatchWindow is not read: every request runs as its own plan
	// execution.
	//
	// Deprecated: ignored; kept until benchmark/ stops setting it.
	BatchWindow time.Duration
	// BatchMax is not read.
	//
	// Deprecated: ignored; kept until benchmark/ stops setting it.
	BatchMax int
	// Options are the base convolution options for every request
	// (threads, platform, epilogue, FallbackBudget, CheckNumerics...).
	// The PlanCache field is ignored: the runtime always routes
	// through its own cache.
	Options core.Options
	// Engine, when non-nil, serves the Forward path. Nil selects a
	// private nDirect engine with Reuse on, sharing the runtime's plan
	// cache. Configure breaker fields (BreakerThreshold) on the engine
	// to quarantine failing baseline backends.
	Engine *nn.Engine
	// SentinelInterval enables the background integrity sentinel: every
	// interval, while the admission gate is fully idle (no request in
	// flight or queued — the sentinel never takes a slot), one
	// round-robin golden-shape probe runs: a registered kernel-dispatch
	// family is re-verified bit-for-bit against the single-threaded
	// reference (core.VerifyKernelFamily), or a registered model's fast
	// engine is compared against its reference engine. A miscomparing
	// kernel family is quarantined out of dispatch (every plan bound to
	// it runs the bit-identical looped kernel from its next execution);
	// a miscomparing model is quarantined to its reference path. Both
	// are restored by the first clean probe. 0 (the default) disables
	// the sentinel.
	SentinelInterval time.Duration
	// Manifest, when non-nil, warm-starts the runtime from an offline
	// `ndtune -manifest` run: each valid entry's shape is registered
	// with the core kernel-dispatch registry and its plan pre-built
	// into the runtime cache at construction, and registry-registered
	// models covered by the manifest are fully warmed (plans, memos,
	// packed weights) at Register time — production traffic on covered
	// shapes then never pays autotune or plan-construction latency.
	// Entries failing validation are dropped with a log, never fatal.
	Manifest *autotune.Manifest
}

// DefaultPoolIdleBytes bounds the activation pool when Config leaves
// PoolIdleBytes zero: enough to park a few large layer outputs without
// holding a serving process's budget hostage.
const DefaultPoolIdleBytes int64 = 32 << 20

// DefaultBatchMax is not read.
//
// Deprecated: ignored; kept until benchmark/ stops using it.
const DefaultBatchMax = 8

// Runtime is the overload-safe serving runtime. All methods are safe
// for concurrent use.
type Runtime struct {
	gate     *Gate
	budget   *Budget
	plans    *core.PlanCache
	pool     *bufferPool
	opts     core.Options
	engine   *nn.Engine
	manifest *autotune.Manifest
	sentinel *sentinel // nil: sentinel disabled

	degradedOnce sync.Once
	degraded     core.Options

	poolHits       atomic.Uint64
	freshAllocs    atomic.Uint64
	fullRuns       atomic.Uint64
	degRuns        atomic.Uint64
	refRuns        atomic.Uint64
	overBudget     atomic.Uint64
	memRejected    atomic.Uint64
	recycleRefused atomic.Uint64

	// Silent-corruption defense (DESIGN.md §12).
	canaryTrips       atomic.Uint64
	integrityFailures atomic.Uint64
	sentinelProbes    atomic.Uint64
	kernelQuarantines atomic.Uint64
	kernelRestores    atomic.Uint64
}

// New builds a Runtime from cfg (see Config for defaults).
func New(cfg Config) *Runtime {
	inFlight := cfg.MaxInFlight
	if inFlight <= 0 {
		inFlight = parallel.DefaultThreads()
	}
	queue := cfg.MaxQueue
	if queue == 0 {
		queue = inFlight
	}
	poolIdle := cfg.PoolIdleBytes
	if poolIdle <= 0 {
		poolIdle = DefaultPoolIdleBytes
	}
	opts := cfg.Options
	opts.PlanCache = nil
	rt := &Runtime{
		gate:   NewGate(inFlight, queue),
		budget: NewBudget(cfg.MemLimitBytes),
		plans:  core.NewPlanCache(cfg.PlanCacheCap),
		opts:   opts,
		engine: cfg.Engine,
	}
	rt.pool = newBufferPool(poolIdle, func() {
		rt.canaryTrips.Add(1)
		rt.integrityFailures.Add(1)
	})
	if rt.engine == nil {
		rt.engine = &nn.Engine{
			Algo:    nn.AlgoNDirect,
			Threads: opts.Threads,
			Reuse:   true,
			Plans:   rt.plans,
		}
	}
	if cfg.Manifest != nil {
		rt.manifest = cfg.Manifest
		if rejected := rt.manifest.Validate(); len(rejected) > 0 {
			core.Logf("serve: manifest: %d entries rejected (invalid shape or schedule); covered shapes reduced", len(rejected))
		}
		rt.engine.LoadManifest(rt.manifest)
		// Warm-start: pre-solve each covered shape's batch-1 plan into
		// the runtime cache, so the first request on a tuned shape is a
		// cache hit. Failures are logged and skipped — a bad entry
		// degrades to cold planning, never blocks startup.
		for _, e := range rt.manifest.Entries {
			if e.Depthwise {
				// Depthwise entries carry a separable row tile, not a
				// standard schedule: they reach execution through
				// Engine.LoadManifest above (nn plans separable blocks
				// with the tuned ForceTh) — nothing to pre-plan here.
				continue
			}
			if _, err := rt.plans.Get(e.Shape.WithBatch(1), rt.opts); err != nil {
				core.Logf("serve: manifest: pre-planning %v failed: %v", e.Shape, err)
			}
		}
	}
	if cfg.SentinelInterval > 0 {
		rt.sentinel = newSentinel(rt, cfg.SentinelInterval)
	}
	// Warm the process-wide worker pool at construction: the first
	// request should land on already-parked workers, not pay the
	// worker spawns (and their allocations) inside its latency budget.
	parallel.DefaultPool()
	return rt
}

// Close stops the runtime's background machinery (the integrity
// sentinel). In-flight requests are unaffected; Close is idempotent
// and a runtime without a sentinel needs no Close at all.
func (rt *Runtime) Close() {
	if rt.sentinel != nil {
		rt.sentinel.stop()
	}
}

// Budget returns the runtime's memory accountant (for charging
// deployment-owned allocations, and for the soak harness's baseline
// checks).
func (rt *Runtime) Budget() *Budget { return rt.budget }

// Gate returns the runtime's admission controller.
func (rt *Runtime) Gate() *Gate { return rt.gate }

// Engine returns the engine serving the Forward path.
func (rt *Runtime) Engine() *nn.Engine { return rt.engine }

// PlanCache returns the runtime's shared plan cache.
func (rt *Runtime) PlanCache() *core.PlanCache { return rt.plans }

// Manifest returns the validated tuning manifest the runtime was
// built with (nil without Config.Manifest).
func (rt *Runtime) Manifest() *autotune.Manifest { return rt.manifest }

// TryConv2D is TryConv2DCtx with a background context (admission can
// still fail fast on a full queue; there is no deadline to wait out).
func (rt *Runtime) TryConv2D(s conv.Shape, in, filter *tensor.Tensor) (*tensor.Tensor, error) {
	return rt.TryConv2DCtx(context.Background(), s, in, filter)
}

// TryConv2DCtx runs one NCHW convolution through the full serving
// discipline: admission (Gate), memory reservation with the
// degradation ladder, and the checked context-bounded execution
// paths. Failure modes: core.ErrOverloaded (no slot before the
// deadline, queue full, or memory budget exhausted), conv.ErrDeadline
// (admitted but the grid was abandoned on expiry and no
// FallbackBudget was granted), or the usual validation sentinels. A
// nil error always comes with a correct output.
func (rt *Runtime) TryConv2DCtx(ctx context.Context, s conv.Shape, in, filter *tensor.Tensor) (*tensor.Tensor, error) {
	release, err := rt.gate.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	return rt.convAdmitted(ctx, s, in, filter, nil)
}

// Pack pre-transforms filter for shape s against the runtime's plan
// cache and charges the packed bytes to the memory budget for the
// filter's lifetime (weights live as long as the layer — the charge
// is released by ReleasePacked). It fails with core.ErrOverloaded
// when the budget cannot cover the packed copy.
func (rt *Runtime) Pack(s conv.Shape, filter *tensor.Tensor) (*core.PackedFilter, error) {
	plan, err := rt.plans.Get(s, rt.opts)
	if err != nil {
		return nil, err
	}
	pf, err := plan.TransformFilter(filter)
	if err != nil {
		return nil, err
	}
	if !rt.budget.Reserve(pf.Bytes()) {
		return nil, fmt.Errorf("%w: memory budget cannot hold %d packed-filter bytes (in use %d of %d)",
			core.ErrOverloaded, pf.Bytes(), rt.budget.InUse(), rt.budget.Limit())
	}
	return pf, nil
}

// ReleasePacked returns a Pack-time charge when a packed filter is
// retired (model unload).
func (rt *Runtime) ReleasePacked(pf *core.PackedFilter) {
	if pf != nil {
		rt.budget.Release(pf.Bytes())
	}
}

// TryConv2DPackedCtx is TryConv2DCtx consuming a Pack-built filter:
// the full and degraded rungs read the persistent blocked weights in
// place (bit-identical, zero transform time), the reference rung
// recomputes from the packed filter's KCRS source.
func (rt *Runtime) TryConv2DPackedCtx(ctx context.Context, s conv.Shape, in *tensor.Tensor, pf *core.PackedFilter) (*tensor.Tensor, error) {
	release, err := rt.gate.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	return rt.convAdmitted(ctx, s, in, nil, pf)
}

// Forward runs a network forward pass under admission control with
// the runtime's engine (whose own protections — plan/weight reuse,
// per-layer ConvBudget, backend circuit breakers — apply per layer).
// ctx also bounds the pass between layers (nn.Network.TryForwardCtx).
func (rt *Runtime) Forward(ctx context.Context, net *nn.Network, x *tensor.Tensor) (*tensor.Tensor, error) {
	release, err := rt.gate.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	return net.TryForwardCtx(ctx, rt.engine, x)
}

// Recycle parks a dead output tensor's buffer in the activation pool
// for reuse by a later request. Only tensors returned by this
// runtime's conv entry points may be recycled, and the caller must not
// touch the tensor afterwards. (Safe for deadline-fallback results
// too: those publish through a fresh allocation, so the recycled
// buffer is never one an abandoned grid can still write.)
//
// Hazardous recycles are detected and refused rather than poisoning
// the pool: a view tensor (its Data does not own the full backing
// array) is never parked;
// recycling the same tensor twice parks its array once (the second
// call is refused instead of listing one buffer for two future
// requests); and a buffer the runtime did not itself hand out —
// engine-allocated Forward outputs, caller-built tensors — is refused
// outright, because only runtime-issued buffers carry the guard words
// the pool checks. Refusals are counted in Stats.RecycleRefused. A
// buffer whose guard words were overwritten is quarantined — counted
// in Stats.CanaryTrips, never parked.
func (rt *Runtime) Recycle(t *tensor.Tensor) {
	if t == nil || len(t.Data) == 0 {
		return
	}
	if len(t.Data) != cap(t.Data) {
		rt.recycleRefused.Add(1)
		return
	}
	parked, tripped := rt.pool.put(t.Data)
	if !parked && !tripped {
		rt.recycleRefused.Add(1)
	}
}

// runMode is the degradation-ladder rung a request executes on.
type runMode int

const (
	modeFull      runMode = iota // analytically tiled plan, full thread grid
	modeDegraded                 // minimal tiles, single worker: tiny scratch
	modeReference                // naive loop, zero scratch beyond the output
)

// degradedOpts derives the smaller-tile plan options once: minimal
// cache tiles and a single worker shrink the scratch estimate to a
// few KiB while keeping the result bit-identical for exactly
// representable inputs (accumulation order over c, r, s is unchanged;
// see DESIGN.md). Epilogue, numerics and fallback knobs carry over.
func (rt *Runtime) degradedOpts() core.Options {
	rt.degradedOnce.Do(func() {
		o := rt.opts
		o.Threads = 1
		o.ForceTc = 4
		o.ForceTk = 1 // solver clamps to one V_k block
		o.ForceTh = 1
		rt.degraded = o
	})
	return rt.degraded
}

// admitMemory walks the reservation ladder for one request and
// returns the granted mode, the plan to execute, and the charge to
// release when done.
func (rt *Runtime) admitMemory(s conv.Shape, plan *core.Plan) (runMode, *core.Plan, int64, error) {
	outB := plan.OutputBytes()
	if need := outB + plan.ScratchBytes(); rt.budget.Reserve(need) {
		return modeFull, plan, need, nil
	}
	rt.overBudget.Add(1)
	if dplan, err := rt.plans.Get(s, rt.degradedOpts()); err == nil {
		if need := outB + dplan.ScratchBytes(); rt.budget.Reserve(need) {
			return modeDegraded, dplan, need, nil
		}
	}
	if rt.budget.Reserve(outB) {
		return modeReference, plan, outB, nil
	}
	rt.memRejected.Add(1)
	return 0, nil, 0, fmt.Errorf("%w: memory budget exhausted (need %d output bytes, in use %d of %d)",
		core.ErrOverloaded, outB, rt.budget.InUse(), rt.budget.Limit())
}

// convAdmitted executes one admitted request through the ladder.
// Exactly one of filter (KCRS weights) and pf (packed weights) is
// non-nil.
func (rt *Runtime) convAdmitted(ctx context.Context, s conv.Shape, in, filter *tensor.Tensor, pf *core.PackedFilter) (*tensor.Tensor, error) {
	plan, err := rt.plans.Get(s, rt.opts)
	if err != nil {
		return nil, err
	}
	kcrs := filter
	if pf != nil {
		kcrs = pf.Source()
	}
	// Validate operands before reserving or allocating anything, so a
	// malformed request cannot consume budget or pool entries.
	if err := conv.ValidateOperands(s, in, kcrs); err != nil {
		return nil, err
	}
	mode, xplan, charge, err := rt.admitMemory(s, plan)
	if err != nil {
		return nil, err
	}
	defer rt.budget.Release(charge)
	switch mode {
	case modeFull:
		rt.fullRuns.Add(1)
	case modeDegraded:
		rt.degRuns.Add(1)
	case modeReference:
		rt.refRuns.Add(1)
	}

	outLen := int(plan.OutputBytes() / 4)
	buf := rt.pool.get(outLen)
	if buf != nil {
		rt.poolHits.Add(1)
	} else {
		rt.freshAllocs.Add(1)
		buf = rt.pool.alloc(outLen)
	}
	out := tensor.FromSlice(buf, s.N, s.K, s.P(), s.Q())

	var execErr error
	switch {
	case mode == modeReference:
		execErr = xplan.TryExecuteReferenceCtx(ctx, in, kcrs, out)
	case pf != nil:
		execErr = xplan.TryExecutePackedCtx(ctx, in, pf, out)
	default:
		execErr = xplan.TryExecuteCtx(ctx, in, filter, out)
	}
	if execErr != nil {
		// An abandoned grid's stragglers may still write the buffer:
		// drop it to the GC, never back into the pool.
		rt.pool.forget(buf)
		return nil, execErr
	}
	if rt.pool.check(buf) {
		// The run wrote past the output window: the result cannot be
		// trusted and the buffer is quarantined. Fail typed — the
		// corruption must never reach the caller.
		return nil, fmt.Errorf("%w: output-buffer canary tripped after execution on %v", core.ErrIntegrity, s)
	}
	return out, nil
}

// Stats is a point-in-time snapshot of every serving counter.
type Stats struct {
	Gate GateStats

	// Memory accounting.
	MemInUse, MemPeak, MemLimit int64
	PoolIdleBytes               int64

	// Output-buffer sourcing (ladder rung 1 vs 2).
	PoolHits, FreshAllocs uint64

	// Execution modes (ladder rungs 2–4) and pressure events.
	FullRuns, DegradedRuns, ReferenceRuns uint64
	OverBudget                            uint64 // full-plan reservation failures
	MemRejected                           uint64 // not even the reference rung fit

	// BatchesExecuted, BatchedRequests and BatchSoloFlushes are always 0:
	// every request runs as its own plan execution.
	//
	// Deprecated: always 0; kept until benchmark/ stops reading them.
	BatchesExecuted, BatchedRequests, BatchSoloFlushes uint64

	// RecycleRefused counts hazardous Recycle calls that were refused
	// (view tensors, double-recycles, foreign buffers) instead of
	// poisoning the pool.
	RecycleRefused uint64

	// Silent-corruption defense (DESIGN.md §12). CanaryTrips counts
	// activation buffers quarantined for overwritten guard words;
	// SentinelProbes, KernelQuarantines and KernelRestores track the
	// background sentinel; IntegrityFailures totals every detection the
	// runtime surfaced (canary trips plus sentinel miscompares —
	// checksum failures live in Integrity, the core-layer counters).
	CanaryTrips       uint64
	IntegrityFailures uint64
	SentinelProbes    uint64
	KernelQuarantines uint64
	KernelRestores    uint64
	Integrity         core.IntegrityStats

	PlanCache core.PlanCacheStats

	// WorkerPool reports the process-wide persistent worker pool the
	// parallel runtime dispatches onto. Spawned counts grid workers
	// that could not be placed on a parked pool worker (pool saturated
	// or closed) — a steadily climbing Spawned under steady load means
	// plans are over-subscribed relative to the pool size.
	WorkerPool parallel.PoolStats
}

// Stats snapshots the runtime's counters.
func (rt *Runtime) Stats() Stats {
	return Stats{
		WorkerPool:        parallel.DefaultPool().Stats(),
		Gate:              rt.gate.Stats(),
		MemInUse:          rt.budget.InUse(),
		MemPeak:           rt.budget.Peak(),
		MemLimit:          rt.budget.Limit(),
		PoolIdleBytes:     rt.pool.idle(),
		PoolHits:          rt.poolHits.Load(),
		FreshAllocs:       rt.freshAllocs.Load(),
		FullRuns:          rt.fullRuns.Load(),
		DegradedRuns:      rt.degRuns.Load(),
		ReferenceRuns:     rt.refRuns.Load(),
		OverBudget:        rt.overBudget.Load(),
		MemRejected:       rt.memRejected.Load(),
		RecycleRefused:    rt.recycleRefused.Load(),
		CanaryTrips:       rt.canaryTrips.Load(),
		IntegrityFailures: rt.integrityFailures.Load(),
		SentinelProbes:    rt.sentinelProbes.Load(),
		KernelQuarantines: rt.kernelQuarantines.Load(),
		KernelRestores:    rt.kernelRestores.Load(),
		Integrity:         core.IntegritySnapshot(),
		PlanCache:         rt.plans.Stats(),
	}
}
