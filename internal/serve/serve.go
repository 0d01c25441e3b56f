// Package serve is the overload-safe serving runtime. Every request
// takes one path: Registry.Infer admits it through the tenant gate and
// runs nn.Network.TryForwardCtx on the model's Reuse engine, whose conv
// layers execute governed internal/core plans (fault and deadline
// ladder, packed weights, checksums). Around that path the package adds
// the process-level protections a deployment needs:
//
//   - Admission control (Gate, TenantGate): a hard in-flight limit plus
//     a bounded, deadline-aware wait queue, per-tenant QoS classes and
//     outstanding caps. Offered load beyond the queue fails fast with
//     core.ErrOverloaded instead of accumulating goroutines.
//   - A weight-residency budget (Budget): packed filters are charged
//     for as long as they stay resident and evicted least-recently-used
//     across models when the ceiling is reached.
//   - Per-model quarantine and the integrity sentinel: a model whose
//     fast path keeps faulting, or diverges from its reference on a
//     golden probe, serves on the reference path until it probes clean.
//
// The paper's thesis is that performance comes from explicit resource
// budgeting — register and cache tiles solved from hardware limits
// (Equations 1–4). This package extends that discipline from the
// kernel to the process: concurrency and resident weights are budgeted
// the same way registers and cache lines are.
package serve

import (
	"context"
	"sync/atomic"
	"time"

	"ndirect/internal/core"
	"ndirect/internal/nn"
	"ndirect/internal/parallel"
	"ndirect/internal/tensor"
)

// Config configures a serving Runtime. The zero value yields a usable
// runtime: one in-flight slot per core, an equally sized wait queue,
// and a private plan cache.
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
	// Options are the base convolution options; only Threads is read,
	// and it sizes every engine's grid. Plans are built lazily on first
	// use through the runtime's own cache.
	Options core.Options
	// SentinelInterval enables the background integrity sentinel: every
	// interval, while the admission gate and the tenant gate of every
	// registry serving a model are fully idle (no request in flight or
	// queued — the sentinel never takes a slot), one round-robin
	// golden-shape probe runs: a registered kernel-dispatch family is
	// re-verified bit-for-bit against the single-threaded reference
	// (core.VerifyKernelFamily), or a registered model's fast engine is
	// compared against its reference engine. A miscomparing
	// kernel family is quarantined out of dispatch (every plan bound to
	// it runs the bit-identical looped kernel from its next execution);
	// a miscomparing model is quarantined to its reference path. Both
	// are restored by the first clean probe. 0 (the default) disables
	// the sentinel.
	SentinelInterval time.Duration
}

// DefaultBatchMax is not read.
//
// Deprecated: ignored; kept until benchmark/ stops using it.
const DefaultBatchMax = 8

// Runtime is the overload-safe serving runtime. All methods are safe
// for concurrent use.
type Runtime struct {
	gate     *Gate
	plans    *core.PlanCache
	engine   *nn.Engine
	sentinel *sentinel // nil: sentinel disabled

	// Silent-corruption defense (DESIGN.md §12).
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
	plans := core.NewPlanCache(cfg.PlanCacheCap)
	rt := &Runtime{
		gate:   NewGate(inFlight, queue),
		plans:  plans,
		engine: &nn.Engine{Algo: nn.AlgoNDirect, Threads: cfg.Options.Threads, Reuse: true, Plans: plans},
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

// Gate returns the runtime's admission controller.
func (rt *Runtime) Gate() *Gate { return rt.gate }

// PlanCache returns the runtime's shared plan cache.
func (rt *Runtime) PlanCache() *core.PlanCache { return rt.plans }

// Forward runs a network forward pass under the runtime's admission
// gate on its private Reuse nDirect engine (shared plan cache, packed
// weights, governed plans). ctx also bounds the pass between layers
// (nn.Network.TryForwardCtx).
func (rt *Runtime) Forward(ctx context.Context, net *nn.Network, x *tensor.Tensor) (*tensor.Tensor, error) {
	release, err := rt.gate.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	return net.TryForwardCtx(ctx, rt.engine, x)
}

// Stats is a point-in-time snapshot of every serving counter.
type Stats struct {
	Gate GateStats

	// MemPeak, PoolHits, FreshAllocs, DegradedRuns and ReferenceRuns are
	// always 0: no request reserves activation memory or walks a
	// degradation ladder (a quarantined model's reference-path requests
	// are RegistryStats.ReferenceInfers).
	//
	// Deprecated: always 0; kept until benchmark/ stops reading them.
	MemPeak                     int64
	PoolHits, FreshAllocs       uint64
	DegradedRuns, ReferenceRuns uint64

	// BatchesExecuted, BatchedRequests and BatchSoloFlushes are always 0:
	// every request runs as its own plan execution.
	//
	// Deprecated: always 0; kept until benchmark/ stops reading them.
	BatchesExecuted, BatchedRequests, BatchSoloFlushes uint64

	// Silent-corruption defense (DESIGN.md §12). SentinelProbes,
	// KernelQuarantines and KernelRestores track the background
	// sentinel; IntegrityFailures counts its miscompares (checksum
	// failures and scratch canary trips live in Integrity, the
	// core-layer counters).
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
		IntegrityFailures: rt.integrityFailures.Load(),
		SentinelProbes:    rt.sentinelProbes.Load(),
		KernelQuarantines: rt.kernelQuarantines.Load(),
		KernelRestores:    rt.kernelRestores.Load(),
		Integrity:         core.IntegritySnapshot(),
		PlanCache:         rt.plans.Stats(),
	}
}
