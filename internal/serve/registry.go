package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ndirect/internal/core"
	"ndirect/internal/faultinject"
	"ndirect/internal/nn"
	"ndirect/internal/parallel"
	"ndirect/internal/tensor"
)

// Registry errors (all also carry core sentinels where applicable).
var (
	// ErrUnknownModel reports an Infer against a model the tenant has
	// not registered (or one another tenant owns — indistinguishable by
	// design, so tenants cannot probe each other's model names).
	ErrUnknownModel = errors.New("serve: unknown model")
	// ErrModelExists reports a Register over an existing (tenant, model).
	ErrModelExists = errors.New("serve: model already registered")
)

// TenantConfig is one tenant's admission policy.
type TenantConfig struct {
	// Class is the tenant's QoS class (zero value: ClassBatch — the
	// unconfigured tenant absorbs overload first).
	Class QoSClass
	// MaxOutstanding caps the tenant's concurrent requests (in flight +
	// queued); <= 0 means uncapped.
	MaxOutstanding int
}

// RegistryConfig configures a multi-tenant model Registry.
type RegistryConfig struct {
	// Runtime supplies the shared serving substrate: plan cache,
	// integrity sentinel and engine thread count. Nil builds a
	// default Runtime.
	//
	// Deprecated: kept until benchmark/ stops setting it; the runtime's
	// state is to move into the Registry (ROADMAP item 10).
	Runtime *Runtime
	// MaxInFlight / MaxQueue size the tenant admission gate (see
	// NewTenantGate; <= 0 selects one in-flight slot per core and an
	// equally sized queue).
	MaxInFlight int
	MaxQueue    int
	// WeightLimitBytes is the global weight-residency budget: the sum
	// of all tenants' resident packed filters stays under it, enforced
	// by LRU eviction across models (evicted weights re-pack
	// bit-identically on next use). <= 0 disables the ceiling but keeps
	// accounting.
	WeightLimitBytes int64
	// QuarantineThreshold is the number of consecutive surfaced
	// execution faults (worker panics, exec faults) after which a model
	// is quarantined to the reference path. 0 disables quarantine.
	QuarantineThreshold int
	// QuarantineCooldown is how long a quarantined model serves on the
	// reference path before one probe is routed back to the fast path
	// (DefaultQuarantineCooldown when zero).
	QuarantineCooldown time.Duration
	// Tenants seeds the tenant→policy table (SetTenant adds or updates
	// later). Unknown tenants get the zero TenantConfig: ClassBatch,
	// uncapped.
	Tenants map[string]TenantConfig
}

// DefaultQuarantineCooldown is the quarantine duration when
// RegistryConfig leaves QuarantineCooldown zero.
const DefaultQuarantineCooldown = 30 * time.Second

// modelEntry is one registered network's registry-side state. Lock
// ordering: a conv unit's packMu (taken by the nn layer) → Registry.mu
// → modelEntry.mu; entry.mu is a leaf. Eviction never takes packMu —
// it works entirely on the residency index plus PackedFilter.Release's
// atomic flag, and the owning unit discovers the released filter on
// its next fetch.
type modelEntry struct {
	tenant string
	model  string
	net    *nn.Network
	eng    *nn.Engine // fast-path engine (Reuse, shared plan cache, residency hooks)
	refEng *nn.Engine // quarantine engine (ForceReference), same plan cache
	lruEl  *list.Element

	mu       sync.Mutex
	dead     bool                         // unregistered: no new residency, no new requests
	resident map[*core.PackedFilter]int64 // residency index: charge released exactly once

	faults      int // consecutive surfaced faults toward the threshold
	quarantined bool
	quarUntil   time.Time
	probing     bool // one post-cooldown probe is on the fast path
}

// Registry is the multi-tenant model registry: tenants register
// networks, infer against them under per-tenant QoS admission, and
// share one weight-residency budget, one plan cache and one worker
// pool. All methods are safe for concurrent use.
type Registry struct {
	rt      *Runtime
	gate    *TenantGate
	weights *Budget

	quarThreshold int
	quarCooldown  time.Duration

	mu      sync.Mutex
	models  map[string]*modelEntry // key: tenant + "\x00" + model
	lru     *list.List             // model recency; least recent at back
	tenants map[string]TenantConfig

	evictions       atomic.Uint64 // models whose residency was evicted
	evictedFilters  atomic.Uint64
	evictedBytes    atomic.Uint64
	forcedEvictions atomic.Uint64 // weight-evict fault injections consumed
	residencyDenied atomic.Uint64 // OnPackAdmit refusals (ran unpacked)
	quarantines     atomic.Uint64 // fast-path → reference transitions
	refInfers       atomic.Uint64 // requests served on the quarantine path
	restores        atomic.Uint64 // successful probes (reference → fast path)
}

// NewRegistry builds a Registry from cfg (see RegistryConfig).
func NewRegistry(cfg RegistryConfig) *Registry {
	rt := cfg.Runtime
	if rt == nil {
		rt = New(Config{})
	}
	inFlight := cfg.MaxInFlight
	if inFlight <= 0 {
		inFlight = parallel.DefaultThreads()
	}
	queue := cfg.MaxQueue
	if queue == 0 {
		queue = inFlight
	}
	cooldown := cfg.QuarantineCooldown
	if cooldown <= 0 {
		cooldown = DefaultQuarantineCooldown
	}
	r := &Registry{
		rt:            rt,
		gate:          NewTenantGate(inFlight, queue),
		weights:       NewBudget(cfg.WeightLimitBytes),
		quarThreshold: cfg.QuarantineThreshold,
		quarCooldown:  cooldown,
		models:        map[string]*modelEntry{},
		lru:           list.New(),
		tenants:       map[string]TenantConfig{},
	}
	for t, tc := range cfg.Tenants {
		r.tenants[t] = tc
	}
	return r
}

// WeightBudget returns the weight-residency accountant (for the soak
// harness's drain-to-baseline checks).
func (r *Registry) WeightBudget() *Budget { return r.weights }

// Gate returns the tenant admission gate.
func (r *Registry) Gate() *TenantGate { return r.gate }

// SetTenant installs or updates a tenant's admission policy.
func (r *Registry) SetTenant(tenant string, tc TenantConfig) {
	r.mu.Lock()
	r.tenants[tenant] = tc
	r.mu.Unlock()
}

func (r *Registry) tenantConfig(tenant string) TenantConfig {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tenants[tenant]
}

func modelKey(tenant, model string) string { return tenant + "\x00" + model }

// Register adds a tenant's network under the given model name.
// Registration is lazy: each layer's plan comes from the analytical
// model and its packed weights become resident on the model's first
// inference, charged against the shared weight budget then. Nothing is
// charged for a model that never gets traffic, so registering one
// cannot evict the weights of models that are serving.
func (r *Registry) Register(tenant, model string, net *nn.Network) error {
	if tenant == "" || model == "" {
		return fmt.Errorf("%w: empty tenant or model name", core.ErrBadOptions)
	}
	if net == nil {
		return fmt.Errorf("%w: nil network", core.ErrBadOptions)
	}
	key := modelKey(tenant, model)
	e := &modelEntry{
		tenant:   tenant,
		model:    model,
		net:      net,
		resident: map[*core.PackedFilter]int64{},
	}
	e.eng = &nn.Engine{
		Algo:         nn.AlgoNDirect,
		Threads:      r.rt.threads,
		Reuse:        true,
		Plans:        r.rt.plans,
		OnPackAdmit:  func(bytes int64) bool { return r.admitWeights(e, bytes) },
		OnPackRetain: func(pf *core.PackedFilter) { r.retainWeights(e, pf) },
		OnPackDrop:   func(pf *core.PackedFilter) { r.dropWeights(e, pf) },
	}
	e.refEng = &nn.Engine{
		Algo:           nn.AlgoNDirect,
		Threads:        1,
		Reuse:          true,
		Plans:          r.rt.plans,
		ForceReference: true,
	}
	r.mu.Lock()
	if _, ok := r.models[key]; ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s/%s", ErrModelExists, tenant, model)
	}
	r.models[key] = e
	e.lruEl = r.lru.PushFront(e)
	r.mu.Unlock()
	// Hand the model to the integrity sentinel (no-op when the Runtime
	// has no sentinel): an idle-time golden probe comparing the fast
	// engine bit-for-bit against the reference engine. Its idleness
	// predicate holds every probe back while this registry serves, so
	// even a model with no conv unit to probe registers one.
	r.rt.addSentinelTarget(key, r.gateIdle, func() { r.sentinelProbe(e) })
	return nil
}

// gateIdle reports whether the tenant gate is fully idle — the
// sentinel's predicate for every probe, kernel family or model, so a
// probe never runs beside (or ahead of) tenant traffic.
func (r *Registry) gateIdle() bool {
	gs := r.gate.Stats()
	return gs.InFlight == 0 && gs.Queued == 0
}

// sentinelProbe runs one golden-input forward pass of the model on
// both engines and settles the quarantine machine on the comparison.
// Engine errors (not miscompares) move nothing: typed faults are the
// fault ladder's evidence, the sentinel's is silent divergence.
func (r *Registry) sentinelProbe(e *modelEntry) {
	e.mu.Lock()
	dead := e.dead
	e.mu.Unlock()
	if dead {
		return
	}
	units := e.net.ConvUnits()
	if len(units) == 0 {
		return
	}
	s := units[0].Shape
	x := tensor.New(1, s.C, s.H, s.W)
	x.FillRandom(0xC0FFEE) // full mantissas: every tap rounds, so the probe sees the FMA contract
	fast, err := e.net.TryForward(e.eng, x)
	if err != nil {
		return
	}
	ref, err := e.net.TryForward(e.refEng, x)
	if err != nil {
		return
	}
	r.settleModelProbe(e, tensor.MaxAbsDiff(fast, ref) != 0)
}

// settleModelProbe advances the model quarantine machine on a sentinel
// comparison: a miscompare quarantines (idempotently), a clean probe
// restores. Split from sentinelProbe so the mismatch path is testable
// without manufacturing silent fast-path corruption.
func (r *Registry) settleModelProbe(e *modelEntry, mismatch bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if mismatch {
		r.rt.integrityFailures.Add(1)
		if !e.quarantined {
			e.quarantined = true
			e.quarUntil = time.Now().Add(r.quarCooldown)
			e.faults = 0
			r.quarantines.Add(1)
			core.Logf("serve: sentinel: model %s/%s fast path diverges from reference on the golden probe; quarantined",
				e.tenant, e.model)
		}
		return
	}
	if e.quarantined {
		e.quarantined = false
		e.probing = false
		e.faults = 0
		r.restores.Add(1)
		core.Logf("serve: sentinel: model %s/%s probes clean; restored to the fast path", e.tenant, e.model)
	}
}

// Unregister removes a tenant's model and releases its resident weight
// charges. Requests already executing on the model's packed weights
// finish on the immutable buffers (or fail typed and re-run on the
// on-the-fly transform); requests arriving after return fail with
// ErrUnknownModel; no path can re-charge the budget afterwards.
func (r *Registry) Unregister(tenant, model string) error {
	key := modelKey(tenant, model)
	r.mu.Lock()
	e, ok := r.models[key]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s/%s", ErrUnknownModel, tenant, model)
	}
	delete(r.models, key)
	r.lru.Remove(e.lruEl)
	e.mu.Lock()
	e.dead = true
	r.releaseResidentLocked(e)
	e.mu.Unlock()
	r.mu.Unlock()
	r.rt.removeSentinelTarget(key)
	// Retire the network's reuse state outside every registry lock
	// (InvalidateReuse takes the units' packMu, which orders before
	// r.mu). The entry is dead, so the drop hooks release nothing twice
	// and no new residency can be admitted.
	e.net.InvalidateReuse(e.eng)
	return nil
}

// releaseResidentLocked (entry.mu held) evicts every resident packed
// filter of e: the budget charge returns and the filter's released
// flag flips, so the owning unit rebuilds on next use. Returns the
// bytes released.
func (r *Registry) releaseResidentLocked(e *modelEntry) int64 {
	var total int64
	for pf, b := range e.resident {
		pf.Release()
		r.weights.Release(b)
		total += b
		delete(e.resident, pf)
		r.evictedFilters.Add(1)
	}
	if total > 0 {
		r.evictedBytes.Add(uint64(total))
	}
	return total
}

// admitWeights is the OnPackAdmit hook: reserve bytes against the
// weight budget, evicting other models' residency least-recently-used
// first when the reservation fails. A false return costs nothing — the
// caller runs unpacked. Called under the requesting unit's packMu;
// takes r.mu → entry.mu only (the documented lock order).
func (r *Registry) admitWeights(e *modelEntry, bytes int64) bool {
	e.mu.Lock()
	dead := e.dead
	e.mu.Unlock()
	if dead {
		return false
	}
	if r.weights.Reserve(bytes) {
		return true
	}
	// Weight pressure: walk victims from the LRU tail. The requesting
	// model is skipped (evicting our own residency to admit our own
	// residency would thrash), so a single model larger than the whole
	// budget degrades itself to the unpacked path, not the neighbours.
	r.mu.Lock()
	for el := r.lru.Back(); el != nil; {
		prev := el.Prev()
		victim := el.Value.(*modelEntry)
		if victim != e {
			victim.mu.Lock()
			n := r.releaseResidentLocked(victim)
			victim.mu.Unlock()
			if n > 0 {
				r.evictions.Add(1)
			}
			if r.weights.Reserve(bytes) {
				r.mu.Unlock()
				return true
			}
		}
		el = prev
	}
	r.mu.Unlock()
	r.residencyDenied.Add(1)
	return false
}

// retainWeights is the OnPackRetain hook: record the admitted filter
// in the residency index. If the model died between admission and the
// transform (an unregister raced the pack), the charge is returned and
// the filter released immediately — the unregister's accounting
// invariant (budget back to baseline) holds regardless of the race.
func (r *Registry) retainWeights(e *modelEntry, pf *core.PackedFilter) {
	e.mu.Lock()
	if e.dead {
		e.mu.Unlock()
		pf.Release()
		r.weights.Release(pf.Bytes())
		return
	}
	e.resident[pf] = pf.Bytes()
	e.mu.Unlock()
}

// dropWeights is the OnPackDrop hook: a unit discarded a stale packed
// filter (evicted, or superseded by a re-plan). The charge is released
// exactly once — membership in the residency index is the guard, so a
// filter the LRU eviction already settled is a no-op here.
func (r *Registry) dropWeights(e *modelEntry, pf *core.PackedFilter) {
	e.mu.Lock()
	b, ok := e.resident[pf]
	if ok {
		delete(e.resident, pf)
	}
	e.mu.Unlock()
	pf.Release()
	if ok {
		r.weights.Release(b)
	}
}

// evictModel force-evicts a model's resident weights (the weight-evict
// fault injection point): traffic continues, the next executions
// re-pack bit-identically under fresh budget charges.
func (r *Registry) evictModel(e *modelEntry) {
	e.mu.Lock()
	n := r.releaseResidentLocked(e)
	e.mu.Unlock()
	if n > 0 {
		r.evictions.Add(1)
	}
}

// lookup resolves (tenant, model) and refreshes its LRU recency.
func (r *Registry) lookup(tenant, model string) (*modelEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.models[modelKey(tenant, model)]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrUnknownModel, tenant, model)
	}
	r.lru.MoveToFront(e.lruEl)
	return e, nil
}

// engineFor picks the entry's serving engine under the quarantine
// state machine: healthy → fast path; quarantined → reference path
// until the cooldown elapses, then exactly one probe returns to the
// fast path (success restores the model, a surfaced fault re-opens
// the quarantine).
func (r *Registry) engineFor(e *modelEntry) (eng *nn.Engine, probe bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.quarantined {
		return e.eng, false
	}
	if r.quarThreshold <= 0 {
		// The fault-driven ladder is disabled, so this quarantine came
		// from the integrity sentinel: serve the reference path until the
		// sentinel's own probe proves the fast path clean again (the
		// cooldown/probe machinery below belongs to the fault ladder).
		r.refInfers.Add(1)
		return e.refEng, false
	}
	if time.Now().Before(e.quarUntil) || e.probing {
		r.refInfers.Add(1)
		return e.refEng, false
	}
	e.probing = true
	return e.eng, true
}

// recordOutcome advances the quarantine state machine after a request.
// Only surfaced execution faults count — overload rejections, deadline
// misses and validation errors are the caller's (or the operator's)
// problem, not evidence of a misbehaving model.
func (r *Registry) recordOutcome(e *modelEntry, probe bool, err error) {
	if r.quarThreshold <= 0 {
		return
	}
	faulted := err != nil && (errors.Is(err, parallel.ErrWorkerPanic) || errors.Is(err, core.ErrExecFault) ||
		errors.Is(err, core.ErrIntegrity))
	e.mu.Lock()
	defer e.mu.Unlock()
	if probe {
		e.probing = false
		if faulted {
			e.quarUntil = time.Now().Add(r.quarCooldown)
			r.quarantines.Add(1)
			core.Logf("serve: model %s/%s probe faulted; quarantine extended %v: %v",
				e.tenant, e.model, r.quarCooldown, err)
			return
		}
		e.quarantined = false
		e.faults = 0
		r.restores.Add(1)
		core.Logf("serve: model %s/%s restored to the fast path", e.tenant, e.model)
		return
	}
	if e.quarantined {
		return // reference-path outcomes don't move the machine
	}
	if !faulted {
		e.faults = 0
		return
	}
	e.faults++
	if e.faults < r.quarThreshold {
		return
	}
	e.quarantined = true
	e.quarUntil = time.Now().Add(r.quarCooldown)
	e.faults = 0
	r.quarantines.Add(1)
	core.Logf("serve: model %s/%s quarantined to the reference path for %v after %d consecutive faults",
		e.tenant, e.model, r.quarCooldown, r.quarThreshold)
}

// Infer runs one forward pass of tenant's model under the full
// multi-tenant discipline: per-tenant QoS admission (class shed order,
// weighted-fair slot handoff, outstanding cap), weight-residency
// charging with transparent LRU eviction and bit-identical re-pack,
// and the per-model quarantine ladder. ctx bounds the admission wait
// and then the forward pass between layers. Failure modes:
// ErrUnknownModel, core.ErrOverloaded (typed, fail-fast),
// conv.ErrDeadline (ctx done before the pass finished), or the layer's
// execution error when every rung fails.
func (r *Registry) Infer(ctx context.Context, tenant, model string, x *tensor.Tensor) (*tensor.Tensor, error) {
	if _, ok := faultinject.Take(faultinject.WeightEvict); ok {
		if e, err := r.lookup(tenant, model); err == nil {
			r.forcedEvictions.Add(1)
			r.evictModel(e)
		}
	}
	tc := r.tenantConfig(tenant)
	release, err := r.gate.Acquire(ctx, tenant, tc.Class, tc.MaxOutstanding)
	if err != nil {
		return nil, err
	}
	defer release()
	e, err := r.lookup(tenant, model)
	if err != nil {
		return nil, err
	}
	eng, probe := r.engineFor(e)
	out, err := e.net.TryForwardCtx(ctx, eng, x)
	r.recordOutcome(e, probe, err)
	return out, err
}

// ResidentBytes returns a model's current resident packed-weight bytes
// (0 for unknown models).
func (r *Registry) ResidentBytes(tenant, model string) int64 {
	r.mu.Lock()
	e, ok := r.models[modelKey(tenant, model)]
	r.mu.Unlock()
	if !ok {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var total int64
	for _, b := range e.resident {
		total += b
	}
	return total
}

// Quarantined reports whether a model is currently serving on the
// reference path.
func (r *Registry) Quarantined(tenant, model string) bool {
	r.mu.Lock()
	e, ok := r.models[modelKey(tenant, model)]
	r.mu.Unlock()
	if !ok {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.quarantined
}

// RegistryStats is a point-in-time snapshot of the registry.
type RegistryStats struct {
	Gate TenantGateStats

	Models int

	// Weight-residency accounting.
	WeightInUse, WeightPeak, WeightLimit int64
	Evictions                            uint64 // models whose residency was evicted
	EvictedFilters                       uint64
	EvictedBytes                         uint64
	ForcedEvictions                      uint64 // weight-evict fault injections
	ResidencyDenied                      uint64 // packs refused (ran unpacked)

	// Quarantine ladder.
	Quarantines     uint64
	QuarantinedNow  int
	ReferenceInfers uint64
	Restores        uint64

	// Runtime snapshots the shared substrate (plan cache, sentinel,
	// integrity and worker-pool counters).
	//
	// Deprecated: kept until benchmark/ stops reading it; the counters
	// are to move up into RegistryStats (ROADMAP item 10).
	Runtime Stats
}

// Stats snapshots the registry (including the underlying Runtime).
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	models := len(r.models)
	quarNow := 0
	for _, e := range r.models {
		e.mu.Lock()
		if e.quarantined {
			quarNow++
		}
		e.mu.Unlock()
	}
	r.mu.Unlock()
	return RegistryStats{
		Gate:            r.gate.Stats(),
		Models:          models,
		WeightInUse:     r.weights.InUse(),
		WeightPeak:      r.weights.Peak(),
		WeightLimit:     r.weights.Limit(),
		Evictions:       r.evictions.Load(),
		EvictedFilters:  r.evictedFilters.Load(),
		EvictedBytes:    r.evictedBytes.Load(),
		ForcedEvictions: r.forcedEvictions.Load(),
		ResidencyDenied: r.residencyDenied.Load(),
		Quarantines:     r.quarantines.Load(),
		QuarantinedNow:  quarNow,
		ReferenceInfers: r.refInfers.Load(),
		Restores:        r.restores.Load(),
		Runtime:         r.rt.Stats(),
	}
}
