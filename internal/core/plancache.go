package core

import (
	"container/list"
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"

	"ndirect/internal/conv"
	"ndirect/internal/hw"
)

// PlanCache is a concurrency-safe, LRU-bounded cache of execution
// plans keyed by (Shape, Options). Repeated inference re-solves the
// Equation 1–6 analytical models (cache tiles, register tile, thread
// mapping) on every TryConv2D call even though the answer is a pure
// function of the shape and options; a serving process that sees the
// same layer geometries request after request amortises that planning
// to a map lookup by routing calls through a cache
// (Options.PlanCache, or nn.Engine.Reuse at the network level).
//
// Plans are immutable after construction and safe for concurrent
// Execute calls, so one cached *Plan may serve any number of
// goroutines; the cache itself serialises only the map/LRU bookkeeping
// and builds plans outside its lock (two goroutines racing on the same
// cold key may both solve it — the loser's identical plan is dropped).
//
// The key captures every Options field that influences planning or
// execution, including the fused-epilogue contents byte-for-byte (two
// layers with equal geometry but different bias vectors must not share
// a fused-epilogue plan). The PlanCache field itself and a nil vs
// explicit generic Platform are normalised out. Kernel-family
// quarantine is not in the key: a plan resolves its body per execution
// (dispatch.go), so cached plans follow quarantine and restore as-is.
type PlanCache struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // of *planEntry; front = most recently used
	byKey map[planKey]*list.Element

	// Observability counters. Atomics rather than mu-guarded fields so
	// Stats() snapshots under concurrent lookups never contend with
	// the map/LRU bookkeeping (a monitoring scrape must not slow the
	// serving hot path).
	hits, misses, evictions atomic.Uint64
}

// DefaultPlanCacheCap is the entry bound used when NewPlanCache is
// given a non-positive capacity — generous for whole-model serving
// (ResNet-101 has ~40 distinct conv geometries; a multi-model server
// a few hundred).
const DefaultPlanCacheCap = 256

type planEntry struct {
	key  planKey
	plan *Plan
}

// planKey is the comparable identity of a plan. The fused-epilogue
// strings hold the raw little-endian float bits of the corresponding
// EpilogueParams slices so equality is exact (no hashing, no
// collisions); fusedSet distinguishes an all-nil EpilogueParams from
// no FusedEpilogue at all.
type planKey struct {
	shape      conv.Shape
	platform   hw.Platform
	threads    int
	seqPack    bool
	forceTc    int
	forceTk    int
	forceTh    int
	fusedSet   bool
	fusedBias  string
	fusedScale string
	fusedShift string
	fusedRes   bool
	fusedReLU  bool
	collect    bool
	dwEpilogue bool
}

// floatsKey serialises a float slice to its exact bit pattern for use
// as a comparable map-key component.
func floatsKey(v []float32) string {
	if len(v) == 0 {
		return ""
	}
	raw := make([]byte, 4*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(f))
	}
	return string(raw)
}

func planKeyFor(s conv.Shape, opt Options) planKey {
	pf := genericPlatform
	if opt.Platform != nil {
		pf = *opt.Platform
	}
	key := planKey{
		shape:    s,
		platform: pf,
		threads:  opt.Threads,
		seqPack:  opt.SequentialPack,
		forceTc:  opt.ForceTc,
		forceTk:  opt.ForceTk,
		forceTh:  opt.ForceTh,
		collect:  opt.CollectStats,
		// A plan with a depthwise epilogue is never built (TryNewPlan
		// rejects it), so this bit only keeps such a lookup off the clean
		// entry: it must miss and fail.
		dwEpilogue: opt.DepthwiseEpilogue != nil,
	}
	if fe := opt.FusedEpilogue; fe != nil {
		key.fusedSet = true
		key.fusedBias = floatsKey(fe.Bias)
		key.fusedScale = floatsKey(fe.Scale)
		key.fusedShift = floatsKey(fe.Shift)
		key.fusedRes = fe.Residual
		key.fusedReLU = fe.ReLU
	}
	return key
}

// NewPlanCache returns a cache holding at most capacity plans
// (DefaultPlanCacheCap when capacity <= 0), evicting the least
// recently used entry past the bound.
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheCap
	}
	return &PlanCache{
		cap:   capacity,
		lru:   list.New(),
		byKey: make(map[planKey]*list.Element),
	}
}

// Get returns the plan for (s, opt), solving and inserting it on a
// miss. Errors are exactly TryNewPlan's (wrapping conv.ErrBadShape or
// ErrBadOptions); failed constructions are not cached.
func (c *PlanCache) Get(s conv.Shape, opt Options) (*Plan, error) {
	key := planKeyFor(s, opt)
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		c.hits.Add(1)
		p := el.Value.(*planEntry).plan
		c.mu.Unlock()
		return p, nil
	}
	c.mu.Unlock()

	// Solve outside the lock: planning is pure, so a concurrent miss on
	// the same key at worst duplicates a microsecond of solver work.
	p, err := TryNewPlan(s, opt)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	c.misses.Add(1)
	if el, ok := c.byKey[key]; ok {
		// A racing goroutine inserted first; keep its plan so every
		// caller shares one scratch pool per key.
		c.lru.MoveToFront(el)
		return el.Value.(*planEntry).plan, nil
	}
	c.byKey[key] = c.lru.PushFront(&planEntry{key: key, plan: p})
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.byKey, back.Value.(*planEntry).key)
		c.evictions.Add(1)
	}
	return p, nil
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// PlanCacheStats is a point-in-time snapshot of the cache counters.
type PlanCacheStats struct {
	Hits, Misses, Evictions uint64
	Len                     int
}

// Stats returns a point-in-time snapshot of the cache's counters:
// hits, misses (successful builds after a lookup failure) and LRU
// evictions. The counters are atomic, so the snapshot is safe (and
// contention-free) under concurrent Get traffic; the three values are
// read independently and may straddle an in-flight lookup.
func (c *PlanCache) Stats() PlanCacheStats {
	st := PlanCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
	c.mu.Lock()
	st.Len = c.lru.Len()
	c.mu.Unlock()
	return st
}

// planFor resolves the plan for one-shot entry points: through the
// cache when the caller configured one, freshly solved otherwise.
func planFor(s conv.Shape, opt Options) (*Plan, error) {
	if opt.PlanCache != nil {
		return opt.PlanCache.Get(s, opt)
	}
	return TryNewPlan(s, opt)
}
