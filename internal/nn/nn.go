// Package nn is a minimal CNN inference engine — the MXNet substitute
// of the end-to-end evaluation (§8.3). It runs NCHW networks built
// from conv/BN/ReLU/pool/FC layers with a selectable convolution
// backend:
//
//	AlgoNDirect — "MXNet+NDIRECT": the library-based integration
//	AlgoIm2col  — "MXNet+OpenBLAS": the framework default
//	AlgoAnsor   — the tuned-compiler configuration, which is also
//	              allowed to fuse operators (fold BN into conv
//	              weights, fuse bias+ReLU into the conv epilogue),
//	              reproducing the advantage §8.3 attributes to Ansor
//	              on bandwidth-limited machines
//	AlgoXSMM / AlgoXNN — available for completeness (the paper could
//	              not integrate them into MXNet; we can)
//
// Weights are synthetic (He-initialised, deterministic): end-to-end
// figures measure time, not accuracy.
package nn

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ndirect/internal/autotune"
	"ndirect/internal/conv"
	"ndirect/internal/core"
	"ndirect/internal/im2col"
	"ndirect/internal/parallel"
	"ndirect/internal/tensor"
	"ndirect/internal/xnn"
	"ndirect/internal/xsmm"
)

// Algo selects the convolution backend.
type Algo int

const (
	AlgoNDirect Algo = iota
	AlgoIm2col
	AlgoAnsor
	AlgoXSMM
	AlgoXNN
)

func (a Algo) String() string {
	switch a {
	case AlgoNDirect:
		return "ndirect"
	case AlgoIm2col:
		return "im2col+gemm"
	case AlgoAnsor:
		return "ansor"
	case AlgoXSMM:
		return "libxsmm"
	case AlgoXNN:
		return "xnnpack"
	}
	return fmt.Sprintf("Algo(%d)", int(a))
}

// Engine carries the execution configuration shared by all layers.
type Engine struct {
	Algo    Algo
	Threads int
	// Fuse enables graph-level operator fusion: BN folding into conv
	// weights and bias+ReLU fused into the convolution's output pass.
	// The paper's Ansor configuration has this; the library-based
	// configurations do not (§8.3).
	Fuse bool
	// Schedules maps a conv shape key to a tuned Ansor schedule
	// (filled by Network.Tune; DefaultSchedule otherwise). Only the
	// AlgoAnsor backend, the Figure 6/7 baseline, reads it: nDirect
	// plans come from the analytical model and ignore it.
	Schedules map[string]autotune.Schedule
	// Reuse turns on the cross-call amortisation for repeated
	// inference: execution plans come from a shared core.PlanCache
	// instead of re-solving the Eq. 1–6 models per call, the nDirect
	// backend consumes per-unit pre-transformed weights
	// (Plan.TransformFilter) instead of re-running the on-the-fly
	// filter transform on every forward, and intermediate activations
	// are drawn from a per-size buffer pool instead of fresh
	// allocations. Off by default: the measured-mode experiments
	// deliberately time the overlapped transform (Fig. 5) and are
	// unchanged. With the nDirect backend the layer tails take the same
	// route: a residual block's add+ReLU runs in its last convolution's
	// store and a fully connected layer runs as the 1×1 convolution it is,
	// through the same plan and packed-weight machinery. Convolution
	// results are bit-for-bit identical either way; an FC layer sums its
	// inputs in the convolution's tile order instead of the GEMM's, so a
	// long one may round differently in the last bits.
	Reuse bool
	// Plans optionally supplies the plan cache (shared across engines,
	// or capacity-tuned). Setting it enables plan caching even without
	// Reuse; nil with Reuse on means a private cache is created on
	// first use.
	Plans *core.PlanCache
	// ForceReference routes every standard convolution straight to the
	// plan's oracle (core.Plan.TryExecuteReferenceCtx): the looped
	// kernel on the calling goroutine — no vector body, no worker grid,
	// no packed weights — bit-identical to the fast path for every
	// input. Depthwise layers run core.TryDepthwiseConv2D — the AVX2
	// depthwise body, where the host has it, on a grid of Threads
	// workers (one, on the registry's quarantine engine) — and separable
	// blocks run unfused: that depthwise stage, then the pointwise unit
	// on the plan's oracle. It is the quarantine rung of the multi-tenant
	// registry: a model whose traffic keeps faulting is degraded to this
	// engine so its failures stop touching the shared fast-path
	// machinery, without changing what a healthy request would have
	// computed.
	ForceReference bool
	// OnPackAdmit, OnPackRetain and OnPackDrop are the weight-residency
	// hooks of the serving registry (all optional; nil-hook engines
	// behave exactly as before). Reuse-mode units consult OnPackAdmit
	// with the packed size before building a persistent packed filter —
	// false denies residency and the unit runs that call with the
	// on-the-fly transform instead (bit-identical, nothing retained).
	// OnPackRetain fires after a unit retains a packed filter,
	// OnPackDrop when a retained filter is dropped or replaced. All
	// three are called under the owning unit's pack lock, so a
	// residency manager observes retain/drop pairs in order.
	OnPackAdmit  func(bytes int64) bool
	OnPackRetain func(pf *core.PackedFilter)
	OnPackDrop   func(pf *core.PackedFilter)

	planOnce  sync.Once
	planCache *core.PlanCache
	pools     sync.Map // len([]float32) → *sync.Pool of buffers

	// The rate limiter of repeated fallback log lines (logLimited).
	// logInterval and logKeyCap are zero, selecting DefaultLogInterval and
	// DefaultLogKeyCap, except in tests that shrink them.
	logInterval time.Duration
	logKeyCap   int
	logMu       sync.Mutex
	logSeen     map[string]*list.Element // key → LRU element (*logEntry)
	logLRU      *list.List               // most recently touched key at front
	logCarry    int                      // suppressed counts from evicted keys
}

// plans returns the plan cache the engine's conv calls share: the
// explicit Plans field when set, a lazily created private cache when
// Reuse is on, nil otherwise (every call re-plans — the seed default).
func (eng *Engine) plans() *core.PlanCache {
	if eng.Plans != nil {
		return eng.Plans
	}
	if !eng.Reuse {
		return nil
	}
	eng.planOnce.Do(func() { eng.planCache = core.NewPlanCache(0) })
	return eng.planCache
}

// draw returns a tensor of the given dims: a buffer from the engine's
// per-size pool when Reuse is on and one is parked (pooled: it still
// holds a dead tensor's values), a fresh zeroed one otherwise.
func (eng *Engine) draw(dims ...int) (t *tensor.Tensor, pooled bool) {
	if eng.Reuse {
		n := 1
		for _, d := range dims {
			n *= d
		}
		if p, ok := eng.pools.Load(n); ok {
			if buf, _ := p.(*sync.Pool).Get().([]float32); buf != nil {
				return tensor.FromSlice(buf, dims...), true
			}
		}
	}
	return tensor.New(dims...), false
}

// newTensor returns a zeroed tensor: a pooled buffer is cleared before
// reuse, so the tensor is indistinguishable from a fresh tensor.New —
// for a consumer that accumulates into it or may leave elements
// unwritten.
func (eng *Engine) newTensor(dims ...int) *tensor.Tensor {
	t, pooled := eng.draw(dims...)
	if pooled {
		clear(t.Data)
	}
	return t
}

// newOutput is newTensor without the clear, for a producer that writes
// every element of its output on every path, fault and fallback
// recomputes included (a plan execution, pooling, FC, softmax).
func (eng *Engine) newOutput(dims ...int) *tensor.Tensor {
	t, _ := eng.draw(dims...)
	return t
}

// release returns a dead intermediate tensor's buffer to the pool.
// Callers must only release tensors they own and that no other layer
// (or abandoned worker) can still reference; the forward paths release
// exactly the intermediates that are provably dead. No-op when Reuse
// is off.
func (eng *Engine) release(t *tensor.Tensor) {
	if !eng.Reuse || t == nil || len(t.Data) == 0 {
		return
	}
	p, _ := eng.pools.LoadOrStore(len(t.Data), &sync.Pool{})
	p.(*sync.Pool).Put(t.Data[:len(t.Data):len(t.Data)])
}

func shapeKey(s conv.Shape) string {
	return fmt.Sprintf("c%dk%dh%dw%dr%ds%dst%dp%d", s.C, s.K, s.H, s.W, s.R, s.S, s.Str, s.Pad)
}

// Layer is one network node operating on NCHW activations.
type Layer interface {
	Name() string
	Forward(eng *Engine, x *tensor.Tensor) *tensor.Tensor
}

// checkedLayer is the panic-free form of Layer: layers that can fail
// (the conv-backed ones) implement it, and Network.TryForward prefers
// it so a double backend failure surfaces as an error instead of a
// panic — PR 1's checked-API contract carried inside the engine.
type checkedLayer interface {
	tryForward(eng *Engine, x *tensor.Tensor) (*tensor.Tensor, error)
}

// Network is a sequential container (residual blocks are composite
// layers, so sequence suffices for ResNet and VGG).
type Network struct {
	Name   string
	Layers []Layer
}

// Forward runs the network, panicking on a layer failure (use
// TryForward for the checked form).
func (n *Network) Forward(eng *Engine, x *tensor.Tensor) *tensor.Tensor {
	out, err := n.TryForward(eng, x)
	if err != nil {
		panic(fmt.Sprintf("nn: %s: %v", n.Name, err))
	}
	return out
}

// TryForward runs the network, returning an error (naming the failing
// layer) instead of panicking when a layer's every backend fails.
// Safe for concurrent use on a shared engine and network: the weight,
// plan and packed-filter caches are built once and immutable after,
// and pooled buffers are never shared between live tensors.
func (n *Network) TryForward(eng *Engine, x *tensor.Tensor) (*tensor.Tensor, error) {
	return n.TryForwardCtx(context.Background(), eng, x)
}

// TryForwardCtx is TryForward bounded by ctx between layers: ctx is
// polled before each top-level layer, and once it is done the forward
// stops, returns the dead intermediate to the engine pool and fails with
// an error wrapping conv.ErrDeadline and context.Cause(ctx). A layer
// already running runs to completion.
func (n *Network) TryForwardCtx(ctx context.Context, eng *Engine, x *tensor.Tensor) (*tensor.Tensor, error) {
	cur := x
	for _, l := range n.Layers {
		if ctx.Err() != nil {
			if cur != x {
				eng.release(cur)
			}
			return nil, fmt.Errorf("%w: before layer %s: %w", conv.ErrDeadline, l.Name(), context.Cause(ctx))
		}
		var next *tensor.Tensor
		var err error
		if cl, ok := l.(checkedLayer); ok {
			next, err = cl.tryForward(eng, cur)
		} else {
			// Unchecked layers (pooling, FC, softmax) may panic — their
			// Forward contract — including on an injected worker fault
			// in their parallel loops. TryForward promises an error, so
			// recover here; errors.Is(err, ErrWorkerPanic) still holds
			// when the panic carries the runtime's typed fault.
			err = parallel.Protect(func() { next = l.Forward(eng, cur) })
		}
		if err != nil {
			return nil, fmt.Errorf("layer %s: %w", l.Name(), err)
		}
		if cur != x && cur != next {
			eng.release(cur) // dead intermediate (never the caller's input)
		}
		cur = next
	}
	return cur, nil
}

// ConvUnits returns every convolution unit in the network in
// execution order (recursing into residual blocks).
func (n *Network) ConvUnits() []*ConvUnit {
	var units []*ConvUnit
	var walk func(ls []Layer)
	walk = func(ls []Layer) {
		for _, l := range ls {
			switch v := l.(type) {
			case *ConvUnit:
				units = append(units, v)
			case *Bottleneck:
				walk(v.sublayers())
			case *BasicBlock:
				walk(v.sublayers())
			case *DepthwiseSeparable:
				walk(v.sublayers())
			}
		}
	}
	walk(n.Layers)
	return units
}

// ConvShapes returns the distinct convolution shapes of the network
// (batch taken from the layers' stored geometry with N=1); used by
// Tune and the harness.
func (n *Network) ConvShapes() []conv.Shape {
	seen := map[string]bool{}
	var out []conv.Shape
	for _, u := range n.ConvUnits() {
		if k := shapeKey(u.Shape); !seen[k] {
			seen[k] = true
			out = append(out, u.Shape)
		}
	}
	return out
}

// Tune pre-tunes an Ansor schedule for every distinct conv shape in
// the network (the offline search the paper excludes from measured
// time).
func (eng *Engine) Tune(n *Network, opt autotune.TuneOptions) {
	if eng.Schedules == nil {
		eng.Schedules = map[string]autotune.Schedule{}
	}
	for _, s := range n.ConvShapes() {
		key := shapeKey(s)
		if _, ok := eng.Schedules[key]; ok {
			continue
		}
		opt.Threads = eng.Threads
		res := autotune.Tune(s, opt)
		if res.Trials == 0 || !res.Best.Valid(s) {
			// A search where every candidate failed to measure leaves
			// Result.Best as the zero value; storing it would feed an
			// inadmissible schedule into eng.schedule on the serving
			// path. Fall back to the default (ClampFor would anyway).
			eng.logLimited("tune|"+key, "nn: tuning %v measured no admissible schedule; keeping default", s)
			continue
		}
		eng.Schedules[key] = res.Best
	}
}

// --- Convolution unit (conv [+BN] [+ReLU]) ---

// BNParams are inference-time batch-norm parameters per channel.
type BNParams struct {
	Gamma, Beta, Mean, Var []float32
	Eps                    float32
}

// ConvUnit is the conv→BN→ReLU triple as the source networks use it.
// Whether the stages run fused or as separate passes depends on the
// engine configuration.
type ConvUnit struct {
	LayerName string
	Shape     conv.Shape // N = 1; batch comes from the input tensor
	Weights   *tensor.Tensor
	Bias      []float32 // nil for BN networks (ResNet)
	BN        *BNParams // nil for VGG
	ReLU      bool

	foldOnce sync.Once
	folded   *tensor.Tensor // BN-folded weights (built once, immutable after)
	foldedB  []float32

	epOnce sync.Once
	ep     *core.EpilogueParams // bias/BN/ReLU as a fused store epilogue; nil when the unit has none

	resEpOnce sync.Once
	resEp     *core.EpilogueParams // ep + residual add + ReLU: the unit as a residual block's tail

	// planMemo caches the last plan resolved for the fused-epilogue
	// route, so the steady-state serving loop skips the plan-cache
	// lookup (whose key serialises the epilogue vectors, allocating on
	// every call). A miss just falls through to the cache.
	planMemo atomic.Pointer[planMemoEntry]

	// reuseGen versions the unit's reuse state (plan memo + packed
	// filters). InvalidateReuse bumps it when the model is unregistered
	// or its packed weights are evicted, so a memo entry stamped with
	// an older generation can never short-circuit the re-resolution
	// that rebuilds the packed filter — the guard against executing a
	// stale PackedFilter whose backing charge was already released.
	reuseGen atomic.Uint64

	packMu       sync.Mutex
	packedRaw    *core.PackedFilter // pre-transformed Weights (Engine.Reuse)
	packedFolded *core.PackedFilter // pre-transformed BN-folded weights
}

// planMemoEntry records the inputs that determine a fused-route plan.
type planMemoEntry struct {
	s       conv.Shape
	threads int
	fe      *core.EpilogueParams
	gen     uint64
	plan    *core.Plan
}

func (c *ConvUnit) Name() string { return c.LayerName }

// foldBN merges BN into the convolution: w'ₖ = wₖ·γₖ/√(σ²ₖ+ε),
// b'ₖ = βₖ − μₖ·γₖ/√(σ²ₖ+ε) (+ original bias scaled). The fold runs
// exactly once even under concurrent Forward calls on a shared
// network; the cached tensors are immutable afterwards.
func (c *ConvUnit) foldBN() (*tensor.Tensor, []float32) {
	c.foldOnce.Do(func() {
		w := c.Weights.Clone()
		b := make([]float32, c.Shape.K)
		if c.Bias != nil {
			copy(b, c.Bias)
		}
		if c.BN != nil {
			per := c.Shape.C * c.Shape.R * c.Shape.S
			for k := 0; k < c.Shape.K; k++ {
				scale := c.BN.Gamma[k] / float32(math.Sqrt(float64(c.BN.Var[k])+float64(c.BN.Eps)))
				for i := 0; i < per; i++ {
					w.Data[k*per+i] *= scale
				}
				b[k] = b[k]*scale + c.BN.Beta[k] - c.BN.Mean[k]*scale
			}
		}
		c.folded, c.foldedB = w, b
	})
	return c.folded, c.foldedB
}

// fusedEpilogue returns the unit's bias/BN/ReLU work in the core's
// fused-store form, built once and immutable after (the stable pointer
// also serves as the plan-memo identity). The BN scale/shift use the
// exact float32 expressions applyBN evaluates per channel, and the
// core store applies bias → affine → ReLU in the same order as the
// separate addBias/applyBN/applyReLU sweeps, so routing through the
// fused store is bit-identical to running the sweeps. Returns nil when
// the unit has no epilogue work (plain convolution).
func (c *ConvUnit) fusedEpilogue() *core.EpilogueParams {
	c.epOnce.Do(func() {
		if c.Bias == nil && c.BN == nil && !c.ReLU {
			return
		}
		ep := &core.EpilogueParams{Bias: c.Bias, ReLU: c.ReLU}
		if bn := c.BN; bn != nil {
			scale := make([]float32, c.Shape.K)
			shift := make([]float32, c.Shape.K)
			for k := range scale {
				sc := bn.Gamma[k] / float32(math.Sqrt(float64(bn.Var[k])+float64(bn.Eps)))
				scale[k] = sc
				shift[k] = bn.Beta[k] - bn.Mean[k]*sc
			}
			ep.Scale, ep.Shift = scale, shift
		}
		c.ep = ep
	})
	return c.ep
}

// residualEpilogue is fusedEpilogue with a residual block's tail behind
// it — the unit's bias/BN, then the shortcut added, then ReLU — for a
// unit that closes a block and has no ReLU of its own. Built once, like
// fusedEpilogue, and the plan-memo identity of the block-tail route.
func (c *ConvUnit) residualEpilogue() *core.EpilogueParams {
	c.resEpOnce.Do(func() {
		ep := core.EpilogueParams{}
		if own := c.fusedEpilogue(); own != nil {
			ep = *own
		}
		ep.Residual, ep.ReLU = true, true
		c.resEp = &ep
	})
	return c.resEp
}

// packedFor returns the pre-transformed (⌈K/Vk⌉·C·R·S·Vk blocked) form
// of w — the raw or the BN-folded weights — building it on first use
// and caching it next to the fold. The check is CompatibleWith plus
// source identity plus liveness — a residency manager that evicted the
// cached filter (PackedFilter.Release) makes the slot stale exactly like
// a new source, and the rebuild re-packs bit-identically from the KCRS
// source. With the engine's residency hooks set, a rebuild first asks
// OnPackAdmit for the packed bytes; a denied charge returns (nil, nil)
// and the caller runs that call with the on-the-fly transform instead,
// so a full weight budget degrades throughput, never correctness.
func (c *ConvUnit) packedFor(eng *Engine, p *core.Plan, w *tensor.Tensor) (*core.PackedFilter, error) {
	c.packMu.Lock()
	defer c.packMu.Unlock()
	slot := &c.packedRaw
	if w != c.Weights {
		slot = &c.packedFolded
	}
	if pf := *slot; pf != nil {
		if pf.Source() == w && pf.CompatibleWith(p) && !pf.Released() {
			return pf, nil
		}
		*slot = nil
		if eng.OnPackDrop != nil {
			eng.OnPackDrop(pf)
		}
	}
	if eng.OnPackAdmit != nil && !eng.OnPackAdmit(p.PackedBytes()) {
		return nil, nil
	}
	pf, err := p.TransformFilter(w)
	if err != nil {
		return nil, err
	}
	*slot = pf
	if eng.OnPackRetain != nil {
		eng.OnPackRetain(pf)
	}
	// Post-pack verification (DESIGN.md §12): every rebuild — including
	// the eviction-path re-pack — proves the fresh artifact matches its
	// own pack-time checksum before it can serve. A failure here means
	// the packed bytes were corrupted under us between transform and
	// check; the artifact is discarded (charge returned) and this call
	// serves with the on-the-fly transform from the intact KCRS source.
	if verr := pf.Verify(); verr != nil {
		eng.logLimited("integrity|pack|"+c.LayerName,
			"nn: %s: fresh pack failed verification, serving unpacked: %v", c.LayerName, verr)
		*slot = nil
		if eng.OnPackDrop != nil {
			eng.OnPackDrop(pf)
		} else {
			pf.Release()
		}
		return nil, nil
	}
	return pf, nil
}

// discardPacked retires a packed filter that failed an integrity check
// mid-execution: the slot holding it is cleared (so the next fetch
// re-packs bit-identically from the retained KCRS source) and its
// residency charge returned. Safe when the slot was already replaced —
// only a matching slot is cleared.
func (c *ConvUnit) discardPacked(eng *Engine, pf *core.PackedFilter) {
	c.packMu.Lock()
	defer c.packMu.Unlock()
	for _, slot := range []**core.PackedFilter{&c.packedRaw, &c.packedFolded} {
		if *slot == pf {
			*slot = nil
		}
	}
	if eng != nil && eng.OnPackDrop != nil {
		eng.OnPackDrop(pf)
	} else {
		pf.Release()
	}
}

// invalidateReuse retires the unit's reuse state: packed filters are
// released (dropped through eng's residency hooks so their charges
// return), the plan memo is cleared, and the generation is bumped so any
// concurrently running planFor cannot re-publish a pre-invalidation memo
// entry. Safe against concurrent forwards: an execution that already
// fetched the old packed filter finishes on its immutable buffer; the
// next fetch observes the released flag (or the cleared slot) and
// rebuilds. With no engine to report to, a pack is flagged released and
// left in its slot: the next packedFor drops it through the serving
// engine's OnPackDrop, which returns the charge there. params (the unit's
// parameters changed; exclusive access) also resets the caches derived
// from them: the BN fold and both fused epilogues.
func (c *ConvUnit) invalidateReuse(eng *Engine, params bool) {
	c.packMu.Lock()
	defer c.packMu.Unlock()
	c.reuseGen.Add(1)
	c.planMemo.Store(nil)
	for _, slot := range []**core.PackedFilter{&c.packedRaw, &c.packedFolded} {
		if pf := *slot; pf != nil {
			pf.Release()
			if eng != nil {
				*slot = nil
				if eng.OnPackDrop != nil {
					eng.OnPackDrop(pf)
				}
			}
		}
	}
	if params {
		c.foldOnce, c.folded, c.foldedB = sync.Once{}, nil, nil
		c.epOnce, c.ep = sync.Once{}, nil
		c.resEpOnce, c.resEp = sync.Once{}, nil
	}
}

// InvalidateReuse retires the reuse state of every layer that holds any
// — conv units (residual blocks' and separable blocks' included), fully
// connected layers, separable and standalone depthwise units: packed
// filters and plan memos, against eng's residency hooks. It is the
// unregister / eviction entry point of the serving registry. The network
// remains fully servable afterwards: the next forward re-plans and
// re-packs, bit-identically.
func (n *Network) InvalidateReuse(eng *Engine) { n.retireReuse(eng, false) }

// retireReuse is the one walk over the layers' reuse state, shared by
// InvalidateReuse and ReadWeights (params: the parameters changed, so the
// caches derived from them go too).
func (n *Network) retireReuse(eng *Engine, params bool) {
	var walk func(ls []Layer)
	walk = func(ls []Layer) {
		for _, l := range ls {
			switch v := l.(type) {
			case *ConvUnit:
				v.invalidateReuse(eng, params)
			case *Bottleneck:
				walk(v.sublayers())
			case *BasicBlock:
				walk(v.sublayers())
			case *DepthwiseSeparable:
				v.invalidateReuse(params)
				walk(v.sublayers())
			case *DepthwiseConv:
				v.invalidateReuse(params)
			case *FC:
				v.asConv().invalidateReuse(eng, params)
			}
		}
	}
	walk(n.Layers)
}

// Forward applies the unit with the engine's backend and fusion
// setting, panicking on failure (tryForward is the checked form).
func (c *ConvUnit) Forward(eng *Engine, x *tensor.Tensor) *tensor.Tensor {
	out, err := c.tryForward(eng, x)
	if err != nil {
		panic(fmt.Sprintf("nn: %s: %v", c.LayerName, err))
	}
	return out
}

// tryForward applies the unit, returning an error only when every
// backend (including the nDirect fallback) fails.
func (c *ConvUnit) tryForward(eng *Engine, x *tensor.Tensor) (*tensor.Tensor, error) {
	s := c.Shape.WithBatch(x.Dims[0])
	if eng.Fuse {
		w, b := c.foldBN()
		return c.tryConvFused(eng, s, x, w, b)
	}
	// Steady-state fast path: with Reuse on and the nDirect backend,
	// the unit's bias/BN/ReLU run inside the plan's fused store (one
	// pass over the output) instead of as separate whole-tensor sweeps.
	// fusedEpilogue's contract makes this bit-identical to the sweeps,
	// so the route is a pure execution-strategy change.
	if eng.Reuse && eng.Algo == AlgoNDirect {
		if ep := c.fusedEpilogue(); ep != nil {
			return c.tryNDirect(eng, s, x, c.Weights,
				core.Options{Threads: eng.Threads, FusedEpilogue: ep})
		}
	}
	out, err := c.tryConvPlain(eng, s, x)
	if err != nil {
		return nil, err
	}
	if c.Bias != nil {
		if err := addBias(out, c.Bias, eng.Threads); err != nil {
			return nil, err
		}
	}
	if c.BN != nil {
		if err := applyBN(out, c.BN, eng.Threads); err != nil {
			return nil, err
		}
	}
	if c.ReLU {
		if err := applyReLU(out, eng.Threads); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// tryForwardResidual applies the unit as the tail of a residual block on
// a Reuse+nDirect engine: relu(unit(x) + residual) as one plan execution,
// the add and the ReLU in the store (residualEpilogue) — bit-identical
// to tryForward followed by the addReLU sweep. The caller checks the
// engine takes the route (residualTail).
func (c *ConvUnit) tryForwardResidual(eng *Engine, x, residual *tensor.Tensor) (*tensor.Tensor, error) {
	s := c.Shape.WithBatch(x.Dims[0])
	return c.tryReuse(eng, s, x, c.Weights, residual,
		core.Options{Threads: eng.Threads, FusedEpilogue: c.residualEpilogue()})
}

func (c *ConvUnit) tryConvPlain(eng *Engine, s conv.Shape, x *tensor.Tensor) (*tensor.Tensor, error) {
	if eng.ForceReference {
		// Quarantine: skip the backends entirely — tryNDirect routes to
		// the reference path under ForceReference.
		return c.tryNDirect(eng, s, x, c.Weights, core.Options{Threads: eng.Threads})
	}
	switch eng.Algo {
	case AlgoAnsor:
		out := eng.newTensor(s.N, s.K, s.P(), s.Q())
		if err := autotune.Execute(s, eng.schedule(s), x, c.Weights, out, eng.Threads); err != nil {
			// Graceful degradation: a bad tuned schedule or a faulting
			// executor must not take the network down — rerun the layer
			// on the nDirect backend.
			eng.backendFailed(AlgoAnsor, s, err)
			return c.tryNDirect(eng, s, x, c.Weights, core.Options{Threads: eng.Threads})
		}
		return out, nil
	case AlgoIm2col, AlgoXSMM, AlgoXNN:
		return c.tryBaseline(eng, s, x, c.Weights)
	default:
		return c.tryNDirect(eng, s, x, c.Weights, core.Options{Threads: eng.Threads})
	}
}

// tryBaseline dispatches to the im2col/LIBXSMM/XNNPACK baselines
// through their checked entry points; a failing baseline is logged and
// the layer rerun on nDirect (the same degradation the Ansor arm has),
// so a backend fault surfaces as a slow layer rather than a nil tensor
// crashing the next one.
func (c *ConvUnit) tryBaseline(eng *Engine, s conv.Shape, x, w *tensor.Tensor) (*tensor.Tensor, error) {
	var (
		out *tensor.Tensor
		err error
	)
	switch eng.Algo {
	case AlgoIm2col:
		out, _, err = im2col.TryConv2D(s, x, w, im2col.Options{Threads: eng.Threads})
	case AlgoXSMM:
		out, _, err = xsmm.TryConv2D(s, x, w, xsmm.Options{Threads: eng.Threads})
	case AlgoXNN:
		out, _, err = xnn.TryConv2D(s, x, w, xnn.Options{Threads: eng.Threads})
	default:
		return c.tryNDirect(eng, s, x, w, core.Options{Threads: eng.Threads})
	}
	if err != nil {
		eng.backendFailed(eng.Algo, s, err)
		return c.tryNDirect(eng, s, x, w, core.Options{Threads: eng.Threads})
	}
	return out, nil
}

// tryNDirect runs the nDirect backend under the engine's reuse
// configuration. With Reuse off this is the seed path: plan (possibly
// via an explicit Plans cache) and execute with the on-the-fly filter
// transform. With Reuse on it is tryReuse.
func (c *ConvUnit) tryNDirect(eng *Engine, s conv.Shape, x, w *tensor.Tensor, opt core.Options) (*tensor.Tensor, error) {
	if eng.ForceReference {
		return c.tryReference(eng, s, x, w, opt)
	}
	if !eng.Reuse {
		opt.PlanCache = eng.plans()
		return core.TryConv2D(s, x, w, opt)
	}
	return c.tryReuse(eng, s, x, w, nil, opt)
}

// tryReuse is tryNDirect on a Reuse engine: the plan from the unit's
// memo or the cache, the weights from the unit's pre-transformed copy,
// the output from the buffer pool (uncleared: a plan execution writes
// every element). res, when non-nil, is the residual operand of a plan
// whose epilogue has the residual step (residualEpilogue).
func (c *ConvUnit) tryReuse(eng *Engine, s conv.Shape, x, w, res *tensor.Tensor, opt core.Options) (*tensor.Tensor, error) {
	opt.PlanCache = eng.plans()
	plan, err := c.planFor(s, opt)
	if err != nil {
		return nil, err
	}
	pf, err := c.packedFor(eng, plan, w)
	if err != nil {
		return nil, err
	}
	out := eng.newOutput(s.N, s.K, s.P(), s.Q())
	if err := c.execDegrading(eng, plan, x, w, pf, res, out); err != nil {
		eng.release(out) // the execution joined its grid: nobody writes out any more
		return nil, err
	}
	return out, nil
}

// execPlan is one execution of plan into out: from the packed filter
// when there is one, with the on-the-fly transform of w otherwise, and
// through the residual entry point when the plan takes the operand.
func execPlan(plan *core.Plan, x, w *tensor.Tensor, pf *core.PackedFilter, res, out *tensor.Tensor) error {
	switch {
	case res != nil:
		return plan.TryExecuteResidualCtx(context.Background(), x, w, pf, res, out)
	case pf != nil:
		return plan.TryExecutePacked(x, pf, out)
	}
	return plan.TryExecute(x, w, out)
}

// execDegrading is execPlan with the packed path's escape hatch: a
// packed filter that is unavailable (pf nil: residency denied), was
// evicted between fetch and execute, or fails an integrity check (it is
// then discarded, so the next fetch re-packs from the KCRS source) drops
// this call to the on-the-fly transform — bit-identical, nothing
// retained. Both failures are reported before or after the grid runs,
// never with workers still writing, so out is reused for the retry.
func (c *ConvUnit) execDegrading(eng *Engine, plan *core.Plan, x, w *tensor.Tensor, pf *core.PackedFilter, res, out *tensor.Tensor) error {
	err := execPlan(plan, x, w, pf, res, out)
	if err == nil || pf == nil {
		return err
	}
	switch {
	case errors.Is(err, core.ErrIntegrity):
		c.recoverIntegrity(eng, pf, err)
	case !errors.Is(err, core.ErrWeightsReleased):
		return err
	}
	return execPlan(plan, x, w, nil, res, out)
}

// recoverIntegrity handles a typed integrity failure surfaced by a
// packed execution (checksum mismatch or a tripped scratch canary):
// the packed artifact is conservatively quarantined — dropped so the
// next fetch re-packs bit-identically from the retained KCRS source —
// and the failure logged rate-limited. The caller then serves the
// current request with the on-the-fly transform, which never touches
// the suspect artifact.
func (c *ConvUnit) recoverIntegrity(eng *Engine, pf *core.PackedFilter, err error) {
	eng.logLimited("integrity|"+c.LayerName,
		"nn: %s: integrity failure on packed path; re-packing from KCRS source and serving unpacked: %v",
		c.LayerName, err)
	c.discardPacked(eng, pf)
}

// tryReference runs the convolution on the plan's oracle — the
// quarantine rung (Engine.ForceReference). Single-threaded, no worker
// grid, no packed weights: a misbehaving model routed here cannot fault
// the shared fast-path machinery, and the looped kernel stores exactly
// the bits the optimised path would have produced, for every input. The
// plan is resolved only for its shape/epilogue bookkeeping (the cache
// is consulted when available so quarantine does not re-solve the
// tiling models per call, but the per-unit memo is bypassed to avoid
// thrashing it against the healthy route's entry).
func (c *ConvUnit) tryReference(eng *Engine, s conv.Shape, x, w *tensor.Tensor, opt core.Options) (*tensor.Tensor, error) {
	opt.Threads = 1
	var plan *core.Plan
	var err error
	if cache := eng.plans(); cache != nil {
		opt.PlanCache = cache
		plan, err = cache.Get(s, opt)
	} else {
		plan, err = core.TryNewPlan(s, opt)
	}
	if err != nil {
		return nil, err
	}
	out := eng.newOutput(s.N, s.K, s.P(), s.Q())
	if err := plan.TryExecuteReferenceCtx(context.Background(), x, w, out); err != nil {
		eng.release(out)
		return nil, err
	}
	return out, nil
}

// planFor resolves the unit's plan for the Reuse path. Fused-epilogue
// calls hit a one-entry per-unit memo first: the plan-cache key
// serialises the epilogue vectors byte-for-byte, which allocates on
// every Get, and the serving hot loop asks for the same (shape,
// threads, epilogue) every call. The memo is sound because the
// epilogue pointer is the Once-built c.ep (stable and immutable) and
// plans are immutable after construction; any other option mix skips
// the memo and pays the cache lookup.
func (c *ConvUnit) planFor(s conv.Shape, opt core.Options) (*core.Plan, error) {
	// The generation is read before the memo: an invalidation that lands
	// between the two bumps the generation first, so a memo entry built
	// from pre-invalidation state is stamped stale and can never satisfy
	// a post-invalidation load — the ordering that makes eviction /
	// unregister safe against concurrent forwards.
	gen := c.reuseGen.Load()
	memoable := opt.FusedEpilogue != nil && (opt.FusedEpilogue == c.ep || opt.FusedEpilogue == c.resEp)
	if memoable {
		if m := c.planMemo.Load(); m != nil && m.gen == gen && m.s == s && m.threads == opt.Threads && m.fe == opt.FusedEpilogue {
			return m.plan, nil
		}
	}
	plan, err := opt.PlanCache.Get(s, opt)
	if err != nil {
		return nil, err
	}
	if memoable {
		c.planMemo.Store(&planMemoEntry{s: s, threads: opt.Threads, fe: opt.FusedEpilogue, gen: gen, plan: plan})
	}
	return plan, nil
}

// tryConvFused runs conv with bias+ReLU folded into the output pass.
// nDirect and the Ansor executor fuse natively via their epilogues;
// the other backends fall back to a separate pass (they have no
// epilogue hook — the integration gap §8.3 describes).
func (c *ConvUnit) tryConvFused(eng *Engine, s conv.Shape, x *tensor.Tensor, w *tensor.Tensor, b []float32) (*tensor.Tensor, error) {
	// fusedFallback recomputes the whole layer through the nDirect
	// epilogue into a fresh tensor — the recovery every arm shares,
	// because it never leaves a partially-transformed output behind.
	fusedFallback := func() (*tensor.Tensor, error) {
		return c.tryNDirect(eng, s, x, w, core.Options{Threads: eng.Threads,
			FusedEpilogue: &core.EpilogueParams{Bias: b, ReLU: c.ReLU}})
	}
	if eng.ForceReference {
		// Quarantine: the fused fallback routes through tryNDirect, which
		// runs the reference path (replaying the fused epilogue).
		return fusedFallback()
	}
	switch eng.Algo {
	case AlgoNDirect:
		return fusedFallback()
	case AlgoAnsor:
		out := eng.newTensor(s.N, s.K, s.P(), s.Q())
		if err := autotune.ExecuteFused(s, eng.schedule(s), x, w, out, eng.Threads, b, c.ReLU); err != nil {
			eng.backendFailed(AlgoAnsor, s, err)
			return fusedFallback()
		}
		return out, nil
	default:
		out, err := c.tryBaseline(eng, s, x, w)
		if err != nil {
			return nil, err
		}
		// The sweeps below mutate out in place, so a mid-sweep worker
		// fault leaves it partially transformed: some rows biased (or
		// rectified), others not. Retrying a sweep would double-apply
		// the bias to the rows that finished. Recover by abandoning out
		// (never back to the pool — its state is unknowable) and
		// recomputing the whole layer fused into a fresh tensor.
		err = addBias(out, b, eng.Threads)
		if err == nil && c.ReLU {
			err = applyReLU(out, eng.Threads)
		}
		if err != nil {
			eng.logLimited("fusedsweep|"+shapeKey(s), "nn: %s: epilogue sweep faulted (%v); recomputing layer fused", c.LayerName, err)
			return fusedFallback()
		}
		return out, nil
	}
}

func (eng *Engine) schedule(s conv.Shape) autotune.Schedule {
	if sch, ok := eng.Schedules[shapeKey(s)]; ok {
		return autotune.ClampFor(sch, s)
	}
	return autotune.DefaultSchedule(s)
}

// --- Elementwise / normalisation passes ---

// The elementwise passes are checked (they return the parallel
// runtime's typed error instead of panicking): they run inside
// TryForward's panic-free contract, and a worker fault in a few-
// microsecond epilogue must degrade exactly like one in the
// convolution itself.

func addBias(t *tensor.Tensor, bias []float32, threads int) error {
	n, k := t.Dims[0], t.Dims[1]
	pq := t.Dims[2] * t.Dims[3]
	return parallel.For(n*k, threads, func(nk int) {
		b := bias[nk%k]
		row := t.Data[nk*pq : (nk+1)*pq]
		for i := range row {
			row[i] += b
		}
	})
}

func applyBN(t *tensor.Tensor, bn *BNParams, threads int) error {
	n, k := t.Dims[0], t.Dims[1]
	pq := t.Dims[2] * t.Dims[3]
	return parallel.For(n*k, threads, func(nk int) {
		c := nk % k
		scale := bn.Gamma[c] / float32(math.Sqrt(float64(bn.Var[c])+float64(bn.Eps)))
		shift := bn.Beta[c] - bn.Mean[c]*scale
		row := t.Data[nk*pq : (nk+1)*pq]
		for i := range row {
			row[i] = row[i]*scale + shift
		}
	})
}

func applyReLU(t *tensor.Tensor, threads int) error {
	return parallel.ForRange(len(t.Data), threads, func(_ int, r parallel.Range) {
		d := t.Data[r.Lo:r.Hi]
		for i := range d {
			if d[i] < 0 {
				d[i] = 0
			}
		}
	})
}

// addReLU is a residual block's unfused tail, dst = relu(dst + src), as
// one checked parallel pass: per element the add then the ReLU, the
// same float32 operations as an add sweep followed by applyReLU.
func addReLU(dst, src *tensor.Tensor, threads int) error {
	if dst.Len() != src.Len() {
		return fmt.Errorf("%w: residual shape mismatch %v vs %v", conv.ErrDimMismatch, dst.Dims, src.Dims)
	}
	return parallel.ForRange(len(dst.Data), threads, func(_ int, r parallel.Range) {
		d, s := dst.Data[r.Lo:r.Hi], src.Data[r.Lo:r.Hi]
		for i := range d {
			v := d[i] + s[i]
			if v < 0 {
				v = 0
			}
			d[i] = v
		}
	})
}

// --- Supporting layers ---

// ReLULayer is a standalone activation.
type ReLULayer struct{}

func (ReLULayer) Name() string { return "relu" }
func (ReLULayer) Forward(eng *Engine, x *tensor.Tensor) *tensor.Tensor {
	if err := applyReLU(x, eng.Threads); err != nil {
		panic(fmt.Sprintf("nn: relu: %v", err)) // unchecked contract; TryForward recovers
	}
	return x
}

// MaxPool is a spatial max pooling layer.
type MaxPool struct {
	K, Str, Pad int
}

func (m *MaxPool) Name() string { return "maxpool" }

func (m *MaxPool) Forward(eng *Engine, x *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := x.Dims[0], x.Dims[1], x.Dims[2], x.Dims[3]
	p := (h+2*m.Pad-m.K)/m.Str + 1
	q := (w+2*m.Pad-m.K)/m.Str + 1
	out := eng.newOutput(n, c, p, q)
	parallel.MustFor(n*c, eng.Threads, func(nc int) {
		src := x.Data[nc*h*w : (nc+1)*h*w]
		dst := out.Data[nc*p*q : (nc+1)*p*q]
		for oj := 0; oj < p; oj++ {
			for oi := 0; oi < q; oi++ {
				best := float32(math.Inf(-1))
				for r := 0; r < m.K; r++ {
					ih := oj*m.Str - m.Pad + r
					if ih < 0 || ih >= h {
						continue
					}
					for s := 0; s < m.K; s++ {
						iw := oi*m.Str - m.Pad + s
						if iw < 0 || iw >= w {
							continue
						}
						if v := src[ih*w+iw]; v > best {
							best = v
						}
					}
				}
				if math.IsInf(float64(best), -1) {
					// A window that is entirely padding (degenerate
					// K/Pad combinations) has no input samples; emit
					// the padding value 0 instead of -Inf, which would
					// poison every downstream layer.
					best = 0
				}
				dst[oj*q+oi] = best
			}
		}
	})
	return out
}

// GlobalAvgPool reduces each channel plane to its mean.
type GlobalAvgPool struct{}

func (GlobalAvgPool) Name() string { return "gap" }

func (GlobalAvgPool) Forward(eng *Engine, x *tensor.Tensor) *tensor.Tensor {
	n, c := x.Dims[0], x.Dims[1]
	pq := x.Dims[2] * x.Dims[3]
	out := eng.newOutput(n, c, 1, 1)
	parallel.MustFor(n*c, eng.Threads, func(nc int) {
		var sum float64
		for _, v := range x.Data[nc*pq : (nc+1)*pq] {
			sum += float64(v)
		}
		out.Data[nc] = float32(sum / float64(pq))
	})
	return out
}

// FC is a fully connected layer on flattened activations. On every
// engine it runs as the 1×1 convolution it is — C = In, K = Out over a
// 1×1 image — through asConv's unit, on the engine's own convolution
// backend: an nDirect engine sums it under the kernels' one numeric
// contract, so a Reuse and a non-Reuse engine store the same bits, and a
// Reuse engine shares the convolution layers' plan memo, packed weights,
// weight-residency accounting and fused bias/ReLU store.
type FC struct {
	LayerName string
	In, Out   int
	W         *tensor.Tensor // [Out, In]
	B         []float32
	ReLU      bool

	convOnce sync.Once
	conv     *ConvUnit // the layer as a convolution unit over W's own storage
}

func (f *FC) Name() string { return f.LayerName }

// Forward applies the layer, panicking on failure (tryForward is the
// checked form).
func (f *FC) Forward(eng *Engine, x *tensor.Tensor) *tensor.Tensor {
	out, err := f.tryForward(eng, x)
	if err != nil {
		panic(fmt.Sprintf("nn: %s: %v", f.LayerName, err))
	}
	return out
}

func (f *FC) tryForward(eng *Engine, x *tensor.Tensor) (*tensor.Tensor, error) {
	n := x.Dims[0]
	if x.Len() != n*f.In {
		return nil, fmt.Errorf("%w: FC %s input %v does not flatten to %d", conv.ErrDimMismatch, f.LayerName, x.Dims, f.In)
	}
	out, err := f.asConv().tryForward(eng, tensor.FromSlice(x.Data, n, f.In, 1, 1))
	if err != nil {
		return nil, err
	}
	return tensor.FromSlice(out.Data, n, f.Out), nil
}

// asConv returns the layer as a convolution unit, built once: the weight
// tensor is W's storage viewed as [Out, In, 1, 1] (no copy), bias and
// ReLU the unit's own epilogue. It is not among Network.ConvUnits — those
// are the network's convolution layers — so retireReuse, the walk that
// must reach its reuse state, reaches it through the FC.
func (f *FC) asConv() *ConvUnit {
	f.convOnce.Do(func() {
		f.conv = &ConvUnit{
			LayerName: f.LayerName,
			Shape:     conv.Shape{N: 1, C: f.In, H: 1, W: 1, K: f.Out, R: 1, S: 1, Str: 1},
			Weights:   tensor.FromSlice(f.W.Data, f.Out, f.In, 1, 1),
			Bias:      f.B,
			ReLU:      f.ReLU,
		}
	})
	return f.conv
}

// Softmax converts logits to probabilities (numerically stabilised).
type Softmax struct{}

func (Softmax) Name() string { return "softmax" }

func (Softmax) Forward(eng *Engine, x *tensor.Tensor) *tensor.Tensor {
	n := x.Dims[0]
	k := x.Len() / n
	out := eng.newOutput(x.Dims...)
	parallel.MustFor(n, eng.Threads, func(i int) {
		row := x.Data[i*k : (i+1)*k]
		dst := out.Data[i*k : (i+1)*k]
		maxV := row[0]
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - maxV))
			dst[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range dst {
			dst[j] *= inv
		}
	})
	return out
}

// --- Weight initialisation helpers ---

func heInit(t *tensor.Tensor, fanIn int, rng *rand.Rand) {
	std := float32(math.Sqrt(2 / float64(fanIn)))
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64()) * std
	}
}

func identityBN(k int) *BNParams {
	bn := &BNParams{
		Gamma: make([]float32, k),
		Beta:  make([]float32, k),
		Mean:  make([]float32, k),
		Var:   make([]float32, k),
		Eps:   1e-5,
	}
	for i := 0; i < k; i++ {
		bn.Gamma[i] = 1
		bn.Var[i] = 1
	}
	return bn
}

// LayerTime is one row of a profiled forward pass.
type LayerTime struct {
	Name    string
	Seconds float64
	// OutDims is the layer's output shape (for the report).
	OutDims []int
}

// ForwardProfiled runs the network recording per-layer wall time —
// the per-operator view behind the end-to-end comparisons (§8.3).
func (n *Network) ForwardProfiled(eng *Engine, x *tensor.Tensor) (*tensor.Tensor, []LayerTime) {
	times := make([]LayerTime, 0, len(n.Layers))
	for _, l := range n.Layers {
		t0 := time.Now()
		x = l.Forward(eng, x)
		times = append(times, LayerTime{
			Name:    l.Name(),
			Seconds: time.Since(t0).Seconds(),
			OutDims: append([]int(nil), x.Dims...),
		})
	}
	return x, times
}
