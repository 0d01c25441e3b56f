package core

// One governed execution path (DESIGN.md §5, §8). Every plan type —
// Plan, DepthwisePlan, SeparablePlan — executes the same way: its entry
// point validates the operands, checks a pooled run state out of the
// plan (gridRun, embedded in the plan type's operand holder), loads the
// operands and its one output tensor into it and calls govern. This file is
// the only place that knows how a grid is dispatched and joined, what a
// fault or a blown deadline turns into, and where the faultinject
// drills bite; a plan type supplies its cell loop and its oracle
// (gridOwner) and nothing else. The grouped and 3-D entry
// points are governed plan executions too; only the FP64 and INT16
// entry points keep a loop of their own, classified by fallbackCtx
// below.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"ndirect/internal/conv"
	"ndirect/internal/faultinject"
	"ndirect/internal/parallel"
	"ndirect/internal/tensor"
)

// gridOwner is what a plan type's run state supplies to the harness and
// the ladder. The operands ride the pooled run rather than per-call
// closures, so a steady-state execution allocates nothing.
type gridOwner interface {
	// cells runs grid slot w's share of the iteration space on the
	// loaded operands, polling the run's fault sink between work items.
	cells(w int)
	// oracle points the loaded run at the plan type's oracle: the plan
	// itself with its kernel family quarantined — the looped bodies
	// (kernel12x8 with the Go store, depthwisePlaneRange) reading the
	// raw weights. Every body stores the bits its looped twin does
	// (DESIGN.md §11), so a replay on it stores what a fault-free
	// execution would have.
	oracle()
	// unload drops the operand references (and publishes whatever the
	// run measured) once no worker can touch the run any more.
	unload()
}

// packedOperand is one packed weight artifact an execution consumes.
type packedOperand struct {
	core *packedCore // nil: this execution reads raw weights here
	slot *[]float32  // the run field the grid reads; drills swap in a run-private copy
}

// guardedBuf is a worker scratch buffer with canary words past its
// logical end n (newGuarded).
type guardedBuf struct {
	full []float32
	n    int
}

// gridRun is one execution's harness state: fault sink, join group, one
// prebuilt task closure per grid slot, the scratch canaries, and what
// the ladder needs of the execution (output, packed operands). Runs
// are pooled on their plan — checked out per call and parked again once
// the ladder has returned and every worker, deadline-abandoned
// stragglers included, has terminated — so a warm plan executes with
// zero heap allocations and a wedged goroutine can never scribble on
// recycled state.
type gridRun struct {
	owner gridOwner
	pool  *runPool
	label any // the plan's shape, for log lines

	// Per execution, loaded by the owner before govern.
	out    *tensor.Tensor
	packed []packedOperand // slots fixed at construction, cores per execution

	fs     parallel.FaultSink
	g      parallel.Group
	fns    []func()       // per grid slot: recovery shell around drill points + owner.cells
	guards [][]guardedBuf // per grid slot
	refs   atomic.Int32   // the ladder's hold, plus the stragglers' after an abandon
	ran    bool           // dispatch spawned this execution's grid

	abandonFn func(error) // raises the stop flag on a detached join
	drainFn   func()      // drops the stragglers' hold from the straggler monitor
}

// maxFreeRuns bounds a plan's run free list: up to this many concurrent
// executions reuse parked state allocation-free, beyond it the extra
// run states are dropped to the GC when they complete (the serving
// admission gate bounds useful concurrency well below this).
const maxFreeRuns = 8

// runPool is a plan's bounded free list of run states.
type runPool struct {
	mu   sync.Mutex
	free []*gridRun
}

// get checks a parked run out, or returns nil when none is parked (cold
// start, or more concurrent executions than maxFreeRuns): the plan then
// builds a fresh one.
func (rp *runPool) get() *gridRun {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	n := len(rp.free)
	if n == 0 {
		return nil
	}
	g := rp.free[n-1]
	rp.free[n-1] = nil
	rp.free = rp.free[:n-1]
	g.refs.Store(1)
	return g
}

func (rp *runPool) put(g *gridRun) {
	rp.mu.Lock()
	if len(rp.free) < maxFreeRuns {
		rp.free = append(rp.free, g)
	}
	rp.mu.Unlock()
}

// init wires a freshly built run: one task closure per grid slot, in
// faultinject worker-index order, and one packed operand per weight
// slot. The
// closures are built once and read the current operands through the
// owner, so steady-state dispatch creates no funcvals.
func (g *gridRun) init(owner gridOwner, pool *runPool, label any, slots int, weights ...*[]float32) {
	g.owner, g.pool, g.label = owner, pool, label
	g.refs.Store(1)
	g.guards = make([][]guardedBuf, slots)
	for _, w := range weights {
		g.packed = append(g.packed, packedOperand{slot: w})
	}
	for w := 0; w < slots; w++ {
		body := func() {
			faultinject.Fire(faultinject.WorkerPanic, w)
			faultinject.Stall(faultinject.WorkerStall, w)
			if gs := g.guards[w]; len(gs) > 0 && faultinject.Should(faultinject.ScratchOverrun, w) {
				// Simulate an out-of-bounds store past a scratch buffer's
				// logical end (what a miscompiled or assembly kernel could
				// do): clobber the first guard word. The canary check at
				// the join must catch it and quarantine this run state.
				b := gs[len(gs)-1]
				b.full[b.n] = 1
			}
			owner.cells(w)
		}
		g.fns = append(g.fns, func() { g.fs.Record(parallel.Protect(body)) })
	}
	g.abandonFn = func(err error) {
		g.refs.Add(1)
		g.fs.Record(err)
	}
	g.drainFn = g.release
}

// guard allocates an n-element scratch buffer for grid slot w with
// canary words past its end, registered for the join-time check.
func (g *gridRun) guard(w, n int) []float32 {
	full := newGuarded(n)
	g.guards[w] = append(g.guards[w], guardedBuf{full, n})
	return full[:n:n]
}

// scratchTripped returns the grid slot of the first worker whose
// scratch guard words were overwritten, or -1 when all are intact.
func (g *gridRun) scratchTripped() int {
	for w, gs := range g.guards {
		for _, b := range gs {
			if !canariesIntact(b.full, b.n) {
				return w
			}
		}
	}
	return -1
}

// release drops one hold on the run; the last one unloads it and parks
// it — unless a guard word past a worker's scratch was overwritten: the
// run state is then quarantined, dropped to the GC and never parked, so
// a buffer that has hosted an overrun can never serve another request
// (the pool-level twin of the serve layer's canary quarantine).
func (g *gridRun) release() {
	if g.refs.Add(-1) != 0 {
		return
	}
	g.owner.unload()
	g.out, g.ran = nil, false
	for i := range g.packed {
		g.packed[i].core = nil
		*g.packed[i].slot = nil
	}
	if g.scratchTripped() >= 0 {
		scratchCanaryTrips.Add(1)
		return
	}
	g.pool.put(g)
}

// dispatch executes the grid on the persistent default worker pool
// (parallel.DefaultPool), so a warm call creates no goroutines. Every
// task runs inside the parallel runtime's panic-recovery shell; the
// first fault raises the grid's cooperative stop flag and is returned
// after the join.
//
// Without a cancellable context the caller's goroutine executes the
// first grid cell itself (the whole grid, when there is one) and joins
// the rest unconditionally. With one, every cell is dispatched —
// running one inline would let a wedged first cell block the caller
// past its deadline — and the join is bounded by ctx: on expiry the
// grid is abandoned (stop flag up, stragglers leaked deliberately and
// accounted in parallel.LeakedWorkers — a straggler occupying a pool
// slot holds only that slot, the pool itself keeps serving), the
// returned error wraps conv.ErrDeadline, and the stragglers keep a hold
// on the run until they terminate.
func (g *gridRun) dispatch(ctx context.Context) error {
	if len(g.fns) == 0 {
		return nil
	}
	g.fs.Reset()
	g.ran = true
	pool := parallel.DefaultPool()
	if ctx.Done() == nil {
		for _, fn := range g.fns[1:] {
			g.g.GoVia(pool, fn)
		}
		g.fns[0]()
		g.g.Wait()
	} else {
		for _, fn := range g.fns {
			g.g.GoVia(pool, fn)
		}
		if err := g.g.WaitCtx(ctx, g.abandonFn, g.drainFn); err != nil {
			return fmt.Errorf("%w: %w", conv.ErrDeadline, err)
		}
	}
	if err := g.fs.Err(); err != nil {
		return err
	}
	if w := g.scratchTripped(); w >= 0 {
		return fmt.Errorf("%w: scratch canary tripped on grid slot %d", ErrIntegrity, w)
	}
	return nil
}

// govern is the robustness ladder: it runs the loaded execution on the
// optimised path and degrades to the owner's oracle whenever that
// faults, so a nil error always means a correct output. The rungs, in
// order:
//
//  1. A context already expired at the boundary fails before any work
//     is spawned.
//  2. Every packed operand the execution consumes is verified against
//     its pack-time CRC on the sampled schedule — always, when the
//     weight-bitflip drill hit it. A mismatch is silent corruption,
//     returned typed: the oracle must not mask it, because the resident
//     artifact stays poisoned until the owner re-packs.
//  3. The grid runs (dispatch).
//  4. Under fault injection the output is scanned for NaN/Inf.
//  5. ErrIntegrity (a tripped scratch canary, rung 2) and a deadline
//     abandon pass through. The faulty artifact must be quarantined or
//     re-packed by the owning layer before results can be trusted again;
//     a deadline is not a fault — the caller asked for bounded time, so
//     the conv.ErrDeadline-wrapped error returns and no oracle runs.
//  6. Any other fault (a recovered worker panic, a non-finite output) is
//     logged and the execution replayed on the owner's oracle; every
//     worker has been joined.
//
// Every execution overwrites its output, so a replay needs nothing of
// what a faulted grid left behind.
//
// The three weight/output drills address the concatenation of the
// packed operands (resp. the output) by element index; an index outside
// it — the −1 an arg-less NDIRECT_FAULTS spec arms included — means
// element 0.
func govern(ctx context.Context, g *gridRun) error {
	defer g.release()
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Err() != nil {
		return deadlineErr(ctx)
	}
	injecting := faultinject.Enabled()

	flipped := -1
	if injecting && g.packedLen() > 0 {
		if idx, ok := faultinject.Take(faultinject.WeightBitflip); ok {
			// Flip one mantissa bit on a run-private copy (the shared
			// artifact is immutable): the value stays finite, so the
			// non-finite scan can never catch it — only the checksum can,
			// which is exactly what this drill proves.
			flipped = g.mutatePacked(idx, func(v float32) float32 {
				return math.Float32frombits(math.Float32bits(v) ^ 0x00400000)
			})
		}
	}
	for i, op := range g.packed {
		if op.core != nil && (i == flipped || op.core.shouldVerify()) {
			if err := op.core.verifyConsumed(*op.slot); err != nil {
				return err
			}
		}
	}
	if injecting && g.packedLen() > 0 {
		if idx, ok := faultinject.Take(faultinject.PackedCorrupt); ok {
			// Poison a run-private copy: other runs must keep reading
			// clean weights. The NaN propagates into the output, where the
			// scan below catches it and the replay reads the packed
			// operand's retained source.
			g.mutatePacked(idx, func(float32) float32 { return float32(math.NaN()) })
		}
	}

	err := g.dispatch(ctx)
	if err == nil && injecting {
		if idx, ok := faultinject.Take(faultinject.NaNPoison); ok {
			g.poisonOutput(idx)
		}
	}
	if err == nil && injecting {
		err = g.scanOutput()
	}
	if err == nil || errors.Is(err, ErrIntegrity) || errors.Is(err, conv.ErrDeadline) {
		return err
	}
	Logf("core: optimised path faulted on %v; recomputing on reference path: %v", g.label, err)
	g.owner.oracle()
	g.replay()
	return nil
}

// replay runs every grid slot's cells on the calling goroutine, in
// slot order, with a clear fault sink: the loaded execution once more,
// serially and outside the recovery shell and the drill points. The
// slots keep their own scratch, so a replay allocates nothing.
func (g *gridRun) replay() {
	g.fs.Reset()
	for w := range g.fns {
		g.owner.cells(w)
	}
}

// packedLen is the element count of the packed operands this execution
// consumes.
func (g *gridRun) packedLen() int {
	n := 0
	for _, op := range g.packed {
		if op.core != nil {
			n += len(*op.slot)
		}
	}
	return n
}

// mutatePacked rewrites element idx of the concatenated packed operands
// on a run-private copy of the operand holding it, and returns that
// operand's position.
func (g *gridRun) mutatePacked(idx int, mutate func(float32) float32) int {
	if idx < 0 || idx >= g.packedLen() {
		idx = 0
	}
	for i, op := range g.packed {
		if op.core == nil {
			continue
		}
		if n := len(*op.slot); idx >= n {
			idx -= n
			continue
		}
		private := append([]float32(nil), *op.slot...)
		private[idx] = mutate(private[idx])
		*op.slot = private
		return i
	}
	return -1
}

// poisonOutput stores a NaN at element idx of the output.
func (g *gridRun) poisonOutput(idx int) {
	if idx < 0 || idx >= len(g.out.Data) {
		idx = 0
	}
	g.out.Data[idx] = float32(math.NaN())
}

// scanOutput returns an ErrExecFault naming the first NaN/Inf in the
// output.
func (g *gridRun) scanOutput() error {
	if j, bad := scanNonFinite(g.out.Data); bad {
		return fmt.Errorf("%w: non-finite output at element %d", ErrExecFault, j)
	}
	return nil
}

// deadlineErr wraps a done context's cause in conv.ErrDeadline.
func deadlineErr(ctx context.Context) error {
	return fmt.Errorf("%w: %w", conv.ErrDeadline, context.Cause(ctx))
}

// fallbackCtx classifies a parallel-loop error for the FP64 and INT16
// entry points, the two that run their own loop outside the ladder: it
// returns nil for a worker fault, which keeps the sequential reference
// fallback, and wraps a context abandonment in conv.ErrDeadline.
func fallbackCtx(err error) error {
	if errors.Is(err, parallel.ErrCanceled) {
		return fmt.Errorf("%w: %w", conv.ErrDeadline, err)
	}
	return nil
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
