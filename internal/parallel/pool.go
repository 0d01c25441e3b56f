package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a fixed set of persistent worker goroutines the loop drivers
// dispatch chunks onto instead of spawning a goroutine per call. The
// paper's runtime is an OpenMP thread team — one thread per core,
// created once, parked between parallel regions — and a serving
// process wants the same steady state: after warm-up, a convolution
// call wakes existing workers (a channel handoff, the Go analogue of a
// futex wake) and creates nothing.
//
// Dispatch is reservation-based: an idle counter tracks workers that
// are parked or about to park, a dispatcher atomically reserves one
// slot before sending, and restores it and reports failure when none
// is free. The reservation guarantees every sent task has a live
// worker that will pick it up, so work is never queued behind a busy —
// or wedged — worker. When no slot is free (every worker running, or a
// slot held by a stalled task that a deadline join has abandoned), the
// drivers fall back to spawning a plain goroutine, exactly the
// pre-pool behaviour: a leaked worker therefore costs its own slot
// until it terminates but can never wedge the pool or delay other
// callers' work. Once the wedged task finally returns, the slot heals;
// if it never returns, the goroutine stays accounted in LeakedWorkers
// (the join that abandoned it tracks the task, pooled or spawned,
// identically).
//
// A Pool is safe for concurrent use. Close lets every worker exit
// after its current task; it never blocks on a wedged slot.
type Pool struct {
	mu      sync.RWMutex
	tasks   chan poolTask
	workers int
	closed  bool

	// idle counts workers parked in receive or about to park (a worker
	// re-arms its slot the moment its task completes, before looping
	// back to the channel, so back-to-back calls redispatch without
	// waiting for the physical re-park). Dispatchers reserve a slot by
	// decrementing; the buffered channel (cap = workers) then absorbs
	// the handoff even if the reserved worker has not parked yet.
	idle atomic.Int64

	dispatched atomic.Uint64 // tasks handed to a pool worker
	spawned    atomic.Uint64 // tasks that fell back to a fresh goroutine
}

// poolTask is one dispatched work unit: the function to run and the
// Group tracking its join. The struct travels by value through the
// task channel, so dispatch allocates nothing.
type poolTask struct {
	fn func()
	g  *Group
}

// NewPool starts a pool of n workers (n <= 0 selects DefaultThreads,
// the paper's one-worker-per-core policy).
func NewPool(n int) *Pool {
	if n <= 0 {
		n = DefaultThreads()
	}
	p := &Pool{tasks: make(chan poolTask, n), workers: n}
	p.idle.Store(int64(n))
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

// worker parks in receive until a task is handed over, runs it, and
// parks again; it exits when the pool is closed (draining any tasks
// still buffered first, so Close never strands a dispatched task).
func (p *Pool) worker() {
	for t := range p.tasks {
		p.runTask(t)
	}
}

// runTask executes one task, re-arming the idle slot and marking the
// group finished even if fn panics (a panic then propagates and
// crashes the process — the same contract as a spawned
// `go func() { defer g.finish(); fn() }()`; the drivers always wrap
// bodies in Protect, so this never fires in practice). The idle
// increment precedes finish so that a caller unblocked by the join can
// immediately re-dispatch onto this slot.
func (p *Pool) runTask(t poolTask) {
	defer func() {
		p.idle.Add(1)
		if t.g != nil {
			t.g.finish()
		}
	}()
	t.fn()
}

// Workers returns the configured worker count.
func (p *Pool) Workers() int { return p.workers }

// tryRun hands t to a pool worker, reporting false when no slot is
// free or the pool is closed (the caller then spawns). A reservation
// taken here is released by runTask when the task completes, or never
// — by design — if the task wedges its worker.
func (p *Pool) tryRun(t poolTask) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return false
	}
	if p.idle.Add(-1) < 0 {
		p.idle.Add(1)
		return false
	}
	p.tasks <- t // cannot block: the reservation guarantees buffer room
	p.dispatched.Add(1)
	return true
}

// Close shuts the pool down: workers exit once the channel drains (so
// already-dispatched tasks still run). Dispatch after Close falls back
// to spawning, so in-flight drivers keep working. Close is idempotent
// and never blocks on a wedged worker.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
}

// PoolStats is a point-in-time snapshot of a pool's dispatch counters.
type PoolStats struct {
	// Workers is the configured worker count.
	Workers int
	// Dispatched counts tasks handed to a pool worker.
	Dispatched uint64
	// Spawned counts tasks that found no free slot and fell back to a
	// fresh goroutine (overflow under concurrent callers, or slots held
	// by abandoned tasks). A steady-state serving process should see
	// this stay flat once warm.
	Spawned uint64
}

// Stats snapshots the pool's counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Workers:    p.workers,
		Dispatched: p.dispatched.Load(),
		Spawned:    p.spawned.Load(),
	}
}

// defaultPool is the process-wide pool the loop drivers dispatch onto,
// started lazily on first use.
var defaultPool atomic.Pointer[Pool]

// DefaultPool returns the process-wide worker pool, starting it on
// first use with one worker per GOMAXPROCS. Every loop driver (For,
// ForRange and their Ctx forms) and the core thread grid
// dispatch onto it, so a steady-state serving process wakes the same
// parked goroutines call after call instead of spawning fresh ones.
func DefaultPool() *Pool {
	if p := defaultPool.Load(); p != nil {
		return p
	}
	p := NewPool(runtime.GOMAXPROCS(0))
	if defaultPool.CompareAndSwap(nil, p) {
		return p
	}
	p.Close() // lost the race; use the winner's pool
	return defaultPool.Load()
}

// SetDefaultPool replaces the process-wide pool (e.g. to resize it for
// a deployment) and returns the previous one, which the caller owns —
// close it once no in-flight driver can still dispatch onto it. A nil
// argument is invalid.
func SetDefaultPool(p *Pool) *Pool {
	if p == nil {
		panic("parallel: SetDefaultPool(nil)")
	}
	return defaultPool.Swap(p)
}
