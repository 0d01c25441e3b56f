package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ndirect/internal/faultinject"
)

// Context-aware loop drivers. The bare drivers (For, ForRange) join
// their workers with a plain WaitGroup, so one wedged worker blocks
// the caller forever — acceptable for a benchmark harness, not for a
// serving system. The *Ctx variants bound that
// join: when the context expires or is canceled before the grid
// finishes, the driver raises the group's cooperative stop flag,
// abandons the join (the wedged goroutines are leaked deliberately and
// accounted in LeakedWorkers until they terminate) and returns an
// error wrapping ErrCanceled plus the context's cause, so callers can
// classify with errors.Is(err, context.DeadlineExceeded).
//
// A context with no Done channel (Background, TODO) costs nothing:
// the *Ctx drivers delegate to the bare ones.

// ErrCanceled is the sentinel wrapped by every error the context-aware
// drivers return for an abandoned worker group. The returned errors
// also wrap the context's cause (context.DeadlineExceeded or
// context.Canceled).
var ErrCanceled = errors.New("parallel: work abandoned on cancellation")

// leakedWorkers counts goroutines abandoned by detached joins that
// have not yet terminated (here and in the core thread grid).
var leakedWorkers atomic.Int64

// LeakedWorkers reports the number of worker goroutines abandoned by
// expired-context joins that are still running. It returns to zero
// once the wedged workers terminate (e.g. after faultinject.Reset
// releases a worker-stall); a persistently positive value means truly
// wedged goroutines. The count is a snapshot and may transiently
// overcount workers that finished during the abandonment itself.
func LeakedWorkers() int64 { return leakedWorkers.Load() }

// cancelErr wraps the context's cause in ErrCanceled.
func cancelErr(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrCanceled, context.Cause(ctx))
}

// Group tracks a spawned worker group for a context-bounded join. The
// zero value is ready to use. It is the building block the *Ctx
// drivers here and the core thread grid share.
type Group struct {
	wg      sync.WaitGroup
	pending atomic.Int64
}

// finish marks one tracked task complete. It is called by the worker
// side of every dispatch path (pool handoff or spawned goroutine).
func (g *Group) finish() {
	g.pending.Add(-1)
	g.wg.Done()
}

// Go runs fn in a tracked goroutine. fn is responsible for its own
// panic recovery (the drivers wrap bodies in Protect).
func (g *Group) Go(fn func()) {
	g.wg.Add(1)
	g.pending.Add(1)
	go func() {
		defer g.finish()
		fn()
	}()
}

// GoVia runs fn as a tracked task, handing it to a parked worker of
// pool when one is idle and spawning a plain goroutine otherwise (the
// pre-pool behaviour — so an exhausted or closed pool degrades, never
// deadlocks, and nested parallel regions cannot wedge each other). fn
// is responsible for its own panic recovery.
func (g *Group) GoVia(pool *Pool, fn func()) {
	g.wg.Add(1)
	g.pending.Add(1)
	if pool != nil && pool.tryRun(poolTask{fn: fn, g: g}) {
		return
	}
	if pool != nil {
		pool.spawned.Add(1)
	}
	go func() {
		defer g.finish()
		fn()
	}()
}

// Wait joins the group unconditionally (the bare drivers' join).
func (g *Group) Wait() { g.wg.Wait() }

// WaitCtx joins the group, bounded by ctx. It returns nil when every
// worker finished, or an error wrapping ErrCanceled (and the context's
// cause) when ctx expired first.
//
// On abandonment, onAbandon (if non-nil) runs synchronously with the
// abandonment error before WaitCtx returns — the hook the callers use
// to raise their stop flag so surviving workers cancel at their next
// poll. The abandoned workers are counted in LeakedWorkers until they
// terminate, after which drain (if non-nil) runs on the detached
// monitor goroutine — the hook the core grid uses to recycle run state
// only once no abandoned worker can still touch it. On a nil return
// neither hook runs: every worker has finished and the caller owns all
// run state again, so it performs its own release inline.
func (g *Group) WaitCtx(ctx context.Context, onAbandon func(error), drain func()) error {
	if ctx == nil || ctx.Done() == nil {
		g.wg.Wait()
		return nil
	}
	done := make(chan struct{})
	go func() { g.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		err := cancelErr(ctx)
		if onAbandon != nil {
			onAbandon(err)
		}
		n := g.pending.Load()
		leakedWorkers.Add(n)
		go func() {
			<-done
			leakedWorkers.Add(-n)
			if drain != nil {
				drain()
			}
		}()
		return err
	}
}

// ForCtx is For bounded by ctx: body(i) runs for every i in [0, n)
// across p workers unless the context expires first, in which case the
// remaining chunks cancel cooperatively, any wedged worker is
// abandoned, and the returned error wraps ErrCanceled and the
// context's cause. The output must be treated as incomplete whenever
// the error is non-nil.
func ForCtx(ctx context.Context, n, p int, body func(i int)) error {
	if ctx == nil || ctx.Done() == nil {
		return For(n, p, body)
	}
	if ctx.Err() != nil {
		return cancelErr(ctx)
	}
	chunks := Split(n, p)
	if len(chunks) == 0 {
		return nil
	}
	var fs FaultSink
	var g Group
	pool := DefaultPool()
	for w, c := range chunks {
		w, c := w, c
		g.GoVia(pool, func() {
			fs.Record(Protect(func() {
				faultinject.Fire(faultinject.WorkerPanic, w)
				faultinject.Stall(faultinject.WorkerStall, w)
				for i := c.Lo; i < c.Hi; i++ {
					if fs.Stopped() {
						return
					}
					body(i)
				}
			}))
		})
	}
	if err := g.WaitCtx(ctx, fs.Record, nil); err != nil {
		return err
	}
	return fs.Err()
}

// ForRangeCtx is ForRange bounded by ctx; cancellation is
// chunk-grained like ForRange's fault cancellation, but a wedged chunk
// no longer blocks the join.
func ForRangeCtx(ctx context.Context, n, p int, body func(worker int, r Range)) error {
	if ctx == nil || ctx.Done() == nil {
		return ForRange(n, p, body)
	}
	if ctx.Err() != nil {
		return cancelErr(ctx)
	}
	chunks := Split(n, p)
	if len(chunks) == 0 {
		return nil
	}
	var fs FaultSink
	var g Group
	pool := DefaultPool()
	for w, c := range chunks {
		w, c := w, c
		g.GoVia(pool, func() {
			fs.Record(Protect(func() {
				faultinject.Fire(faultinject.WorkerPanic, w)
				faultinject.Stall(faultinject.WorkerStall, w)
				if fs.Stopped() {
					return
				}
				body(w, c)
			}))
		})
	}
	if err := g.WaitCtx(ctx, fs.Record, nil); err != nil {
		return err
	}
	return fs.Err()
}
