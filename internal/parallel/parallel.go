// Package parallel provides the OpenMP-style static work partitioning
// the paper uses (§6): a fixed pool of PT workers, static chunking of
// loop ranges, and the two-dimensional PTk × PTn thread grid that
// nDirect maps onto the K and N/H/W convolution dimensions.
//
// The paper spawns one OpenMP thread per physical core. Here workers
// are goroutines; on a multi-core host they execute concurrently, on a
// single-core host they interleave (the harness uses the machine model
// for multi-core projections either way).
//
// Unlike OpenMP, the runtime is fault tolerant: a panic inside a
// worker body is recovered, converted into a *PanicError (carrying
// the panic value and stack) and returned as the loop's error instead
// of crashing the process. After the first fault, the remaining
// chunks observe a cooperative stop flag and cancel: For stops
// between body invocations, ForRange before each not-yet-
// started chunk. Only the first fault is reported.
package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"ndirect/internal/faultinject"
)

// DefaultThreads returns the worker count matching the paper's policy
// of one thread per available core.
func DefaultThreads() int { return runtime.GOMAXPROCS(0) }

// ErrWorkerPanic is the sentinel wrapped by every *PanicError, so
// callers can classify recovered worker faults with errors.Is.
var ErrWorkerPanic = errors.New("parallel: worker panicked")

// PanicError is a worker panic recovered by the runtime: the original
// panic value plus the stack of the panicking goroutine.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: worker panicked: %v\n%s", e.Value, e.Stack)
}

// Unwrap ties every recovered panic to ErrWorkerPanic.
func (e *PanicError) Unwrap() error { return ErrWorkerPanic }

// Protect runs fn in the calling goroutine, converting a panic into a
// *PanicError. It is the recovery primitive the loop drivers (and the
// core thread grid) build on.
func Protect(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	fn()
	return nil
}

// FaultSink collects the first fault of a worker group and exposes
// the cooperative stop flag the surviving workers poll. A sink can be
// Reset between runs, so pooled execution state reuses one sink per
// slot instead of allocating a fresh one per call.
type FaultSink struct {
	stop atomic.Bool
	mu   sync.Mutex
	set  bool
	err  error
}

// Record stores err as the group's fault if it is the first, and
// raises the stop flag. nil errors are ignored.
func (f *FaultSink) Record(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	if !f.set {
		f.set = true
		f.err = err
	}
	f.mu.Unlock()
	f.stop.Store(true)
}

// Stopped reports whether a fault has been recorded (workers poll
// this between work items).
func (f *FaultSink) Stopped() bool { return f.stop.Load() }

// Err returns the first recorded fault. Only valid after the worker
// group has been joined.
func (f *FaultSink) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Reset clears the sink for reuse. Only valid once the previous run's
// workers have been joined.
func (f *FaultSink) Reset() {
	f.mu.Lock()
	f.set = false
	f.err = nil
	f.mu.Unlock()
	f.stop.Store(false)
}

// Range is a half-open index interval [Lo, Hi).
type Range struct{ Lo, Hi int }

// Len returns the number of indices in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Split statically partitions [0, n) into at most p near-equal
// contiguous chunks (OpenMP schedule(static)). The first n%p chunks
// are one element longer. Fewer than p chunks are returned when n < p.
func Split(n, p int) []Range {
	if p < 1 {
		p = 1
	}
	if p > n {
		p = n
	}
	if n <= 0 {
		return nil
	}
	chunks := make([]Range, 0, p)
	base, rem := n/p, n%p
	lo := 0
	for i := 0; i < p; i++ {
		size := base
		if i < rem {
			size++
		}
		chunks = append(chunks, Range{lo, lo + size})
		lo += size
	}
	return chunks
}

// For runs body(i) for every i in [0, n) across p workers with static
// partitioning. Workers share nothing but the index range, matching
// the paper's write-conflict-free mapping (no parallelisation over
// the reduction dimensions C, R, S).
//
// A panic inside body is recovered and returned as a *PanicError
// (wrapping ErrWorkerPanic); the remaining workers stop before their
// next body invocation, so the caller must treat the output as
// incomplete whenever the error is non-nil.
func For(n, p int, body func(i int)) error {
	chunks := Split(n, p)
	if len(chunks) == 0 {
		return nil
	}
	var fs FaultSink
	runChunk := func(w int, c Range) {
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
	}
	if len(chunks) == 1 {
		runChunk(0, chunks[0])
		return fs.Err()
	}
	var g Group
	pool := DefaultPool()
	for w, c := range chunks[1:] {
		w, c := w+1, c
		g.GoVia(pool, func() { runChunk(w, c) })
	}
	runChunk(0, chunks[0])
	g.Wait()
	return fs.Err()
}

// ForRange runs body(lo, hi) once per worker chunk — used when the
// body wants to amortise per-chunk setup (thread-private packing
// buffers, filter transform scratch) across its whole range, as the
// nDirect driver does. Panic recovery and error propagation follow
// For; cancellation is chunk-grained, since the body owns its whole
// range.
func ForRange(n, p int, body func(worker int, r Range)) error {
	chunks := Split(n, p)
	if len(chunks) == 0 {
		return nil
	}
	var fs FaultSink
	runChunk := func(w int, c Range) {
		fs.Record(Protect(func() {
			faultinject.Fire(faultinject.WorkerPanic, w)
			faultinject.Stall(faultinject.WorkerStall, w)
			if fs.Stopped() {
				return
			}
			body(w, c)
		}))
	}
	if len(chunks) == 1 {
		runChunk(0, chunks[0])
		return fs.Err()
	}
	var g Group
	pool := DefaultPool()
	for w, c := range chunks[1:] {
		w, c := w+1, c
		g.GoVia(pool, func() { runChunk(w, c) })
	}
	runChunk(0, chunks[0])
	g.Wait()
	return fs.Err()
}

// MustFor is For for callers that keep the legacy crash-on-fault
// semantics (reference baselines, elementwise passes): a recovered
// worker fault is re-raised as a panic in the caller instead of being
// returned.
func MustFor(n, p int, body func(i int)) {
	if err := For(n, p, body); err != nil {
		panic(err)
	}
}

// Factorize returns all (a, b) pairs with a*b == p, a ascending. Used
// by the thread-mapping solver to enumerate PTk × PTn candidates.
func Factorize(p int) [][2]int {
	var out [][2]int
	for a := 1; a <= p; a++ {
		if p%a == 0 {
			out = append(out, [2]int{a, p / a})
		}
	}
	return out
}
