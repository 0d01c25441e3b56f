package core

import (
	"errors"
	"log"
)

// Sentinel errors of the checked core API. Shape and operand failures
// wrap conv.ErrBadShape / conv.ErrDimMismatch; these cover the knobs
// and faults that only exist at the core layer.
var (
	// ErrBadOptions reports an Options value the planner cannot
	// honour: a negative forced cache tile, an unknown epilogue, a bias
	// of the wrong length, or a thread count past the implementation
	// limit.
	ErrBadOptions = errors.New("core: bad options")
	// ErrExecFault reports that the optimised execution path faulted
	// (a recovered worker panic or a non-finite output detected under
	// fault injection). The checked Execute variants log it and fall
	// back to the reference path, in place, instead of returning it; it
	// surfaces only when the FP64/INT16 entry points' sequential
	// fallback faults too.
	ErrExecFault = errors.New("core: execution fault")
	// ErrOverloaded reports that the serving runtime refused the
	// request before doing any convolution work: admission control
	// could not grant an execution slot before the caller's deadline,
	// its wait queue was full, or the tenant was at its outstanding
	// cap. It is the fail-fast sentinel of internal/serve; overload
	// rejections are
	// cheap by construction (no goroutines spawned, no buffers
	// allocated) so callers can shed load and retry elsewhere.
	ErrOverloaded = errors.New("core: overloaded")
	// ErrWeightsReleased reports an attempt to execute with a
	// PackedFilter that a residency manager has evicted (Release).
	// The weights themselves are gone only from the accounting — the
	// buffer is immutable until garbage-collected — so the error is a
	// staleness signal: drop the handle and re-pack from the KCRS
	// source, which reproduces the packed bytes bit-identically.
	ErrWeightsReleased = errors.New("core: packed weights released")
	// ErrIntegrity reports detected silent data corruption: a packed
	// filter whose bytes no longer match their pack-time CRC32-C, a
	// scratch-buffer canary overwritten by an out-of-bounds store, or a
	// kernel variant whose probe output diverged bit-for-bit from the
	// reference oracle. Unlike ErrExecFault it is never silently
	// recovered by the reference fallback: the corrupted artifact must
	// be discarded (re-packed from the retained KCRS source, the buffer
	// quarantined, the variant de-registered) before the result can be
	// trusted, so the checked Execute variants return it typed and the
	// owning layer performs the recovery.
	ErrIntegrity = errors.New("core: integrity check failed")
)

// maxThreads bounds Options.Threads so the thread-mapping solver's
// factorisation enumeration stays trivially cheap; no real machine
// this library targets has more workers.
const maxThreads = 1 << 12

// Logf is the destination of the fault-tolerance log lines (reference
// fallbacks, skipped schedules). It defaults to the standard logger;
// tests redirect it to t.Logf.
var Logf = log.Printf
