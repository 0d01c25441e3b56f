package nn

import (
	"container/list"
	"time"

	"ndirect/internal/conv"
	"ndirect/internal/core"
)

// DefaultLogInterval rate-limits repeated backend-fallback log lines:
// at most one per (backend, shape) per interval, with a suppressed
// count on the next emission.
const DefaultLogInterval = 5 * time.Second

// DefaultLogKeyCap bounds the rate-limiter's key map. Multi-tenant
// traffic mints a fresh key per (site, backend, shape), so an unbounded
// map is a slow leak on a long-lived serving process; past the cap the
// least recently touched key is evicted and its pending suppressed count
// folds into the next emission's trailer, so no suppression is ever
// silently lost.
const DefaultLogKeyCap = 1024

// backendFailed emits the rate-limited line for a failed baseline
// backend whose layer the caller reruns on nDirect.
func (eng *Engine) backendFailed(a Algo, s conv.Shape, err error) {
	eng.logLimited("fail|"+a.String()+"|"+shapeKey(s),
		"nn: %v backend failed on %v; falling back to ndirect: %v", a, s, err)
}

// logEntry is one (site, backend, shape) key's rate-limit bookkeeping.
type logEntry struct {
	key        string
	last       time.Time
	suppressed int
}

// logLimited emits via core.Logf at most once per key per
// DefaultLogInterval; lines dropped in between surface as a suppressed
// count appended to the next emission. The key map is LRU-bounded at
// DefaultLogKeyCap: evicting a key folds its pending suppressed count
// into eng.logCarry, which the next emission (of any key) adds to its
// trailer — bounded memory, lossless counts.
func (eng *Engine) logLimited(key, format string, args ...any) {
	interval, keyCap := eng.logInterval, eng.logKeyCap
	if interval <= 0 {
		interval = DefaultLogInterval
	}
	if keyCap <= 0 {
		keyCap = DefaultLogKeyCap
	}
	now := time.Now()
	eng.logMu.Lock()
	if eng.logSeen == nil {
		eng.logSeen = make(map[string]*list.Element)
		eng.logLRU = list.New()
	}
	var e *logEntry
	if el := eng.logSeen[key]; el != nil {
		eng.logLRU.MoveToFront(el)
		e = el.Value.(*logEntry)
	} else {
		e = &logEntry{key: key}
		eng.logSeen[key] = eng.logLRU.PushFront(e)
		for eng.logLRU.Len() > keyCap {
			back := eng.logLRU.Back()
			old := back.Value.(*logEntry)
			eng.logLRU.Remove(back)
			delete(eng.logSeen, old.key)
			eng.logCarry += old.suppressed
		}
	}
	if !e.last.IsZero() && now.Sub(e.last) < interval {
		e.suppressed++
		eng.logMu.Unlock()
		return
	}
	suppressed := e.suppressed + eng.logCarry
	e.suppressed = 0
	eng.logCarry = 0
	e.last = now
	eng.logMu.Unlock()
	if suppressed > 0 {
		format += " [%d similar lines suppressed]"
		args = append(args, suppressed)
	}
	core.Logf(format, args...)
}
