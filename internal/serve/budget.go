package serve

import "sync/atomic"

// Budget is a byte accountant: the registry's weight-residency budget
// charges each packed filter while it stays resident and releases the
// charge when it is evicted or dropped. Reserve is a CAS loop, so
// admission under concurrency never overshoots the ceiling; a limit of
// 0 means "account but never refuse" — the counters still drive the
// stats and the soak harness's return-to-baseline invariant.
type Budget struct {
	limit int64 // bytes; <= 0 means unlimited
	inUse atomic.Int64
	peak  atomic.Int64
}

// NewBudget builds a budget with the given byte ceiling (<= 0:
// unlimited, accounting only).
func NewBudget(limitBytes int64) *Budget {
	return &Budget{limit: limitBytes}
}

// Reserve charges n bytes against the ceiling, reporting false (and
// charging nothing) when the charge would exceed it. n <= 0 is a
// no-op that always succeeds.
func (b *Budget) Reserve(n int64) bool {
	if n <= 0 {
		return true
	}
	for {
		cur := b.inUse.Load()
		next := cur + n
		if b.limit > 0 && next > b.limit {
			return false
		}
		if b.inUse.CompareAndSwap(cur, next) {
			for {
				p := b.peak.Load()
				if next <= p || b.peak.CompareAndSwap(p, next) {
					return true
				}
			}
		}
	}
}

// Release returns n previously reserved bytes.
func (b *Budget) Release(n int64) {
	if n > 0 {
		b.inUse.Add(-n)
	}
}

// InUse returns the currently reserved bytes — the value the chaos
// soak compares against its pre-run baseline.
func (b *Budget) InUse() int64 { return b.inUse.Load() }

// Peak returns the high-water mark of reserved bytes.
func (b *Budget) Peak() int64 { return b.peak.Load() }

// Limit returns the configured ceiling (<= 0: unlimited).
func (b *Budget) Limit() int64 { return b.limit }
