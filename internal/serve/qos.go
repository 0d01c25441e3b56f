package serve

import (
	"context"
	"fmt"
	"sync"

	"ndirect/internal/core"
)

// QoSClass is a request's admission class. Classes order strictly:
// under saturation the lowest class is shed first (its share of the
// wait queue fills first), and freed execution slots are handed to
// waiting classes in weighted-fair order, so premium traffic keeps
// flowing while batch traffic absorbs the overload.
type QoSClass int

const (
	// ClassBatch is the lowest class: offline/bulk traffic, first to be
	// shed with ErrOverloaded when the queue fills.
	ClassBatch QoSClass = iota
	// ClassStandard is the default interactive class.
	ClassStandard
	// ClassPremium is the highest class: last to be shed, largest share
	// of freed slots.
	ClassPremium
	// NumQoSClasses is the number of admission classes.
	NumQoSClasses = int(ClassPremium) + 1
)

func (c QoSClass) String() string {
	switch c {
	case ClassBatch:
		return "batch"
	case ClassStandard:
		return "standard"
	case ClassPremium:
		return "premium"
	}
	return fmt.Sprintf("QoSClass(%d)", int(c))
}

// Valid reports whether c names a defined class.
func (c QoSClass) Valid() bool { return c >= ClassBatch && c <= ClassPremium }

// classWeights are the weighted-fair shares of freed slots: a premium
// waiter is granted 4 slots for every 2 standard and 1 batch grant
// when all classes are queued (smooth weighted round-robin, so the
// interleave is even, not bursty).
var classWeights = [NumQoSClasses]int{1, 2, 4}

// tgWaiter is one queued request. grant is buffered (capacity 1) so a
// granter never blocks on a waiter that is simultaneously timing out;
// the granted flag, written under the gate's mutex, resolves that race:
// whichever side observes it first owns the slot's disposition.
type tgWaiter struct {
	tenant  string
	class   QoSClass
	grant   chan struct{}
	granted bool
}

// TenantGate is the multi-tenant admission controller: at most
// maxInFlight requests execute concurrently; waiters queue per class
// in a shared bounded queue whose capacity is class-graduated (class c
// may only join while the total queue is below (c+1)/NumQoSClasses of
// maxQueue, so batch sheds strictly before standard, and standard
// strictly before premium); freed slots are handed directly to the
// longest-waiting request of the smooth-WRR-chosen class; and each
// tenant's outstanding requests (in flight + queued) are capped
// independently, so one tenant cannot occupy every slot.
//
// All rejection paths fail fast with an error wrapping
// core.ErrOverloaded, before any convolution work or allocation.
type TenantGate struct {
	mu          sync.Mutex
	maxInFlight int
	maxQueue    int
	inFlight    int
	queues      [NumQoSClasses][]*tgWaiter
	queuedTotal int
	wfq         [NumQoSClasses]int // smooth-WRR running weights
	outstanding map[string]int     // tenant → in flight + queued

	admitted   [NumQoSClasses]uint64
	shedFull   [NumQoSClasses]uint64 // rejected: class's queue share full
	shedLate   [NumQoSClasses]uint64 // rejected: ctx expired while queued
	tenantRejs uint64                // rejected: per-tenant cap
}

// NewTenantGate builds a tenant gate admitting maxInFlight concurrent
// requests with a class-graduated wait queue of maxQueue. maxInFlight
// < 1 is clamped to 1; maxQueue < 0 is clamped to 0 (reject the moment
// all slots are taken, regardless of class).
func NewTenantGate(maxInFlight, maxQueue int) *TenantGate {
	if maxInFlight < 1 {
		maxInFlight = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &TenantGate{
		maxInFlight: maxInFlight,
		maxQueue:    maxQueue,
		outstanding: map[string]int{},
	}
}

// queueCap returns the total-queue bound class c admits at: the queue
// is shared, but class c may only join while fewer than its graduated
// share are waiting. Premium's share is the whole queue, so a premium
// rejection implies every lower class was already rejecting.
func (g *TenantGate) queueCap(c QoSClass) int {
	return g.maxQueue * (int(c) + 1) / NumQoSClasses
}

// Acquire claims an execution slot for tenant's request at the given
// class, waiting in the class-graduated queue if none is free. limit
// bounds the tenant's outstanding requests (in flight + queued); <= 0
// means uncapped. It returns a release function (idempotent; call
// exactly when the request finishes) or an error wrapping
// core.ErrOverloaded. A nil ctx waits forever.
func (g *TenantGate) Acquire(ctx context.Context, tenant string, class QoSClass, limit int) (release func(), err error) {
	if err := g.admit(ctx, tenant, class, limit); err != nil {
		return nil, err
	}
	return g.releaseFunc(tenant), nil
}

// admit is Acquire without the release function: on a nil error the
// caller holds one slot and must hand it back with exactly one leave.
// The registry's request path admits this way, so a request builds no
// release closure.
func (g *TenantGate) admit(ctx context.Context, tenant string, class QoSClass, limit int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if !class.Valid() {
		return fmt.Errorf("%w: unknown QoS class %d", core.ErrBadOptions, int(class))
	}
	g.mu.Lock()
	if limit > 0 && g.outstanding[tenant] >= limit {
		g.tenantRejs++
		n := g.outstanding[tenant]
		g.mu.Unlock()
		return fmt.Errorf("%w: tenant %q at outstanding cap (%d of %d)",
			core.ErrOverloaded, tenant, n, limit)
	}
	if g.inFlight < g.maxInFlight {
		g.inFlight++
		g.outstanding[tenant]++
		g.admitted[class]++
		g.mu.Unlock()
		return nil
	}
	if g.queuedTotal >= g.queueCap(class) {
		g.shedFull[class]++
		waiting := g.queuedTotal
		g.mu.Unlock()
		return fmt.Errorf("%w: %v queue share full (%d waiting, class cap %d)",
			core.ErrOverloaded, class, waiting, g.queueCap(class))
	}
	w := &tgWaiter{tenant: tenant, class: class, grant: make(chan struct{}, 1)}
	g.queues[class] = append(g.queues[class], w)
	g.queuedTotal++
	g.outstanding[tenant]++
	g.mu.Unlock()

	select {
	case <-w.grant:
		return nil
	case <-ctx.Done():
		g.mu.Lock()
		if w.granted {
			// The grant raced the deadline and won: the slot is ours, so
			// honour it — the caller sees success, exactly as if the
			// grant had arrived a tick earlier.
			g.mu.Unlock()
			return nil
		}
		g.removeWaiterLocked(w)
		g.shedLate[class]++
		g.decOutstandingLocked(tenant)
		g.mu.Unlock()
		return fmt.Errorf("%w: no slot before deadline (%v class): %w",
			core.ErrOverloaded, class, context.Cause(ctx))
	}
}

// releaseFunc returns tenant's slot through leave exactly once even if
// called repeatedly.
func (g *TenantGate) releaseFunc(tenant string) func() {
	var once sync.Once
	return func() { once.Do(func() { g.leave(tenant) }) }
}

// leave returns one of tenant's admitted slots: the slot is handed
// directly to the next waiter when one is queued (the in-flight count
// never dips, so no late arriver can steal it), or retired otherwise.
func (g *TenantGate) leave(tenant string) {
	g.mu.Lock()
	g.decOutstandingLocked(tenant)
	if w := g.pickNextLocked(); w != nil {
		w.granted = true
		g.admitted[w.class]++
		w.grant <- struct{}{}
	} else {
		g.inFlight--
	}
	g.mu.Unlock()
}

func (g *TenantGate) decOutstandingLocked(tenant string) {
	if n := g.outstanding[tenant] - 1; n > 0 {
		g.outstanding[tenant] = n
	} else {
		delete(g.outstanding, tenant)
	}
}

// pickNextLocked dequeues the next waiter by smooth weighted
// round-robin over the classes with waiters (nginx-style: every
// queued class's running weight grows by its share; the largest wins
// and pays back the round's total), which interleaves grants evenly
// at the configured 4:2:1 ratio instead of serving bursts per class.
// Ties break to the higher class. Returns nil when nothing is queued.
func (g *TenantGate) pickNextLocked() *tgWaiter {
	total := 0
	best := -1
	for c := NumQoSClasses - 1; c >= 0; c-- {
		if len(g.queues[c]) == 0 {
			continue
		}
		g.wfq[c] += classWeights[c]
		total += classWeights[c]
		if best < 0 || g.wfq[c] > g.wfq[best] {
			best = c
		}
	}
	if best < 0 {
		return nil
	}
	g.wfq[best] -= total
	w := g.queues[best][0]
	g.queues[best] = g.queues[best][1:]
	g.queuedTotal--
	return w
}

// removeWaiterLocked unlinks a timed-out waiter from its class queue.
func (g *TenantGate) removeWaiterLocked(w *tgWaiter) {
	q := g.queues[w.class]
	for i, x := range q {
		if x == w {
			g.queues[w.class] = append(q[:i], q[i+1:]...)
			g.queuedTotal--
			return
		}
	}
}

// TenantGateStats is a point-in-time snapshot of the tenant gate.
type TenantGateStats struct {
	InFlight int
	Queued   int
	// Per-class counters, indexed by QoSClass.
	Admitted      [NumQoSClasses]uint64
	ShedFull      [NumQoSClasses]uint64 // rejected at the class's queue share
	ShedLate      [NumQoSClasses]uint64 // ctx expired while queued
	TenantCapRejs uint64                // rejected at a per-tenant cap
	Tenants       int                   // tenants with outstanding requests
}

// Stats snapshots the gate's counters.
func (g *TenantGate) Stats() TenantGateStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return TenantGateStats{
		InFlight:      g.inFlight,
		Queued:        g.queuedTotal,
		Admitted:      g.admitted,
		ShedFull:      g.shedFull,
		ShedLate:      g.shedLate,
		TenantCapRejs: g.tenantRejs,
		Tenants:       len(g.outstanding),
	}
}

// Outstanding returns tenant's current in-flight + queued count.
func (g *TenantGate) Outstanding(tenant string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.outstanding[tenant]
}
