package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ndirect/internal/core"
)

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestGateAdmitsExactlyInFlightPlusQueue is the ISSUE acceptance load
// test: with in-flight limit F, queue Q and F+Q+k concurrent callers,
// exactly F+Q are admitted (F running, Q queued) and the k extras fail
// fast with core.ErrOverloaded long before their deadline, with the
// goroutine count bounded by the queue — no pile-up.
func TestGateAdmitsExactlyInFlightPlusQueue(t *testing.T) {
	const F, Q, k = 4, 3, 5
	g := NewGate(F, Q)

	// Occupy every execution slot.
	holders := make([]func(), F)
	for i := range holders {
		rel, err := g.Acquire(context.Background())
		if err != nil {
			t.Fatalf("holder %d: %v", i, err)
		}
		holders[i] = rel
	}

	baseGoroutines := runtime.NumGoroutine()

	// Offer Q+k more with a deadline far beyond the test's own budget:
	// a rejection at the deadline instead of fail-fast would hang the
	// waitUntil below.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var admitted, rejected atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < Q+k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, err := g.Acquire(ctx)
			if err != nil {
				if !errors.Is(err, core.ErrOverloaded) {
					t.Errorf("rejection is %v, want errors.Is(err, core.ErrOverloaded)", err)
				}
				rejected.Add(1)
				return
			}
			admitted.Add(1)
			rel()
		}()
	}

	// All k extras must be rejected while the F holders still hold —
	// fail fast, not at the deadline — with exactly Q left waiting.
	waitUntil(t, "k fast rejections", func() bool { return rejected.Load() == k })
	waitUntil(t, "Q queued waiters", func() bool { return g.Queued() == Q })
	if got := g.InFlight(); got != F {
		t.Fatalf("InFlight = %d, want %d", got, F)
	}
	// Bounded resident set: the k rejected callers have exited; only
	// the Q waiters (plus test scaffolding slack) remain.
	if got := runtime.NumGoroutine(); got > baseGoroutines+Q+k/2 {
		t.Fatalf("goroutines grew to %d from %d; queue is not bounding the pile-up", got, baseGoroutines)
	}

	for _, rel := range holders {
		rel()
	}
	wg.Wait()

	if a, r := admitted.Load(), rejected.Load(); a != Q || r != k {
		t.Fatalf("admitted %d rejected %d of the burst, want %d and %d", a, r, Q, k)
	}
	st := g.Stats()
	if st.Admitted != F+Q || st.Waited != Q || st.RejectedFull != k || st.RejectedLate != 0 {
		t.Fatalf("stats = %+v, want Admitted=%d Waited=%d RejectedFull=%d RejectedLate=0", st, F+Q, Q, k)
	}
	if st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("gate not drained: %+v", st)
	}
}

// TestGateDeadlineWhileQueued: queued waiters whose context expires
// before a slot frees leave with ErrOverloaded wrapping the context
// cause, and the queue drains.
func TestGateDeadlineWhileQueued(t *testing.T) {
	g := NewGate(1, 4)
	rel, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = g.Acquire(ctx)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, core.ErrOverloaded) {
			t.Fatalf("waiter %d: err = %v, want ErrOverloaded", i, err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("waiter %d: err = %v, want the context cause in the chain", i, err)
		}
	}
	if q := g.Queued(); q != 0 {
		t.Fatalf("Queued = %d after expiry, want 0", q)
	}
	if st := g.Stats(); st.RejectedLate != 4 {
		t.Fatalf("RejectedLate = %d, want 4", st.RejectedLate)
	}
}

// TestGateReleaseIdempotent: calling release twice must not free two
// slots (which would over-admit forever after).
func TestGateReleaseIdempotent(t *testing.T) {
	g := NewGate(1, 0)
	rel, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel()
	rel() // second call must be a no-op
	if got := g.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after double release, want 0", got)
	}
	// The single slot must still behave as a single slot.
	rel2, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Acquire(context.Background()); !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("second acquire = %v, want ErrOverloaded (queue 0)", err)
	}
	rel2()
}

// TestGateClamps: degenerate configurations stay usable.
func TestGateClamps(t *testing.T) {
	g := NewGate(0, -1) // clamped to 1 slot, 0 queue
	rel, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatalf("clamped gate refused first caller: %v", err)
	}
	if _, err := g.Acquire(context.Background()); !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("want immediate overload with zero queue, got %v", err)
	}
	rel()
}

// The gate's in-flight accounting must stay coherent under concurrent
// acquire/release/read: never above the configured ceiling, never
// negative, and exactly zero once everything has drained. Run with
// -race in CI.
func TestGateInFlightCoherentUnderRace(t *testing.T) {
	const max = 4
	g := NewGate(max, 64)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := g.InFlight(); n < 0 || n > max {
				t.Errorf("InFlight = %d, want 0..%d", n, max)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				release, err := g.Acquire(context.Background())
				if err != nil {
					continue
				}
				release()
				release() // idempotent: must not double-decrement
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if n := g.InFlight(); n != 0 {
		t.Fatalf("drained gate InFlight = %d, want 0", n)
	}
}
