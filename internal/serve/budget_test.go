package serve

import (
	"sync"
	"testing"
)

func TestBudgetReserveCeiling(t *testing.T) {
	b := NewBudget(100)
	if !b.Reserve(60) {
		t.Fatal("60 of 100 refused")
	}
	if b.Reserve(50) {
		t.Fatal("60+50 of 100 granted")
	}
	if !b.Reserve(40) {
		t.Fatal("60+40 of 100 refused")
	}
	if got := b.InUse(); got != 100 {
		t.Fatalf("InUse = %d, want 100", got)
	}
	b.Release(60)
	if !b.Reserve(50) {
		t.Fatal("40+50 of 100 refused after release")
	}
	if got := b.Peak(); got != 100 {
		t.Fatalf("Peak = %d, want 100", got)
	}
	b.Release(90)
	if got := b.InUse(); got != 0 {
		t.Fatalf("InUse = %d after full release, want 0", got)
	}
}

func TestBudgetUnlimitedStillAccounts(t *testing.T) {
	b := NewBudget(0)
	if !b.Reserve(1 << 40) {
		t.Fatal("unlimited budget refused a reservation")
	}
	if got := b.InUse(); got != 1<<40 {
		t.Fatalf("InUse = %d, want %d", got, int64(1)<<40)
	}
	b.Release(1 << 40)
}

// TestBudgetConcurrentNeverOvershoots: the CAS loop must hold the
// ceiling exactly under racing reservations — every successful Reserve
// observes InUse <= limit, and the books balance afterwards.
func TestBudgetConcurrentNeverOvershoots(t *testing.T) {
	const limit, chunk, workers, iters = 1000, 300, 8, 500
	b := NewBudget(limit)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if b.Reserve(chunk) {
					if got := b.InUse(); got > limit {
						t.Errorf("InUse = %d > limit %d", got, limit)
					}
					b.Release(chunk)
				}
			}
		}()
	}
	wg.Wait()
	if got := b.InUse(); got != 0 {
		t.Fatalf("InUse = %d after drain, want 0", got)
	}
	if p := b.Peak(); p > limit {
		t.Fatalf("Peak = %d > limit %d", p, limit)
	}
}
