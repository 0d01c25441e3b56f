package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ndirect/internal/core"
)

// waitQueued polls until the gate reports want queued waiters (the
// only nondeterminism in these tests is goroutine startup).
func waitQueued(t *testing.T, g *TenantGate, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for g.Stats().Queued != want {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d (at %d)", want, g.Stats().Queued)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTenantGateShedOrdering: the graduated queue shares must shed the
// lowest class strictly first — at every occupancy, a class rejecting
// implies every lower class also rejects, and premium only rejects
// when the whole queue is full.
func TestTenantGateShedOrdering(t *testing.T) {
	g := NewTenantGate(1, 6) // shares: batch 2, standard 4, premium 6
	if err := g.admit(context.Background(), "holder", ClassStandard, 0); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	park := func(n int, class QoSClass) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := g.admit(context.Background(), "filler", class, 0); err != nil {
					t.Errorf("filler admit: %v", err)
					return
				}
				g.leave("filler") // chain the slot to the next waiter
			}()
		}
	}

	park(2, ClassPremium)
	waitQueued(t, g, 2)
	// Occupancy 2 = batch's whole share: batch sheds, standard does not.
	if err := g.admit(context.Background(), "t", ClassBatch, 0); !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("batch at occupancy 2: want ErrOverloaded, got %v", err)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := g.admit(expired, "t", ClassStandard, 0); !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("standard should queue (then expire late), got %v", err)
	}
	st := g.Stats()
	if st.ShedFull[ClassBatch] != 1 || st.ShedFull[ClassStandard] != 0 {
		t.Fatalf("shed-full counters: batch=%d standard=%d, want 1/0", st.ShedFull[ClassBatch], st.ShedFull[ClassStandard])
	}
	if st.ShedLate[ClassStandard] != 1 {
		t.Fatalf("standard expiry must count shed-late, got %d", st.ShedLate[ClassStandard])
	}

	park(2, ClassPremium)
	waitQueued(t, g, 4)
	// Occupancy 4 = standard's share: standard sheds, premium does not.
	if err := g.admit(context.Background(), "t", ClassStandard, 0); !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("standard at occupancy 4: want ErrOverloaded, got %v", err)
	}
	park(2, ClassPremium)
	waitQueued(t, g, 6)
	// Queue full: even premium sheds — and by construction every lower
	// class was already shedding at this occupancy.
	if err := g.admit(context.Background(), "t", ClassPremium, 0); !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("premium at full queue: want ErrOverloaded, got %v", err)
	}
	st = g.Stats()
	for c := 0; c < NumQoSClasses-1; c++ {
		if st.ShedFull[c+1] > 0 && st.ShedFull[c] == 0 {
			t.Fatalf("class %d shed before class %d", c+1, c)
		}
	}

	g.leave("holder") // drain: the chain releases every parked filler
	wg.Wait()
	st = g.Stats()
	if st.InFlight != 0 || st.Queued != 0 || st.Tenants != 0 {
		t.Fatalf("gate not drained: %+v", st)
	}
}

// TestTenantGateWRRInterleave: freed slots must be granted in the
// smooth-WRR order — with one batch, two standard and four premium
// waiters queued, the grant sequence is exactly
// premium, standard, premium, batch, premium, standard, premium.
func TestTenantGateWRRInterleave(t *testing.T) {
	g := NewTenantGate(1, 100)
	if err := g.admit(context.Background(), "holder", ClassStandard, 0); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var order []QoSClass
	var wg sync.WaitGroup
	enqueue := func(class QoSClass) {
		wg.Add(1)
		ready := g.Stats().Queued + 1
		go func() {
			defer wg.Done()
			if err := g.admit(context.Background(), "t", class, 0); err != nil {
				t.Errorf("admit %v: %v", class, err)
				return
			}
			mu.Lock()
			order = append(order, class)
			mu.Unlock()
			g.leave("t")
		}()
		waitQueued(t, g, ready)
	}
	enqueue(ClassBatch)
	enqueue(ClassStandard)
	enqueue(ClassStandard)
	for i := 0; i < 4; i++ {
		enqueue(ClassPremium)
	}

	g.leave("holder")
	wg.Wait()
	want := []QoSClass{ClassPremium, ClassStandard, ClassPremium, ClassBatch, ClassPremium, ClassStandard, ClassPremium}
	if len(order) != len(want) {
		t.Fatalf("granted %d waiters, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v, want %v", order, want)
		}
	}
}

// TestTenantGatePerTenantCap: a tenant at its outstanding cap is
// rejected typed while other tenants keep being admitted, and the cap
// frees as the tenant's requests finish.
func TestTenantGatePerTenantCap(t *testing.T) {
	g := NewTenantGate(4, 4)
	if err := g.admit(context.Background(), "a", ClassStandard, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.admit(context.Background(), "a", ClassStandard, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.admit(context.Background(), "a", ClassPremium, 2); !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("tenant a past cap: want ErrOverloaded, got %v", err)
	}
	if err := g.admit(context.Background(), "b", ClassStandard, 2); err != nil {
		t.Fatalf("tenant b must be unaffected by a's cap: %v", err)
	}
	if g.Outstanding("a") != 2 || g.Outstanding("b") != 1 {
		t.Fatalf("outstanding a=%d b=%d, want 2/1", g.Outstanding("a"), g.Outstanding("b"))
	}
	g.leave("a")
	if err := g.admit(context.Background(), "a", ClassStandard, 2); err != nil {
		t.Fatalf("tenant a after release: %v", err)
	}
	if g.Stats().TenantCapRejs != 1 {
		t.Fatalf("cap rejections = %d, want 1", g.Stats().TenantCapRejs)
	}
}

// TestTenantGateDeadlineWhileQueued: a queued request whose context
// expires leaves the queue immediately with a typed rejection carrying
// the context's cause, and its bookkeeping (queue slot, tenant
// outstanding) is fully undone.
func TestTenantGateDeadlineWhileQueued(t *testing.T) {
	g := NewTenantGate(1, 4)
	if err := g.admit(context.Background(), "holder", ClassStandard, 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := g.admit(ctx, "late", ClassPremium, 0)
	if !errors.Is(err, core.ErrOverloaded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrOverloaded wrapping DeadlineExceeded, got %v", err)
	}
	st := g.Stats()
	if st.Queued != 0 || g.Outstanding("late") != 0 {
		t.Fatalf("late waiter left residue: queued=%d outstanding=%d", st.Queued, g.Outstanding("late"))
	}
	if st.ShedLate[ClassPremium] != 1 {
		t.Fatalf("shed-late = %d, want 1", st.ShedLate[ClassPremium])
	}
	g.leave("holder")
	if g.Stats().InFlight != 0 {
		t.Fatal("slot not retired")
	}
}

// TestTenantGateLeaveGrantsOneWaiter: one leave hands the freed slot
// to exactly one of two queued waiters, and the single slot still
// behaves as a single slot once both have left.
func TestTenantGateLeaveGrantsOneWaiter(t *testing.T) {
	g := NewTenantGate(1, 4)
	if err := g.admit(context.Background(), "holder", ClassStandard, 0); err != nil {
		t.Fatal(err)
	}
	granted := make(chan bool, 2)
	for i := 0; i < 2; i++ {
		go func() {
			err := g.admit(context.Background(), "waiter", ClassPremium, 0)
			if err != nil {
				t.Errorf("waiter admit: %v", err)
			}
			granted <- err == nil
		}()
	}
	waitQueued(t, g, 2)
	g.leave("holder")
	for i := 0; i < 2; i++ {
		if !<-granted {
			continue
		}
		if st := g.Stats(); st.InFlight != 1 || st.Queued != 1-i {
			t.Fatalf("waiter %d admitted: InFlight %d Queued %d, want 1 and %d", i, st.InFlight, st.Queued, 1-i)
		}
		g.leave("waiter")
	}
	if st := g.Stats(); st.InFlight != 0 || st.Queued != 0 || st.Tenants != 0 {
		t.Fatalf("gate not drained: %+v", st)
	}
	// The single slot must still behave as a single slot.
	if err := g.admit(context.Background(), "t", ClassStandard, 0); err != nil {
		t.Fatal(err)
	}
	if g.Stats().InFlight != 1 {
		t.Fatalf("InFlight = %d with one holder, want 1", g.Stats().InFlight)
	}
	g.leave("t")
}

// TestTenantGateClamps: NewTenantGate(0, -1) clamps to one slot and no
// queue, so the first caller is admitted and a second, of any class,
// fails fast instead of waiting.
func TestTenantGateClamps(t *testing.T) {
	g := NewTenantGate(0, -1)
	if err := g.admit(context.Background(), "t", ClassBatch, 0); err != nil {
		t.Fatalf("clamped gate refused first caller: %v", err)
	}
	if err := g.admit(context.Background(), "t", ClassPremium, 0); !errors.Is(err, core.ErrOverloaded) {
		t.Fatalf("want immediate overload with zero queue, got %v", err)
	}
	if st := g.Stats(); st.Queued != 0 || st.ShedFull[ClassPremium] != 1 {
		t.Fatalf("stats = %+v, want nothing queued and one premium shed-full", st)
	}
	g.leave("t")
}

// TestTenantGateInFlightCoherentUnderRace: the in-flight count stays
// coherent under concurrent admit/leave/read — never above the
// configured ceiling, never negative, and exactly zero once everything
// has drained. Run with -race.
func TestTenantGateInFlightCoherentUnderRace(t *testing.T) {
	const maxInFlight = 4
	g := NewTenantGate(maxInFlight, 64)
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
			if n := g.Stats().InFlight; n < 0 || n > maxInFlight {
				t.Errorf("InFlight = %d, want 0..%d", n, maxInFlight)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			class := QoSClass(i % NumQoSClasses)
			for j := 0; j < 200; j++ {
				if err := g.admit(context.Background(), "t", class, 0); err != nil {
					if !errors.Is(err, core.ErrOverloaded) {
						t.Errorf("rejection is %v, want ErrOverloaded", err)
						return
					}
					continue
				}
				g.leave("t")
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if st := g.Stats(); st.InFlight != 0 || st.Queued != 0 || st.Tenants != 0 {
		t.Fatalf("drained gate: %+v, want nothing in flight, queued or outstanding", st)
	}
}
