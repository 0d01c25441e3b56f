package nn

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ndirect/internal/core"
	"ndirect/internal/faultinject"
	"ndirect/internal/tensor"
)

// captureLogs redirects core.Logf to a slice of formatted lines for
// the duration of the test.
func captureLogs(t *testing.T) (get func() []string) {
	t.Helper()
	old := core.Logf
	var mu sync.Mutex
	var logs []string
	core.Logf = func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		mu.Lock()
		logs = append(logs, line)
		mu.Unlock()
		t.Logf("(captured) %s", line)
	}
	t.Cleanup(func() { core.Logf = old })
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), logs...)
	}
}

// TestLogLimitedKeyCapBounded: the rate-limiter's key map must stay
// bounded under many-key traffic (the multi-tenant shape explosion),
// and suppressed counts from evicted keys must fold into a later
// emission's trailer rather than vanish.
func TestLogLimitedKeyCapBounded(t *testing.T) {
	old := core.Logf
	var mu sync.Mutex
	var lines []string
	core.Logf = func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	t.Cleanup(func() { core.Logf = old })

	eng := &Engine{logKeyCap: 8}
	// First touch of each key emits; a second immediate touch is
	// suppressed (pending count 1 on that key).
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		eng.logLimited(key, "line %d", i)
		eng.logLimited(key, "line %d", i)
	}
	eng.logMu.Lock()
	size, lruLen := len(eng.logSeen), eng.logLRU.Len()
	pending := eng.logCarry
	for el := eng.logLRU.Front(); el != nil; el = el.Next() {
		pending += el.Value.(*logEntry).suppressed
	}
	eng.logMu.Unlock()
	if size > 8 || lruLen > 8 {
		t.Fatalf("key map grew past the cap: map=%d lru=%d (cap 8)", size, lruLen)
	}
	if size != lruLen {
		t.Fatalf("map (%d) and LRU (%d) out of sync", size, lruLen)
	}
	// Lossless accounting: 100 suppressed touches must all be either
	// already folded into an emitted trailer (an eviction's carry is
	// drained by the very insertion that caused it, which emits the new
	// key's first line) or still pending on a live entry / the carry.
	emitted := 0
	mu.Lock()
	for _, l := range lines {
		var n int
		if i := strings.Index(l, " similar lines suppressed]"); i >= 0 {
			if _, err := fmt.Sscanf(l[strings.LastIndex(l[:i], "[")+1:], "%d", &n); err != nil {
				t.Fatalf("unparseable trailer in %q", l)
			}
		}
		emitted += n
	}
	mu.Unlock()
	if emitted+pending != 100 {
		t.Fatalf("suppression counts leaked: %d emitted + %d pending != 100", emitted, pending)
	}
	if emitted == 0 {
		t.Fatal("no evicted suppression ever surfaced in a trailer")
	}

	// An engine's own zero cap is the default bound.
	zero := &Engine{}
	for i := 0; i < DefaultLogKeyCap+10; i++ {
		zero.logLimited(fmt.Sprintf("key-%d", i), "line %d", i)
	}
	zero.logMu.Lock()
	n := len(zero.logSeen)
	zero.logMu.Unlock()
	if n != DefaultLogKeyCap {
		t.Fatalf("a zero-valued engine kept %d keys, want DefaultLogKeyCap (%d)", n, DefaultLogKeyCap)
	}
}

// TestLogLimitedRecencyRetainsActiveKey: touching a key (even when
// suppressed) refreshes its recency, so a hot key under steady
// suppression is not the one evicted when cold keys churn past it.
func TestLogLimitedRecencyRetainsActiveKey(t *testing.T) {
	old := core.Logf
	core.Logf = func(string, ...any) {}
	t.Cleanup(func() { core.Logf = old })

	eng := &Engine{logKeyCap: 4}
	eng.logLimited("hot", "hot")
	for i := 0; i < 20; i++ {
		eng.logLimited("hot", "hot") // suppressed touch refreshes recency
		eng.logLimited(fmt.Sprintf("cold-%d", i), "cold")
	}
	eng.logMu.Lock()
	_, ok := eng.logSeen["hot"]
	eng.logMu.Unlock()
	if !ok {
		t.Fatal("hot key evicted despite constant touches")
	}
}

// TestFallbackLogRateLimited: repeated fallbacks on one (backend,
// shape) emit one line per interval, and the next emission carries the
// suppressed count.
func TestFallbackLogRateLimited(t *testing.T) {
	defer faultinject.Reset()
	getLogs := captureLogs(t)

	b := builderForTest()
	net := &Network{Name: "tiny", Layers: []Layer{
		b.convUnit("c1", 3, 8, 16, 3, 1, 1, true, true),
		GlobalAvgPool{},
	}}
	x := tensor.New(1, 3, 16, 16)
	x.FillRandom(7)

	const interval = 300 * time.Millisecond
	eng := &Engine{Algo: AlgoAnsor, Threads: 2, logInterval: interval}
	faultinject.ArmN(faultinject.ScheduleCorrupt, -1, -1)

	countFallbacks := func() int {
		n := 0
		for _, l := range getLogs() {
			if strings.Contains(l, "falling back to ndirect") {
				n++
			}
		}
		return n
	}

	const calls = 4
	for i := 0; i < calls; i++ {
		if _, err := net.TryForward(eng, x); err != nil {
			t.Fatalf("forward %d: %v", i, err)
		}
	}
	if got := countFallbacks(); got != 1 {
		t.Fatalf("%d fallback lines within one interval, want exactly 1", got)
	}

	// The interval rolls over: the next failure logs again, carrying
	// the count of the lines dropped above.
	time.Sleep(interval + 20*time.Millisecond)
	if _, err := net.TryForward(eng, x); err != nil {
		t.Fatal(err)
	}
	if got := countFallbacks(); got != 2 {
		t.Fatalf("%d fallback lines after the interval, want 2", got)
	}
	logs := getLogs()
	last := logs[len(logs)-1]
	if !strings.Contains(last, fmt.Sprintf("%d similar lines suppressed", calls-1)) {
		t.Fatalf("summary line %q lacks the suppressed count (%d)", last, calls-1)
	}
}
