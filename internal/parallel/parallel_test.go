package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSplitExact(t *testing.T) {
	chunks := Split(10, 2)
	if len(chunks) != 2 || chunks[0] != (Range{0, 5}) || chunks[1] != (Range{5, 10}) {
		t.Fatalf("chunks = %v", chunks)
	}
}

func TestSplitRemainderGoesToFirstChunks(t *testing.T) {
	chunks := Split(10, 3)
	want := []Range{{0, 4}, {4, 7}, {7, 10}}
	for i := range want {
		if chunks[i] != want[i] {
			t.Fatalf("chunks = %v, want %v", chunks, want)
		}
	}
}

func TestSplitFewerItemsThanWorkers(t *testing.T) {
	chunks := Split(2, 8)
	if len(chunks) != 2 {
		t.Fatalf("expected 2 chunks, got %v", chunks)
	}
}

func TestSplitDegenerate(t *testing.T) {
	if Split(0, 4) != nil {
		t.Fatal("empty range must give no chunks")
	}
	chunks := Split(5, 0) // p clamps to 1
	if len(chunks) != 1 || chunks[0] != (Range{0, 5}) {
		t.Fatalf("chunks = %v", chunks)
	}
}

// Property: Split covers [0,n) exactly once, in order, with balanced
// sizes (max-min <= 1).
func TestSplitCoverageProperty(t *testing.T) {
	f := func(n, p uint8) bool {
		chunks := Split(int(n), int(p))
		pos := 0
		minLen, maxLen := 1<<30, 0
		for _, c := range chunks {
			if c.Lo != pos || c.Hi < c.Lo {
				return false
			}
			pos = c.Hi
			if c.Len() < minLen {
				minLen = c.Len()
			}
			if c.Len() > maxLen {
				maxLen = c.Len()
			}
		}
		if pos != int(n) {
			return false
		}
		return len(chunks) == 0 || maxLen-minLen <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestForVisitsEachIndexOnce(t *testing.T) {
	const n = 1000
	var counts [n]int32
	For(n, 7, func(i int) { atomic.AddInt32(&counts[i], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForSingleWorkerSequential(t *testing.T) {
	order := []int{}
	For(5, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("single worker must run in order, got %v", order)
		}
	}
}

func TestForRangeCoversAll(t *testing.T) {
	const n = 97
	var total int64
	var workers int32
	ForRange(n, 4, func(w int, r Range) {
		atomic.AddInt32(&workers, 1)
		atomic.AddInt64(&total, int64(r.Len()))
	})
	if total != n {
		t.Fatalf("covered %d of %d", total, n)
	}
	if workers != 4 {
		t.Fatalf("expected 4 workers, got %d", workers)
	}
}

func TestForRangeEmpty(t *testing.T) {
	called := false
	ForRange(0, 4, func(w int, r Range) { called = true })
	if called {
		t.Fatal("empty range must not invoke body")
	}
}

func TestFactorize(t *testing.T) {
	got := Factorize(12)
	want := [][2]int{{1, 12}, {2, 6}, {3, 4}, {4, 3}, {6, 2}, {12, 1}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// Property: every Factorize pair multiplies back to p.
func TestFactorizeProperty(t *testing.T) {
	f := func(p uint8) bool {
		if p == 0 {
			return true
		}
		for _, ab := range Factorize(int(p)) {
			if ab[0]*ab[1] != int(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultThreadsPositive(t *testing.T) {
	if DefaultThreads() < 1 {
		t.Fatal("DefaultThreads must be >= 1")
	}
}
