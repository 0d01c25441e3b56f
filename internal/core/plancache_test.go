package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"ndirect/internal/conv"
	"ndirect/internal/tensor"
)

// packedBattery mirrors cmd/ndverify's reduced battery: every Table 4
// geometry (structure preserved, spatial/channel dims capped) plus the
// adversarial edge shapes.
func packedBattery() []conv.Shape {
	var out []conv.Shape
	for _, l := range conv.Table4 {
		s := l.Shape
		if s.H > 28 {
			s.H, s.W = 28, 28
		}
		if s.C > 64 {
			s.C = 64
		}
		if s.K > 64 {
			s.K = 64
		}
		out = append(out, s)
	}
	return append(out,
		conv.Shape{N: 2, C: 5, H: 7, W: 9, K: 13, R: 3, S: 3, Str: 1, Pad: 1},
		conv.Shape{N: 1, C: 4, H: 10, W: 12, K: 6, R: 3, S: 5, Str: 1, Pad: 2},
		conv.Shape{N: 1, C: 1, H: 1, W: 1, K: 1, R: 1, S: 1, Str: 1, Pad: 0},
		conv.Shape{N: 1, C: 3, H: 5, W: 5, K: 2, R: 5, S: 5, Str: 1, Pad: 2},
		conv.Shape{N: 1, C: 2, H: 4, W: 4, K: 2, R: 3, S: 3, Str: 1, Pad: 3},
	)
}

// TestExecutePackedMatchesSeedBitForBit proves the tentpole's central
// claim: a cached plan consuming TransformFilter's pre-transformed
// weights produces output bit-identical to the seed path (fresh plan,
// on-the-fly transform) across the ndverify shape battery.
func TestExecutePackedMatchesSeedBitForBit(t *testing.T) {
	cache := NewPlanCache(0)
	for _, s := range packedBattery() {
		in := s.NewInput()
		in.FillRandom(int64(s.C*1000 + s.K))
		f := s.NewFilter()
		f.FillRandom(int64(s.R*100 + s.S))

		want := Conv2D(s, in, f, Options{}) // seed path: fresh plan, on-the-fly transform

		plan, err := cache.Get(s, Options{})
		if err != nil {
			t.Fatalf("%v: cache.Get: %v", s, err)
		}
		pf, err := plan.TransformFilter(f)
		if err != nil {
			t.Fatalf("%v: TransformFilter: %v", s, err)
		}
		got := s.NewOutput()
		if err := plan.TryExecutePacked(in, pf, got); err != nil {
			t.Fatalf("%v: TryExecutePacked: %v", s, err)
		}
		if d := tensor.MaxAbsDiff(want, got); d != 0 {
			t.Fatalf("%v: packed path differs from seed path by %g (want bit-identical)", s, d)
		}
		// Second execution through the same cached plan and packed
		// filter must be deterministic.
		got2 := s.NewOutput()
		if err := plan.TryExecutePacked(in, pf, got2); err != nil {
			t.Fatalf("%v: second TryExecutePacked: %v", s, err)
		}
		if d := tensor.MaxAbsDiff(got, got2); d != 0 {
			t.Fatalf("%v: repeated packed execution differs by %g", s, d)
		}
	}
	st := cache.Stats()
	if st.Misses == 0 || st.Len == 0 {
		t.Fatalf("cache never populated: %+v", st)
	}
}

func TestExecutePackedNHWCMatchesSeed(t *testing.T) {
	s := conv.Shape{N: 2, C: 5, H: 9, W: 7, K: 13, R: 3, S: 3, Str: 1, Pad: 1}
	inN := s.NewInput()
	inN.FillRandom(7)
	f := s.NewFilter()
	f.FillRandom(8)
	inNHWC := tensor.NCHWToNHWC(inN)

	want, err := TryConv2DNHWC(s, inNHWC, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlan(s, Options{})
	pf, err := p.TransformFilter(f)
	if err != nil {
		t.Fatal(err)
	}
	got := tensor.New(s.N, s.P(), s.Q(), s.K)
	if err := p.exec(context.Background(), execReq{in: inNHWC, pf: pf, packed: true, out: got, nhwc: true}); err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(want, got); d != 0 {
		t.Fatalf("NHWC packed path differs from seed by %g", d)
	}
}

// TestExecutePackedEpilogue checks the packed path composes with the
// fused bias+ReLU epilogue (the nn engine's fused configuration).
func TestExecutePackedEpilogue(t *testing.T) {
	s := conv.Shape{N: 1, C: 8, H: 12, W: 12, K: 13, R: 3, S: 3, Str: 1, Pad: 1}
	in := s.NewInput()
	in.FillRandom(3)
	f := s.NewFilter()
	f.FillRandom(4)
	bias := make([]float32, s.K)
	for i := range bias {
		bias[i] = float32(i)*0.25 - 1
	}
	opt := Options{FusedEpilogue: &EpilogueParams{Bias: bias, ReLU: true}}

	want := Conv2D(s, in, f, opt)
	p := NewPlan(s, opt)
	pf, err := p.TransformFilter(f)
	if err != nil {
		t.Fatal(err)
	}
	got := s.NewOutput()
	if err := p.TryExecutePacked(in, pf, got); err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(want, got); d != 0 {
		t.Fatalf("packed epilogue path differs from seed by %g", d)
	}
}

func TestTransformFilterRejectsMismatch(t *testing.T) {
	s := conv.Shape{N: 1, C: 8, H: 12, W: 12, K: 16, R: 3, S: 3, Str: 1, Pad: 1}
	p := NewPlan(s, Options{})
	bad := tensor.New(s.K, s.C, s.R, s.S+1)
	if _, err := p.TransformFilter(bad); err == nil {
		t.Fatal("TransformFilter accepted a filter of the wrong geometry")
	}

	// A packed filter from a different geometry must be rejected by the
	// execute path with ErrBadOptions.
	s2 := s
	s2.K = 24
	p2 := NewPlan(s2, Options{})
	pf2, err := p2.TransformFilter(s2.NewFilter())
	if err != nil {
		t.Fatal(err)
	}
	if pf2.CompatibleWith(p) {
		t.Fatal("CompatibleWith accepted mismatched K")
	}
	out := s.NewOutput()
	err = p.TryExecutePacked(s.NewInput(), pf2, out)
	if !errors.Is(err, ErrBadOptions) {
		t.Fatalf("want ErrBadOptions for mismatched packed filter, got %v", err)
	}
}

// TestPackedFilterBatchIndependent: one packed filter serves the same
// layer at every batch size (the serving case: weights packed once,
// requests arrive with varying N).
func TestPackedFilterBatchIndependent(t *testing.T) {
	s1 := conv.Shape{N: 1, C: 8, H: 12, W: 12, K: 16, R: 3, S: 3, Str: 1, Pad: 1}
	f := s1.NewFilter()
	f.FillRandom(5)
	p1 := NewPlan(s1, Options{})
	pf, err := p1.TransformFilter(f)
	if err != nil {
		t.Fatal(err)
	}
	s4 := s1.WithBatch(4)
	p4 := NewPlan(s4, Options{})
	if !pf.CompatibleWith(p4) {
		t.Skip("register tile changed with batch; packed reuse not applicable")
	}
	in := s4.NewInput()
	in.FillRandom(6)
	want := Conv2D(s4, in, f, Options{})
	got := s4.NewOutput()
	if err := p4.TryExecutePacked(in, pf, got); err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(want, got); d != 0 {
		t.Fatalf("batch-4 packed path differs from seed by %g", d)
	}
}

func TestPlanCacheHitMissEvict(t *testing.T) {
	c := NewPlanCache(2)
	s1 := conv.Shape{N: 1, C: 8, H: 12, W: 12, K: 16, R: 3, S: 3, Str: 1, Pad: 1}
	s2 := s1
	s2.K = 24

	p1a, err := c.Get(s1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p1b, err := c.Get(s1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p1a != p1b {
		t.Fatal("second Get of the same key returned a different plan")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("want 1 hit / 1 miss, got %+v", st)
	}

	// Different options are different keys.
	pOpt, err := c.Get(s1, Options{SequentialPack: true})
	if err != nil {
		t.Fatal(err)
	}
	if pOpt == p1a {
		t.Fatal("distinct Options mapped to the same cached plan")
	}
	if c.Len() != 2 {
		t.Fatalf("want 2 entries, got %d", c.Len())
	}

	// Third distinct key evicts the LRU entry (s1+SequentialPack was
	// most recent, so plain s1... actually p1 was used before pOpt;
	// inserting s2 evicts plain s1).
	if _, err := c.Get(s2, Options{}); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("capacity 2 exceeded: %d", c.Len())
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("want 1 eviction, got %+v", st)
	}
	// s1 was evicted: fetching it again is a miss.
	before := c.Stats().Misses
	if _, err := c.Get(s1, Options{}); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Misses != before+1 {
		t.Fatal("evicted key was still served from cache")
	}
}

func TestPlanCacheKeyDistinguishesBias(t *testing.T) {
	c := NewPlanCache(0)
	s := conv.Shape{N: 1, C: 8, H: 12, W: 12, K: 8, R: 3, S: 3, Str: 1, Pad: 1}
	b1 := make([]float32, s.K)
	b2 := make([]float32, s.K)
	b2[3] = 1
	p1, err := c.Get(s, Options{FusedEpilogue: &EpilogueParams{Bias: b1}})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Get(s, Options{FusedEpilogue: &EpilogueParams{Bias: b2}})
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("plans with different bias vectors shared a cache entry")
	}
}

// TestPlanCacheKeyDistinguishesEpilogue: option sets differing only in
// their epilogue configuration — fused vs none, fused params differing
// in one vector element, the ReLU flag or the residual step — must never
// share a cached plan: the epilogue is baked into the plan's store
// path, so a collision would silently apply the wrong activation.
func TestPlanCacheKeyDistinguishesEpilogue(t *testing.T) {
	c := NewPlanCache(0)
	s := conv.Shape{N: 1, C: 8, H: 12, W: 12, K: 8, R: 3, S: 3, Str: 1, Pad: 1}
	scale1 := make([]float32, s.K)
	scale2 := make([]float32, s.K)
	for i := range scale1 {
		scale1[i], scale2[i] = 1, 1
	}
	scale2[5] = 2
	shift := make([]float32, s.K)
	opts := []Options{
		{},
		{FusedEpilogue: &EpilogueParams{ReLU: true}},
		{FusedEpilogue: &EpilogueParams{Scale: scale1, Shift: shift}},
		{FusedEpilogue: &EpilogueParams{Scale: scale2, Shift: shift}},
		{FusedEpilogue: &EpilogueParams{Scale: scale1, Shift: shift, ReLU: true}},
		{FusedEpilogue: &EpilogueParams{}}, // all-nil params ≠ no FusedEpilogue
		{FusedEpilogue: &EpilogueParams{Residual: true}},
		{FusedEpilogue: &EpilogueParams{Scale: scale1, Shift: shift, Residual: true, ReLU: true}}, // a block's tail vs its plain twin above
	}
	plans := map[*Plan]int{}
	for i, opt := range opts {
		p, err := c.Get(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		if j, dup := plans[p]; dup {
			t.Fatalf("option sets %d and %d (differing only in epilogue) shared a cached plan", j, i)
		}
		plans[p] = i
	}
	if c.Len() != len(opts) {
		t.Fatalf("cache holds %d plans for %d distinct epilogue configurations", c.Len(), len(opts))
	}
}

func TestPlanCacheErrorNotCached(t *testing.T) {
	c := NewPlanCache(0)
	bad := conv.Shape{N: 1, C: 0, H: 8, W: 8, K: 8, R: 3, S: 3, Str: 1, Pad: 1}
	if _, err := c.Get(bad, Options{}); err == nil {
		t.Fatal("invalid shape did not error")
	}
	if c.Len() != 0 {
		t.Fatal("failed construction was cached")
	}
}

func TestPlanCacheConcurrent(t *testing.T) {
	c := NewPlanCache(8)
	shapes := packedBattery()[:6]
	var wg sync.WaitGroup
	plans := make([][]*Plan, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			plans[g] = make([]*Plan, len(shapes))
			for iter := 0; iter < 20; iter++ {
				for i, s := range shapes {
					p, err := c.Get(s, Options{})
					if err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
					plans[g][i] = p
				}
			}
		}(g)
	}
	wg.Wait()
	// After the warm-up race settles, every goroutine's final fetch
	// must be the same shared plan per shape.
	for g := 1; g < 8; g++ {
		for i := range shapes {
			if plans[g][i] != plans[0][i] {
				t.Fatalf("goroutine %d got a different plan for shape %d", g, i)
			}
		}
	}
	if c.Len() > 8 {
		t.Fatalf("cache exceeded capacity: %d", c.Len())
	}
}

// TestTryConv2DUsesPlanCache checks the one-shot entry points route
// through Options.PlanCache.
func TestTryConv2DUsesPlanCache(t *testing.T) {
	c := NewPlanCache(0)
	s := conv.Shape{N: 1, C: 8, H: 12, W: 12, K: 16, R: 3, S: 3, Str: 1, Pad: 1}
	in := s.NewInput()
	in.FillRandom(1)
	f := s.NewFilter()
	f.FillRandom(2)
	opt := Options{PlanCache: c}

	want := Conv2D(s, in, f, Options{})
	for i := 0; i < 3; i++ {
		got, err := TryConv2D(s, in, f, opt)
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxAbsDiff(want, got); d != 0 {
			t.Fatalf("cached-plan result differs from seed by %g", d)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("want 1 miss / 2 hits through TryConv2D, got %+v", st)
	}
}
