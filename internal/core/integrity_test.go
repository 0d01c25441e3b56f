package core

import (
	"errors"
	"math"
	"sync"
	"testing"

	"ndirect/internal/conv"
	"ndirect/internal/faultinject"
	"ndirect/internal/tensor"
)

func integrityShape() conv.Shape {
	return conv.Shape{N: 1, C: 8, H: 12, W: 12, K: 16, R: 3, S: 3, Str: 1, Pad: 1}
}

// intOperands builds integer-valued operands so every path is
// bit-exact against the reference oracle.
func intOperands(s conv.Shape) (in, filter *tensor.Tensor) {
	in, filter = s.NewInput(), s.NewFilter()
	fillProbe(in.Data, 1)
	fillProbe(filter.Data, 2)
	return in, filter
}

// Packing must stamp a checksum that Verify accepts; corrupting the
// resident bytes must flip Verify to a typed ErrIntegrity; re-packing
// the same source must reproduce the identical checksum (the property
// the eviction/re-pack recovery path rests on).
func TestPackedFilterChecksumRoundTrip(t *testing.T) {
	s := integrityShape()
	_, filter := intOperands(s)
	p := NewPlan(s, Options{Threads: 1})
	pf, err := p.TransformFilter(filter)
	if err != nil {
		t.Fatal(err)
	}
	if err := pf.Verify(); err != nil {
		t.Fatalf("fresh pack must verify: %v", err)
	}
	pf2, err := p.TransformFilter(filter)
	if err != nil {
		t.Fatal(err)
	}
	if pf.Checksum() != pf2.Checksum() {
		t.Fatalf("re-pack checksum %#x != original %#x: the transform is supposed to be deterministic",
			pf2.Checksum(), pf.Checksum())
	}

	// Corrupt one resident element the way a DRAM bit flip would.
	pf.data[3] = math.Float32frombits(math.Float32bits(pf.data[3]) ^ 0x00400000)
	if err := pf.Verify(); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("Verify on corrupted bytes = %v, want ErrIntegrity", err)
	}
}

// An armed weight-bitflip must surface as a typed ErrIntegrity — never
// a silently wrong output, and never a silent reference-fallback
// recovery (the resident artifact must be re-packed by the owner). The
// shared PackedFilter itself must stay undamaged and keep serving
// bit-exact results afterwards.
func TestWeightBitflipCaughtByChecksum(t *testing.T) {
	defer faultinject.Reset()
	s := integrityShape()
	in, filter := intOperands(s)
	want := conv.Reference(s, in, filter)
	p := NewPlan(s, Options{Threads: 2})
	pf, err := p.TransformFilter(filter)
	if err != nil {
		t.Fatal(err)
	}
	out := s.NewOutput()

	pre := IntegritySnapshot()
	faultinject.Arm(faultinject.WeightBitflip, 7)
	err = p.TryExecutePacked(in, pf, out)
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("bitflipped packed run = %v, want ErrIntegrity", err)
	}
	post := IntegritySnapshot()
	if post.PackedVerifyFailures != pre.PackedVerifyFailures+1 {
		t.Fatalf("PackedVerifyFailures %d -> %d, want +1", pre.PackedVerifyFailures, post.PackedVerifyFailures)
	}

	// The corruption was run-private: the next run is clean and exact.
	if err := p.TryExecutePacked(in, pf, out); err != nil {
		t.Fatalf("clean run after the drill: %v", err)
	}
	if d := tensor.MaxAbsDiff(out, want); d != 0 {
		t.Fatalf("output differs from reference by %g after recovery, want bit-exact", d)
	}
}

// The sampled schedule must verify every run at interval 1, never at
// interval 0, and must not change results either way.
func TestSampledVerifySchedule(t *testing.T) {
	prev := SetPackedVerifyInterval(1)
	defer SetPackedVerifyInterval(prev)
	s := integrityShape()
	in, filter := intOperands(s)
	p := NewPlan(s, Options{Threads: 1})
	pf, err := p.TransformFilter(filter)
	if err != nil {
		t.Fatal(err)
	}
	out := s.NewOutput()

	pre := IntegritySnapshot()
	for i := 0; i < 3; i++ {
		if err := p.TryExecutePacked(in, pf, out); err != nil {
			t.Fatal(err)
		}
	}
	post := IntegritySnapshot()
	if post.PackedVerifies < pre.PackedVerifies+3 {
		t.Fatalf("interval 1: PackedVerifies %d -> %d over 3 runs, want +3", pre.PackedVerifies, post.PackedVerifies)
	}

	SetPackedVerifyInterval(0)
	pre = IntegritySnapshot()
	if err := p.TryExecutePacked(in, pf, out); err != nil {
		t.Fatal(err)
	}
	if post := IntegritySnapshot(); post.PackedVerifies != pre.PackedVerifies {
		t.Fatalf("interval 0 must disable sampling: PackedVerifies %d -> %d", pre.PackedVerifies, post.PackedVerifies)
	}
}

// An injected scratch overrun must fail the run typed with
// ErrIntegrity, count a canary trip, quarantine the run state (never
// re-pool it), and leave subsequent runs clean and bit-exact.
func TestScratchOverrunTripsCanary(t *testing.T) {
	defer faultinject.Reset()
	s := integrityShape()
	in, filter := intOperands(s)
	want := conv.Reference(s, in, filter)
	p := NewPlan(s, Options{Threads: 2})
	out := s.NewOutput()
	// Warm the run pool first so the drill proves a poisoned parked run
	// is quarantined rather than reused.
	if err := p.TryExecute(in, filter, out); err != nil {
		t.Fatal(err)
	}

	pre := IntegritySnapshot()
	faultinject.Arm(faultinject.ScratchOverrun, 0)
	err := p.TryExecute(in, filter, out)
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("overrun run = %v, want ErrIntegrity", err)
	}
	post := IntegritySnapshot()
	if post.ScratchCanaryTrips != pre.ScratchCanaryTrips+1 {
		t.Fatalf("ScratchCanaryTrips %d -> %d, want +1", pre.ScratchCanaryTrips, post.ScratchCanaryTrips)
	}

	if err := p.TryExecute(in, filter, out); err != nil {
		t.Fatalf("run after quarantine: %v", err)
	}
	if d := tensor.MaxAbsDiff(out, want); d != 0 {
		t.Fatalf("post-quarantine output differs by %g, want bit-exact", d)
	}
}

// Every built-in kernel family must pass its golden probe; an armed
// kernel-miscompute must flip the probe to ErrIntegrity; a quarantined
// family's body must never run — on a plan built before the quarantine,
// on one built during it, standalone or out of a plan cache, with no
// re-planning — while the output stays bit-exact; restoring must hand
// the same plans their body back.
func TestKernelFamilyQuarantineCycle(t *testing.T) {
	defer faultinject.Reset()
	for _, name := range KernelFamilyNames() {
		if err := VerifyKernelFamily(name); err != nil {
			t.Fatalf("family %s: clean probe failed: %v", name, err)
		}
	}
	if err := VerifyKernelFamily("no-such-family"); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("unknown family = %v, want ErrBadOptions", err)
	}

	const fam = "12x8.r3s3.s1"
	faultinject.Arm(faultinject.KernelMiscompute, -1)
	if err := VerifyKernelFamily(fam); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("miscompute probe = %v, want ErrIntegrity", err)
	}
	faultinject.Reset()

	// Count the family body's invocations from live plans. (The probe
	// bound its own copy of the body above, so it is not counted.)
	meter := meterFamily(t, fam)

	s := integrityShape() // 3x3 stride-1: the family under test
	in, filter := intOperands(s)
	want := conv.Reference(s, in, filter)
	cache := NewPlanCache(4)
	opt := Options{Threads: 1, SequentialPack: true} // every k-block goes through mainKernel
	before := NewPlan(s, opt)
	cached, err := cache.Get(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	// exec runs the plan bit-exact and reports whether the family body ran.
	exec := func(p *Plan) bool {
		t.Helper()
		*meter = bodyMeter{}
		out := s.NewOutput()
		if err := p.TryExecute(in, filter, out); err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxAbsDiff(out, want); d != 0 {
			t.Fatalf("kernel %s: output differs from reference by %g, want bit-exact", p.KernelName(), d)
		}
		return meter.calls > 0
	}
	if !exec(before) || !exec(cached) {
		t.Fatal("family body did not run before the quarantine")
	}

	preStats := KernelDispatchStats()
	if !QuarantineKernelFamily(fam) {
		t.Fatal("QuarantineKernelFamily must accept a known family")
	}
	defer RestoreKernelFamily(fam)
	if !KernelFamilyQuarantined(fam) {
		t.Fatal("family must report quarantined")
	}
	if q := KernelDispatchStats().Quarantined; q != preStats.Quarantined+1 {
		t.Fatalf("Quarantined %d -> %d, want +1", preStats.Quarantined, q)
	}
	during := NewPlan(s, opt)
	recached, err := cache.Get(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if recached != cached {
		t.Fatal("quarantine must not re-key the plan cache")
	}
	for _, p := range []*Plan{before, cached, during} {
		if name := p.KernelName(); name != "12x8" {
			t.Fatalf("quarantined family: KernelName = %q, want 12x8", name)
		}
		if exec(p) {
			t.Fatal("quarantined family body was executed")
		}
	}
	// The probe still drives the family's own body: the restore check.
	if err := VerifyKernelFamily(fam); err != nil {
		t.Fatalf("probe under quarantine: %v", err)
	}

	if !RestoreKernelFamily(fam) {
		t.Fatal("RestoreKernelFamily must accept a known family")
	}
	if q := KernelDispatchStats().Quarantined; q != preStats.Quarantined {
		t.Fatalf("restore must clear the quarantine count: %d, want %d", q, preStats.Quarantined)
	}
	for _, p := range []*Plan{before, cached, during} {
		if name := p.KernelName(); name != fam {
			t.Fatalf("restored family: KernelName = %q, want %s", name, fam)
		}
		if !exec(p) {
			t.Fatal("restored family body did not run")
		}
	}
	if st := cache.Stats(); st.Misses != 1 {
		t.Fatalf("plan cache missed %d times over the cycle, want 1 (the cold build)", st.Misses)
	}
}

// bodyMeter is a counting double for one family's body and tile store:
// body calls, the (cv, r) rows they covered, and vector-store calls.
type bodyMeter struct{ calls, rows, stores int }

// meterFamily swaps the named family's body (and vector store, where the
// host binds one) for doubles that count into the returned meter and
// then run the real routine — the looped kernel on a host that binds the
// family no body of its own; the swap is undone when the test ends.
// Metered plans must run single-threaded.
func meterFamily(t *testing.T, name string) *bodyMeter {
	t.Helper()
	f := familyByName(name)
	body, store, m := f.kern, f.store, &bodyMeter{}
	run := body
	if run == nil {
		run = func(acc *accFile8, buf, tf []float32, rows, vwEff, pitch int) {
			kernel12x8(acc, buf, tf, rows, f.s, f.str, vwEff, pitch)
		}
	}
	f.kern = func(acc *accFile8, buf, tf []float32, rows, vwEff, pitch int) {
		m.calls++
		m.rows += rows
		run(acc, buf, tf, rows, vwEff, pitch)
	}
	if store != nil {
		f.store = func(acc *accFile8, dst, res []float32, ep *epilogue, kBase, stride, vwEff int, nchw, accumulate bool) {
			m.stores++
			store(acc, dst, res, ep, kBase, stride, vwEff, nchw, accumulate)
		}
	}
	t.Cleanup(func() { f.kern, f.store = body, store })
	return m
}

// A quarantined body never runs on any plan, end to end: every consumer
// of the V_k=8 body — the k-block loop, the pack-fused first block
// (which used to run the looped kernel whatever the plan had bound) and
// the separable pointwise stage — runs the family body for every (tile,
// k-block) while the family is live and for none while it is
// quarantined, storing the same bits either way. The vector store rides
// with the body: one call per (tile, k-block) while live (K=16: both
// blocks are full), none quarantined. The shapes are unpadded, so no row
// is out of image and the body sees all C·R rows of every (tile,
// k-block).
func TestQuarantinedBodyNeverRunsOnAnyConsumer(t *testing.T) {
	s := conv.Shape{N: 1, C: 8, H: 12, W: 12, K: 16, R: 3, S: 3, Str: 1, Pad: 0}
	in, filter := intOperands(s)
	want := conv.Reference(s, in, filter)
	tiles := func(n, p, q int) int { return n * p * ((q + maxVw - 1) / maxVw) }
	const kvBlocks = 2 // K=16

	type consumer struct {
		name   string
		family string
		exec   func() // one bit-exact execution
		tiles  int    // register tiles per execution
		rows   int    // C·R
		calls  int    // body calls per (tile, k-block); 0 = not pinned
	}
	var consumers []consumer

	for _, seq := range []bool{false, true} {
		p := NewPlan(s, Options{Threads: 1, SequentialPack: seq})
		c := consumer{name: "Plan", family: "12x8.r3s3.s1", tiles: tiles(1, s.P(), s.Q()), rows: s.C * s.R}
		if seq {
			// Whole-tile calls; the fused first block instead runs a few
			// channels per call, so only its rows are pinned.
			c.name, c.calls = "Plan/SequentialPack", 1
		}
		c.exec = func() {
			out := s.NewOutput()
			if err := p.TryExecute(in, filter, out); err != nil {
				t.Fatal(err)
			}
			if d := tensor.MaxAbsDiff(out, want); d != 0 {
				t.Fatalf("%s on %s: output differs from reference by %g", c.name, p.KernelName(), d)
			}
		}
		consumers = append(consumers, c)
	}

	ss := SeparableShape{N: 1, C: 8, H: 12, W: 12, K: 16, R: 3, S: 3, Str: 1, Pad: 1}
	sp, err := TryNewSeparablePlan(ss, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	sepIn := tensor.New(ss.N, ss.C, ss.H, ss.W)
	dwf, pwf := tensor.New(ss.C, ss.R, ss.S), tensor.New(ss.K, ss.C, 1, 1)
	fillProbe(sepIn.Data, 3)
	fillProbe(dwf.Data, 4)
	fillProbe(pwf.Data, 5)
	mid, err := TryDepthwiseConv2D(ss.DWShape(), sepIn, dwf, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	sepWant := conv.Reference(ss.PWShape(), mid, pwf)
	consumers = append(consumers, consumer{
		name: "SeparablePlan", family: "12x8.r1s1.s1", tiles: tiles(1, ss.P(), ss.Q()), rows: ss.C, calls: 1,
		exec: func() {
			out := tensor.New(ss.N, ss.K, ss.P(), ss.Q())
			if err := sp.TryExecute(sepIn, dwf, pwf, out); err != nil {
				t.Fatal(err)
			}
			if d := tensor.MaxAbsDiff(out, sepWant); d != 0 {
				_, pw := sp.KernelNames()
				t.Fatalf("SeparablePlan on %s: output differs from reference by %g", pw, d)
			}
		},
	})

	for _, c := range consumers {
		m := meterFamily(t, c.family)
		run := func() bodyMeter {
			*m = bodyMeter{}
			c.exec()
			return *m
		}
		wantRows := c.tiles * kvBlocks * c.rows
		live := run()
		if live.rows != wantRows || (c.calls != 0 && live.calls != c.tiles*kvBlocks*c.calls) {
			t.Fatalf("%s, family live: body ran %d rows in %d calls, want %d rows over %d (tile, k-block) pairs",
				c.name, live.rows, live.calls, wantRows, c.tiles*kvBlocks)
		}
		if hasVectorBody && live.stores != c.tiles*kvBlocks {
			t.Fatalf("%s, family live: %d vector stores, want one per (tile, k-block) = %d", c.name, live.stores, c.tiles*kvBlocks)
		}
		QuarantineKernelFamily(c.family)
		quarantined := run()
		RestoreKernelFamily(c.family)
		if quarantined != (bodyMeter{}) {
			t.Fatalf("%s, family quarantined: body ran %d rows in %d calls with %d vector stores, want none",
				c.name, quarantined.rows, quarantined.calls, quarantined.stores)
		}
		if restored := run(); restored != live {
			t.Fatalf("%s, family restored: body ran %+v, want %+v", c.name, restored, live)
		}
	}
}

// Satellite: PackedFilter.Release and Verify racing concurrent
// TryExecutePacked calls must stay memory-safe under -race, with every
// execution either bit-exact or failing typed (ErrWeightsReleased once
// the release lands). Verify itself must keep returning nil — the
// buffer is immutable, released or not.
func TestPackedReleaseVerifyRace(t *testing.T) {
	s := integrityShape()
	in, filter := intOperands(s)
	want := conv.Reference(s, in, filter)
	p := NewPlan(s, Options{Threads: 2})
	pf, err := p.TransformFilter(filter)
	if err != nil {
		t.Fatal(err)
	}

	const execs = 4
	start := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, execs*8+1)
	for g := 0; g < execs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := s.NewOutput()
			<-start
			for i := 0; i < 8; i++ {
				err := p.TryExecutePacked(in, pf, out)
				switch {
				case err == nil:
					if d := tensor.MaxAbsDiff(out, want); d != 0 {
						errCh <- errors.New("racing execution produced a wrong output")
						return
					}
				case errors.Is(err, ErrWeightsReleased):
					// Typed staleness after the release landed: expected.
				default:
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 16; i++ {
			if err := pf.Verify(); err != nil {
				errCh <- err
				return
			}
		}
		pf.Release()
	}()
	close(start)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if err := pf.Verify(); err != nil {
		t.Fatalf("Verify after Release must still pass (buffer is immutable): %v", err)
	}
	if err := p.TryExecutePacked(in, pf, s.NewOutput()); !errors.Is(err, ErrWeightsReleased) {
		t.Fatalf("released filter = %v, want ErrWeightsReleased", err)
	}
}
