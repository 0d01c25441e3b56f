package core

import (
	"context"
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

// fillProbe fills data with small integers in [-3, 3] from a
// deterministic stream: integer-valued float32 operands keep every
// partial sum exact, so the optimised float32 paths and a float64 oracle
// (conv.Reference) produce identical bits and a test can demand ==.
func fillProbe(data []float32, seed uint64) {
	x := seed*2654435761 + 12345
	for i := range data {
		x = x*6364136223846793005 + 1442695040888963407
		data[i] = float32(int64(x>>33)%7 - 3)
	}
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

	const fam = "12x8.vec"
	faultinject.Arm(faultinject.KernelMiscompute, -1)
	if err := VerifyKernelFamily(fam); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("miscompute probe = %v, want ErrIntegrity", err)
	}
	faultinject.Reset()

	// Count the family body's invocations from live plans. (The probe
	// bound its own copy of the body above, so it is not counted.)
	meter := meterFamily(t, fam)

	s := integrityShape() // 3x3 stride-1, on the family under test
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

// The sentinel's probe of a standard family reaches every multi-block
// body it binds: a paired or four-block body that silently miscomputes
// its last block — finite, small, wrong, with the other bodies and the
// store intact — fails the probe typed, so the sentinel quarantines the
// family.
func TestSentinelProbesMultiBlockBodies(t *testing.T) {
	if !hasPairBody {
		t.Skip("no AVX-512F on this host: no multi-block body to probe")
	}
	f := standardFamily
	for _, body := range []struct {
		name   string
		slot   *func(acc *accTile, buf, tf []float32, tfOff, rows, s, str, vwEff, pitch int)
		blocks int
	}{{"paired", &f.body.pair, 2}, {"four-block", &f.body.quad, 4}} {
		real := *body.slot
		*body.slot = func(acc *accTile, buf, tf []float32, tfOff, rows, s, str, vwEff, pitch int) {
			real(acc, buf, tf, tfOff, rows, s, str, vwEff, pitch)
			acc[body.blocks-1][0][0]++
		}
		reprobe(f)
		err := VerifyKernelFamily(f.name)
		*body.slot = real
		reprobe(f)
		if !errors.Is(err, ErrIntegrity) {
			t.Fatalf("probe over a miscomputing %s body = %v, want ErrIntegrity", body.name, err)
		}
		if err := VerifyKernelFamily(f.name); err != nil {
			t.Fatalf("probe after restoring the %s body: %v", body.name, err)
		}
	}
}

// mulAddKernel12x8 is kernel12x8 rounding twice per tap — the product,
// then the sum — the body a VMULPS→VADDPS accumulation computes.
func mulAddKernel12x8(acc *accFile8, buf, tf []float32, rows, s, str, vwEff, pitch int) {
	for row := 0; row < rows; row++ {
		for ss := 0; ss < s; ss++ {
			f := tf[(row*s+ss)*8:]
			for j := 0; j < vwEff; j++ {
				x := buf[row*pitch+ss+j*str]
				for l := 0; l < 8; l++ {
					a := &acc[2*j+l/4][l%4]
					*a = float32(f[l]*x) + *a
				}
			}
		}
	}
}

// mulAddPixel is pixelTile rounding twice per tap.
func mulAddPixel(dst, res, in, tf []float32, ep *epilogue, kBase, kEnd, rows, pitch, stride, npx int, accumulate bool) {
	for x := 0; x < npx; x += maxVw {
		vw := min(maxVw, npx-x)
		var acc accFile8
		mulAddKernel12x8(&acc, in[x:], tf, rows, 1, 1, vw, pitch)
		var resT []float32
		if res != nil {
			resT = res[x:]
		}
		storeTile(&acc, dst[x:], resT, ep, kBase, kEnd, stride, vw, true, accumulate)
	}
}

// mulAddDepthwise is depthwisePlaneRange rounding twice per tap.
func mulAddDepthwise(s conv.Shape, in, filter, dst []float32, h0, h1 int) {
	q := s.Q()
	for oh := h0; oh < h1; oh++ {
		for ow := 0; ow < q; ow++ {
			var acc float32
			for r := 0; r < s.R; r++ {
				for ss := 0; ss < s.S; ss++ {
					ih, iw := oh*s.Str-s.Pad+r, ow*s.Str-s.Pad+ss
					if ih >= 0 && ih < s.H && iw >= 0 && iw < s.W {
						acc = float32(in[ih*s.W+iw]*filter[r*s.S+ss]) + acc
					}
				}
			}
			dst[(oh-h0)*q+ow] = acc
		}
	}
}

// A body that rounds twice per tap breaks the FMA contract, and every
// family's golden probe must see it: its full-mantissa operands make
// nearly every product round, so the two-rounding chain stores other
// bits than the oracle's fma32 chain. (Integer operands, exact at every
// step, cannot tell the two apart.)
func TestDoubleRoundingBodyFailsProbe(t *testing.T) {
	for _, f := range kernelFamilies {
		body, dwKern := f.body, f.dwKern
		switch {
		case f.depthwise:
			f.dwKern = mulAddDepthwise
		case f.pointwise:
			f.body = bodies{px: mulAddPixel}
		default:
			f.body = bodies{kern: mulAddKernel12x8, vst: body.vst}
		}
		reprobe(f)
		err := VerifyKernelFamily(f.name)
		f.body, f.dwKern = body, dwKern
		reprobe(f)
		if !errors.Is(err, ErrIntegrity) {
			t.Fatalf("probe over a two-rounding %s body = %v, want ErrIntegrity", f.name, err)
		}
		if err := VerifyKernelFamily(f.name); err != nil {
			t.Fatalf("probe after restoring the %s body: %v", f.name, err)
		}
	}
}

// reprobe drops the family's cached probe, which holds a copy of its
// bodies, so the next probe is built around whatever is bound now.
func reprobe(f *kernelFamily) {
	probeMu.Lock()
	f.probe = nil
	probeMu.Unlock()
}

// A wrong four-block body bound to a family — its third block's filter
// read from the fourth's slot — fails the probe with ErrIntegrity, and
// once the sentinel's quarantine lands, a plan with seven K-blocks runs
// none of the family's bodies (single, paired or four-block) and stores
// the oracle's bits.
func TestWrongFourBlockBodyQuarantined(t *testing.T) {
	if !hasPairBody {
		t.Skip("no AVX-512F on this host: no four-block body to bind")
	}
	f := standardFamily
	name := f.name
	real := f.body.quad
	f.body.quad = func(acc *accTile, buf, tf []float32, tfOff, rows, s, str, vwEff, pitch int) {
		real(acc, buf, tf, tfOff, rows, s, str, vwEff, pitch)
		acc[2] = accFile8{}
		vector12x8(&acc[2], buf, tf[3*tfOff:], rows, s, str, vwEff, pitch)
	}
	reprobe(f)
	t.Cleanup(func() {
		f.body.quad = real
		reprobe(f)
		RestoreKernelFamily(name)
	})
	err := VerifyKernelFamily(name)
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("probe over a wrong four-block body = %v, want ErrIntegrity", err)
	}
	QuarantineKernelFamily(name)

	s := conv.Shape{N: 1, C: 6, H: 9, W: 14, K: 56, R: 3, S: 3, Str: 1, Pad: 1}
	in, filter := intOperands(s)
	want := conv.Reference(s, in, filter)
	p := NewPlan(s, Options{Threads: 1})
	m := meterFamily(t, name)
	out := s.NewOutput()
	if err := p.TryExecute(in, filter, out); err != nil {
		t.Fatal(err)
	}
	if *m != (bodyMeter{}) {
		t.Fatalf("quarantined family ran its bodies: %+v", *m)
	}
	if d := tensor.MaxAbsDiff(out, want); d != 0 {
		t.Fatalf("quarantined plan differs from the oracle by %g", d)
	}
}

// A pointwise body with one wrong register — output channel 5 of every
// K-block accumulating channel 4's broadcast weight — fails the 1x1.px
// golden probe with ErrIntegrity. Once that family is quarantined, the
// 1×1 plans and the separable plan that bound it run the live 12x8.vec
// family — a plan with a residual epilogue over two channel tiles, and
// the fused pointwise stage — and store every bit the correct pointwise
// body stored before the break.
func TestWrongPixelBodyQuarantined(t *testing.T) {
	if !hasPairBody {
		t.Skip("no AVX-512F on this host: no pointwise body to bind")
	}
	s := conv.Shape{N: 2, C: 13, H: 10, W: 11, K: 29, R: 1, S: 1, Str: 1}
	// One thread each: the standard family is metered below.
	p, in, filter, res, _ := residualCase(t, s, Options{Threads: 1, ForceTc: 6}, false)
	ss := SeparableShape{N: 1, C: 16, H: 15, W: 15, K: 21, R: 3, S: 3, Str: 1, Pad: 1}
	sp, err := TryNewSeparablePlan(ss, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	sepIn, dwf, pwf := tensor.New(ss.N, ss.C, ss.H, ss.W), tensor.New(ss.C, ss.R, ss.S), tensor.New(ss.K, ss.C, 1, 1)
	sepIn.FillRandom(21)
	dwf.FillRandom(22)
	pwf.FillRandom(23)
	// run executes both plans, reporting what they ran.
	run := func() (out, sepOut *tensor.Tensor, kernel, sepKernel string) {
		t.Helper()
		out, sepOut = s.NewOutput(), tensor.New(ss.N, ss.K, ss.P(), ss.Q())
		if err := p.TryExecuteResidualCtx(context.Background(), in, filter, nil, res, out); err != nil {
			t.Fatal(err)
		}
		if err := sp.TryExecute(sepIn, dwf, pwf, sepOut); err != nil {
			t.Fatal(err)
		}
		_, sepKernel = sp.KernelNames()
		return out, sepOut, p.KernelName(), sepKernel
	}
	want, sepWant, kernel, sepKernel := run()
	if kernel != pixelFamily.name || sepKernel != pixelFamily.name {
		t.Fatalf("plans ran %s and %s, want %s", kernel, sepKernel, pixelFamily.name)
	}

	f := pixelFamily
	real := f.body.px
	f.body.px = func(dst, res, in, tf []float32, ep *epilogue, kBase, kEnd, rows, pitch, stride, npx int, accumulate bool) {
		wrong := append([]float32(nil), tf[:rows*8]...)
		for i := 0; i < rows; i++ {
			wrong[i*8+5] = wrong[i*8+4]
		}
		real(dst, res, in, wrong, ep, kBase, kEnd, rows, pitch, stride, npx, accumulate)
	}
	reprobe(f)
	t.Cleanup(func() {
		f.body.px = real
		reprobe(f)
		RestoreKernelFamily(f.name)
	})
	if err := VerifyKernelFamily(f.name); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("probe over a pointwise body with a wrong register = %v, want ErrIntegrity", err)
	}
	QuarantineKernelFamily(f.name)

	m := meterFamily(t, standardFamily.name)
	got, sepGot, kernel, sepKernel := run()
	if kernel != standardFamily.name || sepKernel != standardFamily.name {
		t.Fatalf("with %s quarantined the plans ran %s and %s, want %s", f.name, kernel, sepKernel, standardFamily.name)
	}
	if m.calls == 0 {
		t.Fatalf("with %s quarantined the standard family's body never ran", f.name)
	}
	for _, c := range []struct {
		name      string
		got, want *tensor.Tensor
	}{{"Plan", got, want}, {"SeparablePlan", sepGot, sepWant}} {
		for i := range c.got.Data {
			if math.Float32bits(c.got.Data[i]) != math.Float32bits(c.want.Data[i]) {
				t.Fatalf("%s: element %d = %x on %s, the pointwise body stored %x",
					c.name, i, math.Float32bits(c.got.Data[i]), standardFamily.name, math.Float32bits(c.want.Data[i]))
			}
		}
	}
}

// bodyMeter is a counting double for one family's bodies and tile
// store: body calls and the (cv, r) rows they covered, per K-block — a
// multi-block call counts as one call per block it runs — the paired
// and four-block calls among them, and vector-store calls (a pointwise
// body call stores its tile, so it counts as one of each).
type bodyMeter struct{ calls, rows, pairs, quads, stores int }

// meterFamily swaps the named family's bodies (single, paired,
// four-block and pointwise) and vector store (each where the family has
// one) for doubles that count into the returned meter and then run the
// real routine — the looped kernel12x8 on a host without the vector
// body; the swap is undone when the test ends. Metered plans must run
// single-threaded.
func meterFamily(t *testing.T, name string) *bodyMeter {
	t.Helper()
	f := familyByName(name)
	real, m := f.body, &bodyMeter{}
	if real.kern != nil {
		f.body.kern = func(acc *accFile8, buf, tf []float32, rows, s, str, vwEff, pitch int) {
			m.calls++
			m.rows += rows
			real.kern(acc, buf, tf, rows, s, str, vwEff, pitch)
		}
	}
	if real.pair != nil {
		f.body.pair = func(acc *accTile, buf, tf []float32, tfOff, rows, s, str, vwEff, pitch int) {
			m.calls += 2
			m.rows += 2 * rows
			m.pairs++
			real.pair(acc, buf, tf, tfOff, rows, s, str, vwEff, pitch)
		}
	}
	if real.quad != nil {
		f.body.quad = func(acc *accTile, buf, tf []float32, tfOff, rows, s, str, vwEff, pitch int) {
			m.calls += 4
			m.rows += 4 * rows
			m.quads++
			real.quad(acc, buf, tf, tfOff, rows, s, str, vwEff, pitch)
		}
	}
	if real.vst != nil {
		f.body.vst = func(acc *accFile8, dst, res []float32, ep *epilogue, kBase, stride, vwEff int, nchw, accumulate bool) {
			m.stores++
			real.vst(acc, dst, res, ep, kBase, stride, vwEff, nchw, accumulate)
		}
	}
	if real.px != nil {
		f.body.px = func(dst, res, in, tf []float32, ep *epilogue, kBase, kEnd, rows, pitch, stride, npx int, accumulate bool) {
			m.calls++
			m.rows += rows
			m.stores++
			real.px(dst, res, in, tf, ep, kBase, kEnd, rows, pitch, stride, npx, accumulate)
		}
	}
	t.Cleanup(func() { f.body = real })
	return m
}

// A quarantined body never runs on any plan, end to end: every consumer
// of the V_k=8 body — the k-block loop, the pack-fused first block
// (which used to run the looped kernel whatever the plan had bound) and
// the separable pointwise stage — runs the family body for every (tile,
// k-block) while the family is live and for none while it is
// quarantined, storing the same bits either way. The vector store rides
// with the body: one call per (tile, k-block) while live (K=16: both
// blocks are full), none quarantined. Where the host pairs K-blocks,
// both blocks of every tile run in one paired-body call, which the
// quarantine takes out of service with the single-block body. The two
// 1×1 stride-1 consumers run the pointwise family where the host binds
// it — one call, storing its tile, per (48-pixel tile, k-block) — and the
// standard family's 12×8 tiles with it quarantined. The shapes are
// unpadded, so no row is out of image and the body sees all C·R rows of
// every (tile, k-block).
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
		pixel  bool   // runs the pointwise body
	}
	var consumers []consumer

	for _, seq := range []bool{false, true} {
		p := NewPlan(s, Options{Threads: 1, SequentialPack: seq})
		c := consumer{name: "Plan", family: "12x8.vec", tiles: tiles(1, s.P(), s.Q()), rows: s.C * s.R}
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

	// pointwise adds a 1×1 stride-1 consumer — on its pointwise family
	// where the host binds one, and on the standard family's 12×8 tiles
	// with that family quarantined — whose planes run as one row of
	// pixels: tiles of w pixels over the given row tiles' pixel counts.
	pointwise := func(name string, pixels []int, rows int, run func()) {
		count := func(w int) int {
			n := 0
			for _, px := range pixels {
				n += (px + w - 1) / w
			}
			return n
		}
		if hasPairBody { // the host binds the pointwise family
			consumers = append(consumers, consumer{name: name, family: pixelFamily.name,
				tiles: count(pxTile), rows: rows, calls: 1, pixel: true, exec: run})
			name += "/12x8"
			run12 := run
			run = func() { withQuarantined(run12, pixelFamily.name) }
		}
		consumers = append(consumers, consumer{name: name, family: standardFamily.name,
			tiles: count(maxVw), rows: rows, calls: 1, exec: run})
	}

	// The in-place source: a 1×1 unpadded plan hands the body its tiles
	// where they lie, one whole-tile call per (tile, k-block).
	pw := conv.Shape{N: 1, C: 8, H: 12, W: 12, K: 16, R: 1, S: 1, Str: 1, Pad: 0}
	pwIn, pwFilter := intOperands(pw)
	pwWant := conv.Reference(pw, pwIn, pwFilter)
	pwPlan := NewPlan(pw, Options{Threads: 1})
	pointwise("Plan/InPlace", []int{pw.P() * pw.Q()}, pw.C, func() {
		out := pw.NewOutput()
		if err := pwPlan.TryExecute(pwIn, pwFilter, out); err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxAbsDiff(out, pwWant); d != 0 {
			t.Fatalf("Plan/InPlace on %s: output differs from reference by %g", pwPlan.KernelName(), d)
		}
	})

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
	var cellPixels []int // each grid cell's row tile is one row of pixels
	for h0 := 0; h0 < ss.P(); h0 += sp.rowTile {
		cellPixels = append(cellPixels, min(sp.rowTile, ss.P()-h0)*ss.Q())
	}
	pointwise("SeparablePlan", cellPixels, ss.C, func() {
		out := tensor.New(ss.N, ss.K, ss.P(), ss.Q())
		if err := sp.TryExecute(sepIn, dwf, pwf, out); err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxAbsDiff(out, sepWant); d != 0 {
			_, pw := sp.KernelNames()
			t.Fatalf("SeparablePlan on %s: output differs from reference by %g", pw, d)
		}
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
		if hasPairBody && !c.pixel && (c.calls != 0 && live.pairs != c.tiles || live.pairs == 0) {
			t.Fatalf("%s, family live: %d paired-body calls, want one per tile (%d)", c.name, live.pairs, c.tiles)
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
