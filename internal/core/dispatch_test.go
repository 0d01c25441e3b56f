package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"ndirect/internal/conv"
	"ndirect/internal/tensor"
)

// dispatchCases are arbitrary standard shapes — in no model table,
// batch > 1, ragged everywhere (partial register tiles, ragged K blocks,
// partial channel tiles) — over the Table-4 filters and strides and
// beyond them (5×5, 7×7 at stride 1, non-square), so the standard
// family's bodies are exercised on their hardest geometry.
var dispatchCases = []conv.Shape{
	{N: 2, C: 5, H: 10, W: 10, K: 53, R: 3, S: 3, Str: 1, Pad: 1},
	{N: 3, C: 4, H: 11, W: 11, K: 9, R: 3, S: 3, Str: 2, Pad: 1},
	{N: 2, C: 6, H: 9, W: 9, K: 37, R: 1, S: 1, Str: 1, Pad: 0},
	{N: 2, C: 6, H: 10, W: 10, K: 10, R: 1, S: 1, Str: 2, Pad: 0},
	{N: 2, C: 3, H: 29, W: 29, K: 27, R: 7, S: 7, Str: 2, Pad: 3},
	{N: 2, C: 5, H: 13, W: 15, K: 45, R: 5, S: 5, Str: 1, Pad: 2},
	{N: 1, C: 3, H: 17, W: 19, K: 19, R: 7, S: 7, Str: 1, Pad: 3},
	{N: 2, C: 4, H: 12, W: 29, K: 33, R: 1, S: 7, Str: 1, Pad: 3},
}

// TestDispatchBitExactVsGeneric: a plan binds the standard family with
// no registration, and the family bodies, the same family without its
// four-block body, without its multi-block bodies, and the quarantined
// looped fallback store the same bits on the same operands — selection
// is a pure execution-strategy change. K spans seven, six, five and
// four K-blocks in five of the cases, so the four-block body runs beside
// the paired and single-block ones.
// Exercised on both packing strategies: SequentialPack runs every
// k-block over the whole packed buffer, the overlapped default runs the
// first one through the pack-fused path (which skips out-of-image rows).
func TestDispatchBitExactVsGeneric(t *testing.T) {
	fam := standardFamily
	for _, s := range dispatchCases {
		for _, seq := range []bool{false, true} {
			plan, err := TryNewPlan(s, Options{Threads: 2, SequentialPack: seq})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := plan.KernelName(), wantFamily(s); got != want {
				t.Fatalf("shape %v: KernelName = %q, want %q", s, got, want)
			}
			in := s.NewInput()
			in.FillRandom(int64(s.C + 7*s.K))
			f := s.NewFilter()
			f.FillRandom(int64(s.R + 13*s.S))
			got := s.NewOutput()
			if err := plan.TryExecute(in, f, got); err != nil {
				t.Fatal(err)
			}
			// The same plan, every family quarantined, runs the looped
			// fallback; a pointwise plan with only its pointwise family
			// quarantined runs the standard family.
			quarantines := [][]string{{fam.name, pixelFamily.name}}
			if plan.px != nil {
				quarantines = append(quarantines, []string{pixelFamily.name})
			}
			for _, names := range quarantines {
				withQuarantined(func() {
					want := "12x8"
					if len(names) == 1 {
						want = fam.name
					}
					if name := plan.KernelName(); name != want {
						t.Fatalf("shape %v: %v quarantined: KernelName = %q, want %q", s, names, name, want)
					}
					fb := s.NewOutput()
					if err := plan.TryExecute(in, f, fb); err != nil {
						t.Fatal(err)
					}
					if d := tensor.MaxAbsDiff(fb, got); d != 0 {
						t.Fatalf("shape %v seq=%v: %v quarantined differs from the family body by %g, want bit-identical",
							s, seq, names, d)
					}
				}, names...)
			}
			// With the four-block body unbound the plan steps K-blocks two
			// at a time, and with the paired body unbound too — the bodies
			// of an AVX2 host without AVX-512F — one block per call; both
			// store the same bits.
			if fam.body.pair != nil {
				pair, quad := fam.body.pair, fam.body.quad
				for _, unbind := range []string{"four-block", "four-block and paired"} {
					fam.body.quad = nil
					if unbind != "four-block" {
						fam.body.pair = nil
					}
					narrow := s.NewOutput()
					err := plan.TryExecute(in, f, narrow)
					fam.body.pair, fam.body.quad = pair, quad
					if err != nil {
						t.Fatal(err)
					}
					if d := tensor.MaxAbsDiff(narrow, got); d != 0 {
						t.Fatalf("shape %v seq=%v: %s body unbound differs from every body bound by %g, want bit-identical",
							s, seq, unbind, d)
					}
				}
			}
			// And correct against the float64 reference.
			ref := conv.Reference(s, in, f)
			if d := tensor.RelDiff(ref, got); d > tol {
				t.Fatalf("shape %v: rel diff vs reference %g > %g", s, d, tol)
			}
		}
	}
}

// TestDispatchOffByOneFallsBack: nothing about a standard shape picks
// its body — a shape one off in any dimension, loop constants (R, the
// stride) included, binds the standard family like its neighbour, none
// falls back to the looped kernel, and each computes correctly.
func TestDispatchOffByOneFallsBack(t *testing.T) {
	for _, base := range dispatchCases {
		for _, perturb := range []func(conv.Shape) conv.Shape{
			func(s conv.Shape) conv.Shape { s.H++; return s },
			func(s conv.Shape) conv.Shape { s.W++; return s },
			func(s conv.Shape) conv.Shape { s.K++; return s },
			func(s conv.Shape) conv.Shape { s.C++; return s },
			func(s conv.Shape) conv.Shape { s.R++; s.Pad = 1; return s },
			func(s conv.Shape) conv.Shape { s.Str = 3; return s },
		} {
			s := perturb(base)
			if s.Validate() != nil {
				continue
			}
			plan, err := TryNewPlan(s, Options{Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := plan.KernelName(), wantFamily(s); got != want {
				t.Fatalf("shape %v (from %v): KernelName = %q, want %q", s, base, got, want)
			}
			checkAgainstReference(t, s, Options{Threads: 2})
		}
	}
}

// TestDispatchBatchIndependent: the binding ignores the batch (the
// micro-kernel is batch-independent).
func TestDispatchBatchIndependent(t *testing.T) {
	for _, n := range []int{1, 5} {
		s := dispatchCases[0].WithBatch(n)
		plan, err := TryNewPlan(s, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.KernelName(); got != standardFamily.name {
			t.Fatalf("batch-%d KernelName = %q, want %q", n, got, standardFamily.name)
		}
		checkAgainstReference(t, s, Options{Threads: 2})
	}
}

// TestDispatchPrecedence: the quarantine flag outranks the family on a
// plan that already exists and on one built under it — with restore
// handing both plans their body back.
func TestDispatchPrecedence(t *testing.T) {
	s := dispatchCases[0]
	family := standardFamily.name
	plan, err := TryNewPlan(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.KernelName(); got != family {
		t.Fatalf("KernelName = %q, want %q", got, family)
	}
	QuarantineKernelFamily(family)
	defer RestoreKernelFamily(family)
	if got := plan.KernelName(); got != "12x8" {
		t.Fatalf("quarantined KernelName = %q, want 12x8", got)
	}
	during, err := TryNewPlan(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := during.KernelName(); got != "12x8" {
		t.Fatalf("plan built under quarantine: KernelName = %q, want 12x8", got)
	}
	RestoreKernelFamily(family)
	if got := plan.KernelName(); got != family {
		t.Fatalf("restored KernelName = %q, want %q", got, family)
	}
	if got := during.KernelName(); got != family {
		t.Fatalf("plan built under quarantine, after restore: KernelName = %q, want %q", got, family)
	}
}

// standardShapeRow is one row of the standard-shape table that
// TestDispatchModelTableCoverage and TestDispatchRejectsUncoveredShapes
// split between them.
type standardShapeRow struct {
	name  string
	shape conv.Shape
}

// table4ShapeRows keeps each Table 4 row's filter, stride and padding at
// a size the looped kernel runs in milliseconds: C ≤ 5, K ≤ 53 (seven
// K-blocks, so the four-block, paired and single bodies all run) and
// Q ≈ 13–18 (a full 12-column tile and a ragged one).
func table4ShapeRows() []standardShapeRow {
	var rows []standardShapeRow
	for _, l := range conv.Table4 {
		s := l.Shape
		s.C, s.K = min(s.C, 5), min(s.K, 53)
		s.H = min(s.H, 12*s.Str+s.R+3)
		s.W = min(s.W, 12*s.Str+s.S+3)
		rows = append(rows, standardShapeRow{fmt.Sprintf("table4/L%02d", l.ID), s})
	}
	return rows
}

// beyondTable4ShapeRows are the standard (R, S, stride) classes no
// Table 4 row has: 2×2, 5×5 at strides 1 and 2, 7×7 at stride 1, 3×3 at
// stride 3, 1×7, 7×1 and 11×11 at stride 4.
var beyondTable4ShapeRows = []standardShapeRow{
	{"r2s2s2", conv.Shape{N: 1, C: 4, H: 28, W: 28, K: 16, R: 2, S: 2, Str: 2}},
	{"r5s5s1", conv.Shape{N: 2, C: 3, H: 14, W: 17, K: 21, R: 5, S: 5, Str: 1, Pad: 2}},
	{"r5s5s2", conv.Shape{N: 1, C: 4, H: 19, W: 31, K: 53, R: 5, S: 5, Str: 2, Pad: 2}},
	{"r7s7s1", conv.Shape{N: 1, C: 3, H: 15, W: 20, K: 35, R: 7, S: 7, Str: 1, Pad: 3}},
	{"r3s3s3", conv.Shape{N: 1, C: 5, H: 20, W: 40, K: 24, R: 3, S: 3, Str: 3, Pad: 1}},
	{"r1s7s1", conv.Shape{N: 1, C: 6, H: 9, W: 17, K: 40, R: 1, S: 7, Str: 1, Pad: 3}},
	{"r7s1s1", conv.Shape{N: 1, C: 6, H: 17, W: 14, K: 40, R: 7, S: 1, Str: 1, Pad: 3}},
	{"r11s11s4", conv.Shape{N: 1, C: 3, H: 39, W: 63, K: 29, R: 11, S: 11, Str: 4, Pad: 2}},
}

// wantFamily is the family a plan of shape s reports on this host: the
// pointwise one for a 1×1, stride-1, unpadded shape where the host has
// the AVX-512 pointwise body, the standard one otherwise.
func wantFamily(s conv.Shape) string {
	if pixelFamilyFor(s) != nil {
		return pixelFamily.name
	}
	return standardFamily.name
}

// withQuarantined runs f with the named families quarantined.
func withQuarantined(f func(), names ...string) {
	for _, n := range names {
		QuarantineKernelFamily(n)
	}
	defer func() {
		for _, n := range names {
			RestoreKernelFamily(n)
		}
	}()
	f()
}

// checkStandardRows asserts, for every row, that the plan binds the
// standard family (and, for a 1×1 stride-1 row on an AVX-512 host, the
// pointwise one), counts one dispatch hit and no miss, and stores
// exactly the bits the same plan stores with every family quarantined
// (the looped kernel12x8 and the Go store) — and, where the pointwise
// family is bound, with it alone quarantined (the standard family).
func checkStandardRows(t *testing.T, rows []standardShapeRow) {
	t.Helper()
	pre := KernelDispatchStats()
	for _, r := range rows {
		s := r.shape
		plan, err := TryNewPlan(s, Options{Threads: 1})
		if err != nil {
			t.Fatalf("%s %v: %v", r.name, s, err)
		}
		if got, want := plan.KernelName(), wantFamily(s); got != want {
			t.Fatalf("%s %v: KernelName = %q, want %q", r.name, s, got, want)
		}
		in, filter := s.NewInput(), s.NewFilter()
		in.FillRandom(int64(s.R*100 + s.S))
		filter.FillRandom(int64(s.Str*100 + s.K))
		got := s.NewOutput()
		if err := plan.TryExecute(in, filter, got); err != nil {
			t.Fatal(err)
		}
		quarantines := [][]string{{standardFamily.name, pixelFamily.name}}
		if plan.px != nil {
			quarantines = append(quarantines, []string{pixelFamily.name})
		}
		for _, names := range quarantines {
			fb := s.NewOutput()
			withQuarantined(func() { err = plan.TryExecute(in, filter, fb) }, names...)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(fb.Data[i]) {
					t.Fatalf("%s %v: element %d = %x, the plan with %v quarantined stores %x",
						r.name, s, i, math.Float32bits(got.Data[i]), names, math.Float32bits(fb.Data[i]))
				}
			}
		}
	}
	post := KernelDispatchStats()
	if hits, misses := post.Hits-pre.Hits, post.Misses-pre.Misses; hits != uint64(len(rows)) || misses != 0 {
		t.Fatalf("dispatch counters moved by %d hits / %d misses over %d shapes, want %d / 0",
			hits, misses, len(rows), len(rows))
	}
}

// TestDispatchModelTableCoverage: every Table 4 row's filter, stride and
// padding binds the standard family, one dispatch hit each, bit-exact to
// the quarantined plan.
func TestDispatchModelTableCoverage(t *testing.T) {
	checkStandardRows(t, table4ShapeRows())
}

// TestDispatchRejectsUncoveredShapes: no valid standard shape is left
// uncovered — every class beyond Table 4 binds the standard family, one
// dispatch hit each, bit-exact to the quarantined plan — and the only
// shape dispatch rejects is an invalid one, which never plans and counts
// no hit.
func TestDispatchRejectsUncoveredShapes(t *testing.T) {
	checkStandardRows(t, beyondTable4ShapeRows)
	pre := KernelDispatchStats()
	if _, err := TryNewPlan(conv.Shape{N: 1, C: 0, H: 8, W: 8, K: 8, R: 3, S: 3, Str: 1, Pad: 1}, Options{}); err == nil {
		t.Fatal("invalid shape planned")
	}
	if st := KernelDispatchStats(); st.Hits != pre.Hits {
		t.Fatalf("an invalid shape counted %d dispatch hits", st.Hits-pre.Hits)
	}
}

// TestDispatchConcurrentSharedPlan: one plan executed from many
// goroutines over the shared worker pool, each flipping the family's
// quarantine flag between its executions (the -race target for the
// per-execution body resolution); whichever body an execution resolves,
// every result must be bit-identical.
func TestDispatchConcurrentSharedPlan(t *testing.T) {
	s := dispatchCases[0]
	family := standardFamily.name
	plan, err := TryNewPlan(s, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	in := s.NewInput()
	in.FillRandom(41)
	f := s.NewFilter()
	f.FillRandom(42)
	want := s.NewOutput()
	if err := plan.TryExecute(in, f, want); err != nil {
		t.Fatal(err)
	}
	defer RestoreKernelFamily(family)
	var wg sync.WaitGroup
	errCh := make(chan error, 4) // one slot per executor goroutine
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := s.NewOutput()
			for i := 0; i < 4; i++ {
				// Flip the flag under the other goroutines' executions.
				if (g+i)%2 == 0 {
					QuarantineKernelFamily(family)
				} else {
					RestoreKernelFamily(family)
				}
				if err := plan.TryExecute(in, f, out); err != nil {
					errCh <- err
					return
				}
				if d := tensor.MaxAbsDiff(want, out); d != 0 {
					errCh <- fmt.Errorf("concurrent execution diverged by %g", d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}
