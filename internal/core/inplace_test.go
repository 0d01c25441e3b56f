package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"ndirect/internal/conv"
	"ndirect/internal/tensor"
)

// A 1×1 unpadded plan reads its NCHW tiles where they lie in the input:
// no packing buffer exists, and the output is bit-exact against the
// oracle at both Table 4 strides and at stride 3 (the "s3/no-family"
// case, named for the time before one family served every stride), on a
// ragged Q, with a pair of K-blocks plus a single tail block, with a
// ragged K, with several channel tiles, on a batch of two, raw and
// packed weights, one and two workers — and never through the
// reference fallback.
func TestInPlaceOneByOnePlans(t *testing.T) {
	logged := captureLog(t)
	cases := []struct {
		name string
		s    conv.Shape
		opt  Options
	}{
		{"s1/raggedQ", conv.Shape{N: 1, C: 16, H: 14, W: 14, K: 32, R: 1, S: 1, Str: 1}, Options{}},
		{"s2/raggedQ", conv.Shape{N: 1, C: 16, H: 14, W: 14, K: 32, R: 1, S: 1, Str: 2}, Options{}},
		{"s2/oddW", conv.Shape{N: 1, C: 8, H: 9, W: 27, K: 16, R: 1, S: 1, Str: 2}, Options{}},
		{"pair+tail", conv.Shape{N: 1, C: 8, H: 7, W: 13, K: 24, R: 1, S: 1, Str: 1}, Options{}},
		{"raggedK", conv.Shape{N: 1, C: 8, H: 7, W: 13, K: 21, R: 1, S: 1, Str: 1}, Options{}},
		{"C>Tc", conv.Shape{N: 1, C: 11, H: 6, W: 25, K: 16, R: 1, S: 1, Str: 1}, Options{ForceTc: 4}},
		{"C>Tc/s2/oddK", conv.Shape{N: 1, C: 11, H: 10, W: 10, K: 13, R: 1, S: 1, Str: 2}, Options{ForceTc: 3, ForceTk: 8}},
		{"N=2", conv.Shape{N: 2, C: 12, H: 8, W: 8, K: 24, R: 1, S: 1, Str: 1}, Options{}},
		{"s3/no-family", conv.Shape{N: 1, C: 8, H: 13, W: 40, K: 16, R: 1, S: 1, Str: 3}, Options{}},
	}
	for _, c := range cases {
		for _, threads := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/t%d", c.name, threads), func(t *testing.T) {
				opt := c.opt
				opt.Threads = threads
				p := NewPlan(c.s, opt)
				if !p.inPlace {
					t.Fatalf("%v: plan does not read in place", c.s)
				}
				in, filter := intOperands(c.s)
				want := conv.Reference(c.s, in, filter)
				pf, err := p.TransformFilter(filter)
				if err != nil {
					t.Fatal(err)
				}
				for _, packed := range []bool{false, true} {
					out := c.s.NewOutput()
					if packed {
						err = p.TryExecutePacked(in, pf, out)
					} else {
						err = p.TryExecute(in, filter, out)
					}
					if err != nil {
						t.Fatal(err)
					}
					if d := tensor.MaxAbsDiff(out, want); d != 0 {
						t.Fatalf("packed=%v: output differs from reference by %g", packed, d)
					}
				}
				r := p.runs.get().owner.(*planRun)
				for w, task := range r.tasks {
					if task.ws.buf != nil {
						t.Fatalf("worker %d of an in-place plan holds a packing buffer", w)
					}
				}
				p.runs.put(&r.gridRun)
				if l := logged(); l != "" {
					t.Fatalf("an in-place execution fell back to the reference path: %s", l)
				}
			})
		}
	}
}

// The fused epilogue with a residual operand on an in-place plan, over
// several channel tiles (so the last store both accumulates and
// finishes) and a ragged K, equals the sweep form bit for bit.
func TestInPlaceResidualEpilogue(t *testing.T) {
	logged := captureLog(t)
	s := conv.Shape{N: 2, C: 11, H: 9, W: 15, K: 21, R: 1, S: 1, Str: 1}
	for _, opt := range []Options{{Threads: 1}, {Threads: 2, ForceTc: 4}} {
		p, in, filter, res, want := residualCase(t, s, opt, true)
		pf, err := p.TransformFilter(filter)
		if err != nil {
			t.Fatal(err)
		}
		for _, packed := range []*PackedFilter{nil, pf} {
			out := s.NewOutput()
			if err := p.TryExecuteResidualCtx(context.Background(), in, filter, packed, res, out); err != nil {
				t.Fatal(err)
			}
			if d := tensor.MaxAbsDiff(out, want); d != 0 {
				t.Fatalf("opt=%+v packed=%v: residual epilogue differs from the sweeps by %g", opt, packed != nil, d)
			}
		}
	}
	if l := logged(); l != "" {
		t.Fatalf("an in-place execution fell back to the reference path: %s", l)
	}
}

// NHWC keeps packing: an NHWC execution of an in-place plan gives the
// run its packing buffers on first use and stays bit-exact, and the NCHW
// executions that follow on the same run stay exact too.
func TestInPlacePlanPacksNHWC(t *testing.T) {
	logged := captureLog(t)
	s := conv.Shape{N: 2, C: 11, H: 9, W: 15, K: 21, R: 1, S: 1, Str: 2}
	p := NewPlan(s, Options{Threads: 1, ForceTc: 4})
	in, filter := intOperands(s)
	want := conv.Reference(s, in, filter)
	out := s.NewOutput()
	if err := p.TryExecute(in, filter, out); err != nil {
		t.Fatal(err)
	}
	nhwcOut := tensor.New(s.N, s.P(), s.Q(), s.K)
	if err := p.TryExecuteNHWC(tensor.NCHWToNHWC(in), filter, nhwcOut); err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(tensor.NHWCToNCHW(nhwcOut), want); d != 0 {
		t.Fatalf("NHWC output differs from reference by %g", d)
	}
	r := p.runs.get().owner.(*planRun)
	if r.tasks[0].ws.buf == nil {
		t.Fatal("the NHWC execution ran without a packing buffer")
	}
	p.runs.put(&r.gridRun)
	if err := p.TryExecute(in, filter, out); err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(out, want); d != 0 {
		t.Fatalf("NCHW after NHWC differs from reference by %g", d)
	}
	if l := logged(); l != "" {
		t.Fatalf("an execution fell back to the reference path: %s", l)
	}
}

// The admission quote of an in-place plan counts no packing buffer; a
// padded 1×1 plan, which packs, still does.
func TestInPlaceScratchQuote(t *testing.T) {
	s := conv.Shape{N: 1, C: 64, H: 28, W: 28, K: 64, R: 1, S: 1, Str: 1}
	for _, pad := range []int{0, 1} {
		s.Pad = pad
		p := NewPlan(s, Options{Threads: 2})
		workers := int64(p.TM.PTk * p.TM.PN * p.TM.PH * p.TM.PW)
		want := 4 * int64(p.tfLen()) * workers
		if pad != 0 {
			want += 4 * int64(p.bufLen()) * workers
		}
		if got := p.ScratchBytes(); got != want {
			t.Fatalf("pad=%d: ScratchBytes = %d, want %d", pad, got, want)
		}
	}
}

// Every 1×1 stride-1 row of Table 4 and the MobileNet extension, at full
// size with full-mantissa operands, and both fused MobileNet blocks store
// on the pointwise body exactly the bits the same plan stores with that
// family quarantined (the 12×8 bodies) — a plan with the whole epilogue
// and a residual operand over two channel tiles included — and a small
// one exactly its oracle replay's (TryExecuteReferenceCtx). The rows on
// 7×7 planes (L22, L23), whose last 48-pixel tile is nearly empty, bind
// the standard family (pixelTilesPay) and every other row the pointwise
// one.
func TestPixelPlansMatchQuarantinedReplay(t *testing.T) {
	if !hasPairBody {
		t.Skip("no AVX-512F on this host: every 1×1 plan runs the standard family")
	}
	// same runs exec on the pointwise family and with it quarantined and
	// compares every output bit.
	same := func(name string, exec func(out *tensor.Tensor), newOut func() *tensor.Tensor) {
		t.Helper()
		got, fb := newOut(), newOut()
		exec(got)
		withQuarantined(func() { exec(fb) }, pixelFamily.name)
		for i := range got.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(fb.Data[i]) {
				t.Fatalf("%s: element %d = %x on %s, %x with it quarantined",
					name, i, math.Float32bits(got.Data[i]), pixelFamily.name, math.Float32bits(fb.Data[i]))
			}
		}
	}
	for _, l := range append(append([]conv.Layer(nil), conv.Table4...), conv.MobileNetRows...) {
		s := l.Shape
		if l.Depthwise || !pointwiseShape(s) {
			continue
		}
		want := pixelFamily.name
		if s.P() == 7 {
			want = standardFamily.name
		}
		for _, opt := range []Options{{Threads: 2}, {Threads: 2, ForceTc: s.C/2 + 1}} {
			p, in, filter, res, _ := residualCase(t, s, opt, false)
			if p.KernelName() != want {
				t.Fatalf("L%02d: KernelName = %q, want %q", l.ID, p.KernelName(), want)
			}
			same(fmt.Sprintf("L%02d Tc=%d", l.ID, p.CT.Tc), func(out *tensor.Tensor) {
				if err := p.TryExecuteResidualCtx(context.Background(), in, filter, nil, res, out); err != nil {
					t.Fatal(err)
				}
			}, s.NewOutput)
		}
	}
	for _, pair := range [][2]int{{29, 30}, {31, 32}} {
		dw, _ := conv.LayerByID(pair[0])
		pw, _ := conv.LayerByID(pair[1])
		d := dw.Shape
		ss := SeparableShape{N: 1, C: d.C, H: d.H, W: d.W, K: pw.Shape.K, R: d.R, S: d.S, Str: d.Str, Pad: d.Pad}
		ep := &EpilogueParams{Bias: make([]float32, ss.K), ReLU: true}
		for k := range ep.Bias {
			ep.Bias[k] = float32(k%7) - 3
		}
		sp, err := TryNewSeparablePlan(ss, Options{Threads: 2, FusedEpilogue: ep})
		if err != nil {
			t.Fatal(err)
		}
		in, dwf, pwf := tensor.New(ss.N, ss.C, ss.H, ss.W), tensor.New(ss.C, ss.R, ss.S), tensor.New(ss.K, ss.C, 1, 1)
		in.FillRandom(31)
		dwf.FillRandom(32)
		pwf.FillRandom(33)
		same(fmt.Sprintf("F%d_%d", pair[0], pair[1]), func(out *tensor.Tensor) {
			if err := sp.TryExecute(in, dwf, pwf, out); err != nil {
				t.Fatal(err)
			}
		}, func() *tensor.Tensor { return tensor.New(ss.N, ss.K, ss.P(), ss.Q()) })
	}

	s := conv.Shape{N: 2, C: 11, H: 9, W: 15, K: 21, R: 1, S: 1, Str: 1}
	p, in, filter, res, _ := residualCase(t, s, Options{Threads: 2, ForceTc: 4}, false)
	got, ref := s.NewOutput(), s.NewOutput()
	if err := p.TryExecuteResidualCtx(context.Background(), in, filter, nil, res, got); err != nil {
		t.Fatal(err)
	}
	r, err := p.load(execReq{in: in, filter: filter, res: res, out: ref})
	if err != nil {
		t.Fatal(err)
	}
	r.oracle()
	r.replay()
	r.release()
	for i := range got.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(ref.Data[i]) {
			t.Fatalf("%v: element %d = %x on %s, the oracle replay stores %x",
				s, i, math.Float32bits(got.Data[i]), pixelFamily.name, math.Float32bits(ref.Data[i]))
		}
	}
}
