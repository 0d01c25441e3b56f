package core

import (
	"context"
	"fmt"
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
