package core

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"ndirect/internal/conv"
	"ndirect/internal/faultinject"
	"ndirect/internal/tensor"
)

// captureLog redirects the package logger into the test log and
// returns a getter reporting whether (and what) was logged.
func captureLog(t *testing.T) func() string {
	t.Helper()
	old := Logf
	var mu sync.Mutex
	var lines []string
	Logf = func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, format)
		mu.Unlock()
		t.Logf("(captured) "+format, args...)
	}
	t.Cleanup(func() { Logf = old })
	return func() string {
		mu.Lock()
		defer mu.Unlock()
		return strings.Join(lines, "\n")
	}
}

func faultShape() conv.Shape {
	return conv.Shape{N: 1, C: 8, H: 12, W: 12, K: 16, R: 3, S: 3, Str: 1, Pad: 1}
}

func faultOperands(s conv.Shape) (in, filter *tensor.Tensor) {
	in = s.NewInput()
	in.FillRandom(11)
	filter = s.NewFilter()
	filter.FillRandom(12)
	return in, filter
}

// cleanConv2D is the fault-free one-shot run a recovered execution must
// reproduce bit for bit (non-integer operands: no other oracle stores
// the same bits).
func cleanConv2D(t *testing.T, s conv.Shape, in, filter *tensor.Tensor, opt Options) *tensor.Tensor {
	t.Helper()
	want, err := TryConv2D(s, in, filter, opt)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// An injected worker panic on the optimised path must not surface: the
// execution is replayed on the plan's oracle, the process stays alive,
// and the output is the fault-free run's, bit for bit.
func TestWorkerPanicFallsBackToReference(t *testing.T) {
	logged := captureLog(t)
	defer faultinject.Reset()
	s := faultShape()
	in, filter := faultOperands(s)
	want := cleanConv2D(t, s, in, filter, Options{Threads: 4})

	faultinject.Arm(faultinject.WorkerPanic, -1)
	got, err := TryConv2D(s, in, filter, Options{Threads: 4})
	if err != nil {
		t.Fatalf("TryConv2D must degrade, not fail: %v", err)
	}
	if d := tensor.MaxAbsDiff(want, got); d != 0 {
		t.Fatalf("fallback output diverges from the fault-free run by %g", d)
	}
	if !strings.Contains(logged(), "recomputing on reference path") {
		t.Fatal("degradation must be logged")
	}
	if faultinject.Enabled() {
		t.Fatal("the one-shot fault must be consumed")
	}
}

func TestWorkerPanicFallbackNHWC(t *testing.T) {
	logged := captureLog(t)
	defer faultinject.Reset()
	s := faultShape()
	in, filter := faultOperands(s)
	nhwc := tensor.NCHWToNHWC(in)
	want, err := TryConv2DNHWC(s, nhwc, filter, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}

	faultinject.Arm(faultinject.WorkerPanic, -1)
	got, err := TryConv2DNHWC(s, nhwc, filter, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(want, got); d != 0 {
		t.Fatalf("NHWC fallback diverges from the fault-free run by %g", d)
	}
	if logged() == "" {
		t.Fatal("degradation must be logged")
	}
}

// The fallback must reproduce the plan's fused epilogue, not just the
// bare convolution.
func TestWorkerPanicFallbackAppliesEpilogue(t *testing.T) {
	captureLog(t)
	defer faultinject.Reset()
	s := faultShape()
	in, filter := faultOperands(s)
	bias := make([]float32, s.K)
	for k := range bias {
		bias[k] = float32(k)*0.25 - 1.5
	}
	opt := Options{Threads: 4, FusedEpilogue: &EpilogueParams{Bias: bias, ReLU: true}}
	want := cleanConv2D(t, s, in, filter, opt)

	faultinject.Arm(faultinject.WorkerPanic, -1)
	got, err := TryConv2D(s, in, filter, opt)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(want, got); d != 0 {
		t.Fatalf("fallback dropped the epilogue: differs from the fault-free run by %g", d)
	}
}

// An injected NaN in the output buffer is detected by the non-finite
// scan and repaired by the reference fallback.
func TestNaNPoisonDetectedAndRepaired(t *testing.T) {
	logged := captureLog(t)
	defer faultinject.Reset()
	s := faultShape()
	in, filter := faultOperands(s)
	want := cleanConv2D(t, s, in, filter, Options{Threads: 2})

	faultinject.Arm(faultinject.NaNPoison, 7)
	got, err := TryConv2D(s, in, filter, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(want, got); d != 0 {
		t.Fatalf("poisoned output not repaired: differs from the fault-free run by %g", d)
	}
	if !strings.Contains(logged(), "recomputing on reference path") {
		t.Fatal("the numerical fault must be logged")
	}
}

func TestDepthwiseFaultFallsBack(t *testing.T) {
	logged := captureLog(t)
	defer faultinject.Reset()
	s := conv.Shape{N: 2, C: 6, H: 10, W: 10, K: 6, R: 3, S: 3, Str: 1, Pad: 1}
	in := s.NewInput()
	in.FillRandom(21)
	filter := tensor.New(s.C, s.R, s.S)
	filter.FillRandom(22)
	want := DepthwiseConv2D(s, in, filter, Options{Threads: 4})

	faultinject.Arm(faultinject.WorkerPanic, -1)
	got, err := TryDepthwiseConv2D(s, in, filter, Options{Threads: 4})
	if err != nil {
		t.Fatalf("depthwise must degrade, not fail: %v", err)
	}
	if d := tensor.RelDiff(want, got); d != 0 {
		t.Fatalf("oracle recompute differs: rel diff %g", d)
	}
	if !strings.Contains(logged(), "recomputing on reference path") {
		t.Fatal("degradation must be logged")
	}
}

// A faulted (image, group) sub-problem is recomputed on the reference
// path; integer-valued operands make that == the optimised result.
func TestGroupedFaultFallsBack(t *testing.T) {
	logged := captureLog(t)
	defer faultinject.Reset()
	s := conv.Shape{N: 2, C: 8, H: 9, W: 9, K: 8, R: 3, S: 3, Str: 1, Pad: 1}
	in := s.NewInput()
	fillInts(in, 31)
	filter := tensor.New(s.K, s.C/2, s.R, s.S)
	fillInts(filter, 32)
	want := GroupedConv2D(s, 2, in, filter, Options{Threads: 4})

	faultinject.Arm(faultinject.WorkerPanic, -1)
	got, err := TryGroupedConv2D(s, 2, in, filter, Options{Threads: 4})
	if err != nil {
		t.Fatalf("grouped must degrade, not fail: %v", err)
	}
	if d := tensor.RelDiff(want, got); d != 0 {
		t.Fatalf("recompute differs: rel diff %g", d)
	}
	if logged() == "" {
		t.Fatal("degradation must be logged")
	}
}

func TestConv2D64FaultFallsBack(t *testing.T) {
	logged := captureLog(t)
	defer faultinject.Reset()
	s := faultShape()
	in := make([]float64, s.N*s.C*s.H*s.W)
	filter := make([]float64, s.K*s.C*s.R*s.S)
	for i := range in {
		in[i] = float64(i%13) - 6
	}
	for i := range filter {
		filter[i] = float64(i%7) - 3
	}
	want := Reference64(s, in, filter)

	faultinject.Arm(faultinject.WorkerPanic, -1)
	got, err := TryConv2D64(s, in, filter, Options{Threads: 4})
	if err != nil {
		t.Fatalf("fp64 must degrade, not fail: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d = %g, want %g", i, got[i], want[i])
		}
	}
	if logged() == "" {
		t.Fatal("degradation must be logged")
	}
}

func TestConv2DInt16FaultFallsBack(t *testing.T) {
	logged := captureLog(t)
	defer faultinject.Reset()
	s := faultShape()
	in := make([]int16, s.N*s.C*s.H*s.W)
	filter := make([]int16, s.K*s.C*s.R*s.S)
	for i := range in {
		in[i] = int16(i%31) - 15
	}
	for i := range filter {
		filter[i] = int16(i%15) - 7
	}
	want := ReferenceInt16(s, in, filter)

	faultinject.Arm(faultinject.WorkerPanic, -1)
	got, err := TryConv2DInt16(s, in, filter, Options{Threads: 4})
	if err != nil {
		t.Fatalf("int16 must degrade, not fail: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d = %d, want %d", i, got[i], want[i])
		}
	}
	if logged() == "" {
		t.Fatal("degradation must be logged")
	}
}

// Classification of validation failures by the checked API.
func TestTryErrorsClassify(t *testing.T) {
	s := faultShape()
	in, filter := faultOperands(s)

	if _, err := TryNewPlan(conv.Shape{}, Options{}); !errors.Is(err, conv.ErrBadShape) {
		t.Fatalf("zero shape: err = %v, want ErrBadShape", err)
	}
	if _, err := TryNewPlan(s, Options{FusedEpilogue: &EpilogueParams{Bias: make([]float32, s.K+1)}}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("mis-sized epilogue bias: err = %v, want ErrBadOptions", err)
	}
	if _, err := TryNewPlan(s, Options{Threads: maxThreads + 1}); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("excessive threads: err = %v, want ErrBadOptions", err)
	}
	short := tensor.New(1, 1, 1, 1)
	if _, err := TryConv2D(s, short, filter, Options{}); !errors.Is(err, conv.ErrDimMismatch) {
		t.Fatalf("wrong input dims: err = %v, want ErrDimMismatch", err)
	}
	if _, err := TryConv2D(s, in, short, Options{}); !errors.Is(err, conv.ErrDimMismatch) {
		t.Fatalf("wrong filter dims: err = %v, want ErrDimMismatch", err)
	}
	plan := NewPlan(s, Options{})
	if err := plan.TryExecute(in, filter, short); !errors.Is(err, conv.ErrDimMismatch) {
		t.Fatalf("wrong output dims: err = %v, want ErrDimMismatch", err)
	}
}
