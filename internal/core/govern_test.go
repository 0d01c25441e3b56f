package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"ndirect/internal/conv"
	"ndirect/internal/faultinject"
	"ndirect/internal/tensor"
)

// fillInts fills t with small integers so every execution path —
// optimised, degraded, reference fallback — produces bit-identical
// float32 results (all partial sums exactly representable).
func fillInts(t *tensor.Tensor, seed int64) {
	x := uint64(seed)*2654435761 + 12345
	for i := range t.Data {
		x = x*6364136223846793005 + 1442695040888963407
		t.Data[i] = float32(int64(x>>33)%7 - 3)
	}
}

// ladderExec is one consumer of the governed path prepared for the
// ladder table: run performs one checked execution on a fresh output
// tensor and returns it with the array it was created on (nil for the
// one-shot form, which allocates its own result).
type ladderExec struct {
	run        func(ctx context.Context) (out *tensor.Tensor, before []float32, err error)
	want       []float32 // the oracle on integer operands; nil: the fault-free run
	packedLens []int     // element counts of the packed operands, in drill order
	scratch    bool      // the grid's workers own canary-guarded scratch
}

// ladderConsumer prepares one entry path under opt. packed selects the
// packed-weights entry point, fill the operands (ladderInputs).
type ladderConsumer struct {
	name    string
	prepare func(t *testing.T, opt Options, packed bool, fill operandFill) ladderExec
}

// operandFill fills a tensor from a seed.
type operandFill func(t *tensor.Tensor, seed int64)

// ladderInputs are the operands every row runs on. On integers every
// partial sum is exact, so the consumer's float64 oracle stores the
// optimised path's bits and the table can demand == of it. On full
// float32 mantissas every tap rounds and the only oracle is the
// consumer's own fault-free run: a recovered execution must store
// exactly its bits.
var ladderInputs = []struct {
	name string // subtest infix
	fill operandFill
	ints bool
}{
	{"", fillInts, true},
	{"float/", (*tensor.Tensor).FillRandom, false},
}

func freshOut(dims ...int) (out *tensor.Tensor, before []float32) {
	out = tensor.New(dims...)
	return out, out.Data
}

var ladderConsumers = []ladderConsumer{
	{"Plan", func(t *testing.T, opt Options, packed bool, fill operandFill) ladderExec {
		s := faultShape()
		in, filter := s.NewInput(), s.NewFilter()
		fill(in, 31)
		fill(filter, 32)
		p, err := TryNewPlan(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := p.TransformFilter(filter)
		if err != nil {
			t.Fatal(err)
		}
		e := ladderExec{want: conv.Reference(s, in, filter).Data, packedLens: []int{len(pf.data)}, scratch: true}
		e.run = func(ctx context.Context) (*tensor.Tensor, []float32, error) {
			out, before := freshOut(s.N, s.K, s.P(), s.Q())
			if packed {
				return out, before, p.TryExecutePackedCtx(ctx, in, pf, out)
			}
			return out, before, p.TryExecuteCtx(ctx, in, filter, out)
		}
		return e
	}},
	// NHWC activations, and a residual operand under the whole fused
	// epilogue: their oracle is the fault-free run.
	{"Plan NHWC", func(t *testing.T, opt Options, packed bool, fill operandFill) ladderExec {
		s := faultShape()
		in, filter := tensor.New(s.N, s.H, s.W, s.C), s.NewFilter()
		fill(in, 33)
		fill(filter, 34)
		p, err := TryNewPlan(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := p.TransformFilter(filter)
		if err != nil {
			t.Fatal(err)
		}
		e := ladderExec{packedLens: []int{len(pf.data)}, scratch: true}
		e.run = func(ctx context.Context) (*tensor.Tensor, []float32, error) {
			out, before := freshOut(s.N, s.P(), s.Q(), s.K)
			return out, before, p.exec(ctx, execReq{in: in, filter: filter, pf: pf, packed: packed, out: out, nhwc: true})
		}
		return e
	}},
	{"Plan residual", func(t *testing.T, opt Options, packed bool, fill operandFill) ladderExec {
		s := faultShape()
		in, filter, res := s.NewInput(), s.NewFilter(), s.NewOutput()
		fill(in, 35)
		fill(filter, 36)
		fill(res, 37)
		opt.FusedEpilogue = testEpilogue(s.K, true, true, true)
		opt.FusedEpilogue.Residual = true
		p, err := TryNewPlan(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := p.TransformFilter(filter)
		if err != nil {
			t.Fatal(err)
		}
		e := ladderExec{packedLens: []int{len(pf.data)}, scratch: true}
		if !packed {
			pf = nil // transform filter on the fly
		}
		e.run = func(ctx context.Context) (*tensor.Tensor, []float32, error) {
			out, before := freshOut(s.N, s.K, s.P(), s.Q())
			return out, before, p.TryExecuteResidualCtx(ctx, in, filter, pf, res, out)
		}
		return e
	}},
	{"DepthwisePlan", func(t *testing.T, opt Options, packed bool, fill operandFill) ladderExec {
		s := conv.Shape{N: 2, C: 6, H: 16, W: 16, K: 6, R: 3, S: 3, Str: 1, Pad: 1}
		in, filter := tensor.New(s.N, s.C, s.H, s.W), tensor.New(s.C, s.R, s.S)
		fill(in, 51)
		fill(filter, 52)
		p, err := TryNewDepthwisePlan(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := p.TransformFilter(filter)
		if err != nil {
			t.Fatal(err)
		}
		e := ladderExec{want: dwOracle(s, in, filter, nil).Data, packedLens: []int{len(pf.data)}}
		e.run = func(ctx context.Context) (*tensor.Tensor, []float32, error) {
			out, before := freshOut(s.N, s.C, s.P(), s.Q())
			if packed {
				return out, before, p.TryExecutePackedCtx(ctx, in, pf, out)
			}
			return out, before, p.TryExecuteCtx(ctx, in, filter, out)
		}
		return e
	}},
	{"SeparablePlan", func(t *testing.T, opt Options, packed bool, fill operandFill) ladderExec {
		sh := SeparableShape{N: 1, C: 8, H: 16, W: 16, K: 16, R: 3, S: 3, Str: 1, Pad: 1}
		in, dwF, pwF := tensor.New(sh.N, sh.C, sh.H, sh.W), tensor.New(sh.C, sh.R, sh.S), tensor.New(sh.K, sh.C, 1, 1)
		fill(in, 61)
		fill(dwF, 62)
		fill(pwF, 63)
		p, err := TryNewSeparablePlan(sh, opt)
		if err != nil {
			t.Fatal(err)
		}
		pdw, ppw, err := p.TransformFilters(dwF, pwF)
		if err != nil {
			t.Fatal(err)
		}
		mid := dwOracle(sh.DWShape(), in, dwF, nil)
		e := ladderExec{
			want:       conv.Reference(sh.PWShape(), mid, pwF).Data,
			packedLens: []int{len(pdw.data), len(ppw.data)},
			scratch:    true,
		}
		e.run = func(ctx context.Context) (*tensor.Tensor, []float32, error) {
			out, before := freshOut(sh.N, sh.K, sh.P(), sh.Q())
			if packed {
				return out, before, p.TryExecutePackedCtx(ctx, in, pdw, ppw, out)
			}
			return out, before, p.TryExecuteCtx(ctx, in, dwF, pwF, out)
		}
		return e
	}},
	{"one-shot depthwise", func(t *testing.T, opt Options, _ bool, fill operandFill) ladderExec {
		s := conv.Shape{N: 2, C: 6, H: 16, W: 16, K: 6, R: 3, S: 3, Str: 1, Pad: 1}
		in, filter := tensor.New(s.N, s.C, s.H, s.W), tensor.New(s.C, s.R, s.S)
		fill(in, 71)
		fill(filter, 72)
		e := ladderExec{want: dwOracle(s, in, filter, nil).Data}
		e.run = func(ctx context.Context) (*tensor.Tensor, []float32, error) {
			out, err := TryDepthwiseConv2DCtx(ctx, s, in, filter, opt)
			return out, nil, err
		}
		return e
	}},
	// The grouped and 3-D entry points are sequences of governed Plan
	// executions (one per (image, group), one per output depth): each row
	// must come out of the first faulted execution exactly as a Plan does.
	{"one-shot grouped", func(t *testing.T, opt Options, _ bool, fill operandFill) ladderExec {
		const groups = 2
		s := conv.Shape{N: 2, C: 8, H: 12, W: 12, K: 8, R: 3, S: 3, Str: 1, Pad: 1}
		in, filter := s.NewInput(), tensor.New(s.K, s.C/groups, s.R, s.S)
		fill(in, 81)
		fill(filter, 82)
		e := ladderExec{want: groupedReference(s, groups, in, filter).Data, scratch: true}
		e.run = func(ctx context.Context) (*tensor.Tensor, []float32, error) {
			out, err := TryGroupedConv2DCtx(ctx, s, groups, in, filter, opt)
			return out, nil, err
		}
		return e
	}},
	{"one-shot 3-D", func(t *testing.T, opt Options, _ bool, fill operandFill) ladderExec {
		s := Shape3D{Shape: conv.Shape{N: 1, C: 3, H: 10, W: 10, K: 8, R: 3, S: 3, Str: 1, Pad: 1}, D: 4, T: 3, StrD: 1, PadD: 1}
		in, filter := tensor.New(s.N, s.C, s.D, s.H, s.W), tensor.New(s.K, s.C, s.T, s.R, s.S)
		fill(in, 91)
		fill(filter, 92)
		e := ladderExec{want: conv3dReference(s, in, filter).Data, scratch: true}
		e.run = func(ctx context.Context) (*tensor.Tensor, []float32, error) {
			out, err := TryConv3DCtx(ctx, s, in, filter, opt)
			return out, nil, err
		}
		return e
	}},
}

// ladderFault is one row of the table: what to arm, under which
// options and context, and the one outcome every consumer must show.
type ladderFault struct {
	name    string
	packed  bool   // run the packed-weights entry point
	point   string // faultinject point to arm ("" = none) at arg, or,
	arg     int
	operand int // when >= 0, at element 1 of that packed operand
	ctx     func() (context.Context, context.CancelFunc)
	wantErr []error // nil: a nil error, outputs == oracle
}

func expiredCtx() (context.Context, context.CancelFunc) {
	return context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
}

func shortCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 30*time.Millisecond)
}

func ladderFaults() []ladderFault {
	deadline := []error{conv.ErrDeadline, context.DeadlineExceeded}
	integrity := []error{ErrIntegrity}
	rows := []ladderFault{
		{name: "worker-panic", point: faultinject.WorkerPanic},
		{name: "worker-panic/packed", packed: true, point: faultinject.WorkerPanic},
		{name: "worker-stall/deadline", point: faultinject.WorkerStall, ctx: shortCtx, wantErr: deadline},
		{name: "scratch-overrun", point: faultinject.ScratchOverrun, wantErr: integrity},
		{name: "expired-context", ctx: expiredCtx, wantErr: deadline},
	}
	// The three element-addressed drills, with an ordinary index, the −1
	// an arg-less NDIRECT_FAULTS spec arms, and one past every operand.
	for _, a := range []struct {
		arg  int
		name string
	}{{5, ""}, {-1, "/arg-less"}, {1 << 30, "/past-end"}} {
		rows = append(rows,
			ladderFault{name: "nan-poison" + a.name, point: faultinject.NaNPoison, arg: a.arg},
			ladderFault{name: "nan-poison/packed" + a.name, packed: true, point: faultinject.NaNPoison, arg: a.arg},
			ladderFault{name: "packed-corrupt" + a.name, packed: true, point: faultinject.PackedCorrupt, arg: a.arg},
			ladderFault{name: "weight-bitflip" + a.name, packed: true, point: faultinject.WeightBitflip, arg: a.arg, wantErr: integrity},
		)
	}
	for i := range rows {
		rows[i].operand = -1
	}
	// Each packed operand of an execution in turn (the fused block has
	// two: the depthwise pack, then the pointwise pack).
	for op, name := range []string{"/operand-0", "/operand-1"} {
		rows = append(rows,
			ladderFault{name: "packed-corrupt" + name, packed: true, point: faultinject.PackedCorrupt, operand: op},
			ladderFault{name: "weight-bitflip" + name, packed: true, point: faultinject.WeightBitflip, operand: op, wantErr: integrity},
		)
	}
	return rows
}

// TestGovernedLadder drives every fault point through every entry path
// of the one governed execution path, on each of ladderInputs, and
// demands the same typed outcome of each: nil with outputs == the
// oracle, or the row's typed error — never a panic, whatever the drill's
// argument — and, on every row, an output tensor still on the array the
// caller gave it. A consumer with no packed operand (the one-shot
// depthwise driver) or no worker scratch (the depthwise grid) runs the
// weight-drill and scratch-overrun rows too: the drill has nothing to
// bite and the execution must be clean.
func TestGovernedLadder(t *testing.T) {
	captureLog(t)
	for _, input := range ladderInputs {
		for _, c := range ladderConsumers {
			for _, f := range ladderFaults() {
				t.Run(c.name+"/"+input.name+f.name, func(t *testing.T) {
					defer faultinject.Reset()
					e := c.prepare(t, Options{Threads: 4}, f.packed, input.fill)
					want := e.want
					if !input.ints || want == nil {
						clean, _, err := e.run(context.Background())
						if err != nil {
							t.Fatal(err)
						}
						want = clean.Data
					}
					runLadderRow(t, e, f, want)
				})
			}
		}
	}
}

// runLadderRow arms row f's drill, runs e once and checks the outcome
// against the row's typed error or, on a nil one, against want.
func runLadderRow(t *testing.T, e ladderExec, f ladderFault, want []float32) {
	wantErr, arg := f.wantErr, f.arg
	if f.operand >= len(e.packedLens) {
		t.Skip("the consumer has no such packed operand")
	}
	if f.operand >= 0 {
		// The drill index addresses the operands' concatenation.
		arg = 1
		for _, n := range e.packedLens[:f.operand] {
			arg += n
		}
	}
	if len(e.packedLens) == 0 && (f.point == faultinject.WeightBitflip || f.point == faultinject.PackedCorrupt) ||
		!e.scratch && f.point == faultinject.ScratchOverrun {
		wantErr = nil // nothing for the drill to bite: a clean run
	}
	if f.point != "" {
		faultinject.Arm(f.point, arg)
	}
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if f.ctx != nil {
		ctx, cancel = f.ctx()
	}
	defer cancel()
	out, before, err := e.run(ctx)
	faultinject.Reset() // release a stalled worker
	waitNoLeakedWorkers(t)

	if before != nil && &out.Data[0] != &before[0] {
		t.Fatal("the execution replaced the output tensor's array")
	}
	for _, target := range wantErr {
		if !errors.Is(err, target) {
			t.Fatalf("err = %v, want %v", err, target)
		}
	}
	if wantErr != nil {
		return
	}
	if err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	for j, v := range out.Data {
		if v != want[j] {
			t.Fatalf("element %d = %v, oracle %v", j, v, want[j])
		}
	}
}
