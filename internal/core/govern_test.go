package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"ndirect/internal/conv"
	"ndirect/internal/faultinject"
	"ndirect/internal/tensor"
)

// TestBatchedNaNPoisonArgLess is the drift this path's unification
// removed: the batched copy of the ladder had lost the drill-index
// clamp, so the −1 an arg-less NDIRECT_FAULTS=nan-poison arms made the
// checked TryExecuteBatchCtx panic (index out of range [-1]) instead of
// recovering through the reference path. check.sh also runs it with
// the variable set arg-less in the environment; it is the first test of
// the ladder's file so that run finds the environment's shot unspent.
func TestBatchedNaNPoisonArgLess(t *testing.T) {
	captureLog(t)
	defer faultinject.Reset()
	if !faultinject.Enabled() {
		faultinject.Arm(faultinject.NaNPoison, -1)
	}
	e := ladderConsumers[1].prepare(t, Options{Threads: 2}, false, false)
	outs, _, err := e.run(context.Background())
	if err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	for i, out := range outs {
		for j, v := range out.Data {
			if v != e.want[i][j] {
				t.Fatalf("output %d element %d = %v, oracle %v", i, j, v, e.want[i][j])
			}
		}
	}
}

// ladderExec is one consumer of the governed path prepared for the
// ladder table: run performs one checked execution on fresh output
// tensors and returns them with the arrays they were created on (nil
// for the one-shot form, which allocates its own result).
type ladderExec struct {
	run        func(ctx context.Context) (outs []*tensor.Tensor, before [][]float32, err error)
	want       [][]float32 // the oracle, one array per output
	packedLens []int       // element counts of the packed operands, in drill order
	scratch    bool        // the grid's workers own canary-guarded scratch
}

// ladderConsumer prepares one entry path under opt. packed selects the
// packed-weights entry point; nanInput plants a NaN in the input.
// Operands are integer-valued, so the optimised float32 paths and every
// oracle produce the same bits and the table can demand ==.
type ladderConsumer struct {
	name    string
	prepare func(t *testing.T, opt Options, packed, nanInput bool) ladderExec
}

func ladderInput(in *tensor.Tensor, seed int64, nanInput bool) {
	fillInts(in, seed)
	if nanInput {
		in.Data[3] = float32(math.NaN())
	}
}

func freshOuts(dims ...[]int) (outs []*tensor.Tensor, before [][]float32) {
	for _, d := range dims {
		o := tensor.New(d...)
		outs, before = append(outs, o), append(before, o.Data)
	}
	return outs, before
}

var ladderConsumers = []ladderConsumer{
	{"Plan", func(t *testing.T, opt Options, packed, nanInput bool) ladderExec {
		s := faultShape()
		in, filter := s.NewInput(), s.NewFilter()
		ladderInput(in, 31, nanInput)
		fillInts(filter, 32)
		p, err := TryNewPlan(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := p.TransformFilter(filter)
		if err != nil {
			t.Fatal(err)
		}
		e := ladderExec{want: [][]float32{conv.Reference(s, in, filter).Data}, packedLens: []int{len(pf.data)}, scratch: true}
		e.run = func(ctx context.Context) ([]*tensor.Tensor, [][]float32, error) {
			outs, before := freshOuts([]int{s.N, s.K, s.P(), s.Q()})
			if packed {
				return outs, before, p.TryExecutePackedCtx(ctx, in, pf, outs[0])
			}
			return outs, before, p.TryExecuteCtx(ctx, in, filter, outs[0])
		}
		return e
	}},
	{"batched Plan", func(t *testing.T, opt Options, packed, nanInput bool) ladderExec {
		s := faultShape()
		filter := s.NewFilter()
		fillInts(filter, 42)
		var ins []*tensor.Tensor
		e := ladderExec{scratch: true}
		for i := 0; i < 3; i++ {
			in := s.NewInput()
			ladderInput(in, int64(43+i), nanInput && i == 1)
			ins = append(ins, in)
			e.want = append(e.want, conv.Reference(s, in, filter).Data)
		}
		p, err := TryNewPlan(s.WithBatch(len(ins)), opt)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := p.TransformFilter(filter)
		if err != nil {
			t.Fatal(err)
		}
		e.packedLens = []int{len(pf.data)}
		e.run = func(ctx context.Context) ([]*tensor.Tensor, [][]float32, error) {
			d := []int{1, s.K, s.P(), s.Q()}
			outs, before := freshOuts(d, d, d)
			if packed {
				return outs, before, p.TryExecuteBatchPackedCtx(ctx, ins, pf, outs)
			}
			return outs, before, p.TryExecuteBatchCtx(ctx, ins, filter, outs)
		}
		return e
	}},
	{"DepthwisePlan", func(t *testing.T, opt Options, packed, nanInput bool) ladderExec {
		s := conv.Shape{N: 2, C: 6, H: 16, W: 16, K: 6, R: 3, S: 3, Str: 1, Pad: 1}
		in, filter := tensor.New(s.N, s.C, s.H, s.W), tensor.New(s.C, s.R, s.S)
		ladderInput(in, 51, nanInput)
		fillInts(filter, 52)
		p, err := TryNewDepthwisePlan(s, opt)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := p.TransformFilter(filter)
		if err != nil {
			t.Fatal(err)
		}
		e := ladderExec{want: [][]float32{dwOracle(s, in, filter, nil).Data}, packedLens: []int{len(pf.data)}}
		e.run = func(ctx context.Context) ([]*tensor.Tensor, [][]float32, error) {
			outs, before := freshOuts([]int{s.N, s.C, s.P(), s.Q()})
			if packed {
				return outs, before, p.TryExecutePackedCtx(ctx, in, pf, outs[0])
			}
			return outs, before, p.TryExecuteCtx(ctx, in, filter, outs[0])
		}
		return e
	}},
	{"SeparablePlan", func(t *testing.T, opt Options, packed, nanInput bool) ladderExec {
		sh := SeparableShape{N: 1, C: 8, H: 16, W: 16, K: 16, R: 3, S: 3, Str: 1, Pad: 1}
		in, dwF, pwF := tensor.New(sh.N, sh.C, sh.H, sh.W), tensor.New(sh.C, sh.R, sh.S), tensor.New(sh.K, sh.C, 1, 1)
		ladderInput(in, 61, nanInput)
		fillInts(dwF, 62)
		fillInts(pwF, 63)
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
			want:       [][]float32{conv.Reference(sh.PWShape(), mid, pwF).Data},
			packedLens: []int{len(pdw.data), len(ppw.data)},
			scratch:    true,
		}
		e.run = func(ctx context.Context) ([]*tensor.Tensor, [][]float32, error) {
			outs, before := freshOuts([]int{sh.N, sh.K, sh.P(), sh.Q()})
			if packed {
				return outs, before, p.TryExecutePackedCtx(ctx, in, pdw, ppw, outs[0])
			}
			return outs, before, p.TryExecuteCtx(ctx, in, dwF, pwF, outs[0])
		}
		return e
	}},
	{"one-shot depthwise", func(t *testing.T, opt Options, _, nanInput bool) ladderExec {
		s := conv.Shape{N: 2, C: 6, H: 16, W: 16, K: 6, R: 3, S: 3, Str: 1, Pad: 1}
		in, filter := tensor.New(s.N, s.C, s.H, s.W), tensor.New(s.C, s.R, s.S)
		ladderInput(in, 71, nanInput)
		fillInts(filter, 72)
		e := ladderExec{want: [][]float32{dwOracle(s, in, filter, nil).Data}}
		e.run = func(ctx context.Context) ([]*tensor.Tensor, [][]float32, error) {
			out, err := TryDepthwiseConv2DCtx(ctx, s, in, filter, opt)
			return []*tensor.Tensor{out}, nil, err
		}
		return e
	}},
}

// ladderFault is one row of the table: what to arm, under which
// options and context, and the one outcome every consumer must show.
type ladderFault struct {
	name     string
	opt      Options // Threads is filled in by the table
	packed   bool    // run the packed-weights entry point
	nanInput bool
	point    string // faultinject point to arm ("" = none) at arg, or,
	arg      int
	operand  int // when >= 0, at element 1 of that packed operand
	ctx      func() (context.Context, context.CancelFunc)
	wantErr  []error // nil: a nil error, outputs == oracle
	fresh    bool    // on nil error every out.Data must be a new array
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
	budget := Options{FallbackBudget: 10 * time.Second}
	rows := []ladderFault{
		{name: "worker-panic", point: faultinject.WorkerPanic},
		{name: "worker-panic/packed", packed: true, point: faultinject.WorkerPanic},
		{name: "worker-stall/deadline", point: faultinject.WorkerStall, ctx: shortCtx, wantErr: deadline},
		{name: "worker-stall/fallback-budget", opt: budget, packed: true, point: faultinject.WorkerStall, ctx: shortCtx, fresh: true},
		{name: "scratch-overrun", point: faultinject.ScratchOverrun, wantErr: integrity},
		{name: "expired-context", ctx: expiredCtx, wantErr: deadline},
		{name: "expired-context/fallback-budget", opt: budget, ctx: expiredCtx, fresh: true},
		{name: "check-numerics/non-finite-input", opt: Options{CheckNumerics: true}, nanInput: true, wantErr: []error{ErrExecFault}},
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
// of the one governed execution path and demands the same typed outcome
// of each: nil with outputs == the oracle (published through fresh
// arrays after a deadline recompute), or the row's typed error — never
// a panic, whatever the drill's argument. A consumer with no packed
// operand (the one-shot depthwise driver) or no worker scratch (the
// depthwise grid) runs the weight-drill and scratch-overrun rows too:
// the drill has nothing to bite and the execution must be clean.
func TestGovernedLadder(t *testing.T) {
	captureLog(t)
	for _, c := range ladderConsumers {
		for _, f := range ladderFaults() {
			t.Run(c.name+"/"+f.name, func(t *testing.T) {
				defer faultinject.Reset()
				opt := f.opt
				opt.Threads = 4
				e := c.prepare(t, opt, f.packed, f.nanInput)
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
				outs, before, err := e.run(ctx)
				faultinject.Reset() // release a stalled worker
				waitNoLeakedWorkers(t)

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
				for i, out := range outs {
					for j, v := range out.Data {
						if v != e.want[i][j] {
							t.Fatalf("output %d element %d = %v, oracle %v", i, j, v, e.want[i][j])
						}
					}
					if f.fresh && before != nil && &out.Data[0] == &before[i][0] {
						t.Fatalf("output %d: deadline recompute published through the abandoned grid's array", i)
					}
				}
			})
		}
	}
}
