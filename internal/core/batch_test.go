package core

import (
	"context"
	"errors"
	"testing"

	"ndirect/internal/conv"
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

// batchOperands builds m requests of shape s (per-request batch dims
// given by perN) with distinct random contents, plus solo-executed
// expected outputs for each. ints selects integer-valued operands for
// tests that cross between the tiled path and the reference oracle.
func batchOperands(t *testing.T, s conv.Shape, perN []int, opts Options, nchw, ints bool) (ins, solos []*tensor.Tensor, filter *tensor.Tensor) {
	t.Helper()
	filter = s.NewFilter()
	if ints {
		fillInts(filter, 7)
	} else {
		filter.FillRandom(7)
	}
	for i, ni := range perN {
		si := s.WithBatch(ni)
		var in, out *tensor.Tensor
		if nchw {
			in = si.NewInput()
			out = si.NewOutput()
		} else {
			in = tensor.New(ni, si.H, si.W, si.C)
			out = tensor.New(ni, si.P(), si.Q(), si.K)
		}
		if ints {
			fillInts(in, int64(100+i))
		} else {
			in.FillRandom(int64(100 + i))
		}
		p := NewPlan(si, opts)
		var err error
		if nchw {
			err = p.TryExecute(in, filter, out)
		} else {
			err = p.TryExecuteNHWC(in, filter, out)
		}
		if err != nil {
			t.Fatalf("solo execute (request %d): %v", i, err)
		}
		ins = append(ins, in)
		solos = append(solos, out)
	}
	return ins, solos, filter
}

func newBatchOuts(s conv.Shape, perN []int, nchw bool) []*tensor.Tensor {
	var outs []*tensor.Tensor
	for _, ni := range perN {
		si := s.WithBatch(ni)
		if nchw {
			outs = append(outs, si.NewOutput())
		} else {
			outs = append(outs, tensor.New(ni, si.P(), si.Q(), si.K))
		}
	}
	return outs
}

func wantBitExact(t *testing.T, outs, solos []*tensor.Tensor, label string) {
	t.Helper()
	for i := range outs {
		for j, v := range outs[i].Data {
			if v != solos[i].Data[j] {
				t.Fatalf("%s: request %d element %d: batched %v != solo %v", label, i, j, v, solos[i].Data[j])
			}
		}
	}
}

func batchTotal(perN []int) int {
	total := 0
	for _, n := range perN {
		total += n
	}
	return total
}

// Batched execution must be bit-identical to solo execution of each
// request — for arbitrary float inputs, because the cache/register
// tile solvers are independent of N, so per-image loop and
// accumulation order are unchanged by coalescing. Covers the 3×3
// specialised kernel, the pointwise kernel, ragged per-request batch
// dims, unpacked and packed weights, NCHW and NHWC, multi-threaded
// grids, and the fused epilogue.
func TestBatchBitExactMatchesSolo(t *testing.T) {
	cases := []struct {
		name string
		s    conv.Shape
		perN []int
		opts Options
		nchw bool
	}{
		{"3x3-nchw", conv.Shape{N: 1, C: 8, H: 8, W: 8, K: 8, R: 3, S: 3, Str: 1, Pad: 1},
			[]int{1, 1, 1, 1}, Options{Threads: 1}, true},
		{"3x3-ragged", conv.Shape{N: 1, C: 8, H: 8, W: 8, K: 8, R: 3, S: 3, Str: 1, Pad: 1},
			[]int{1, 2, 1}, Options{Threads: 1}, true},
		{"1x1-nchw", conv.Shape{N: 1, C: 16, H: 7, W: 7, K: 8, R: 1, S: 1, Str: 1, Pad: 0},
			[]int{1, 1, 1}, Options{Threads: 1}, true},
		{"3x3-nhwc", conv.Shape{N: 1, C: 8, H: 8, W: 8, K: 8, R: 3, S: 3, Str: 1, Pad: 1},
			[]int{1, 1, 1, 1}, Options{Threads: 1}, false},
		{"3x3-threads", conv.Shape{N: 1, C: 8, H: 12, W: 12, K: 16, R: 3, S: 3, Str: 1, Pad: 1},
			[]int{1, 1, 1, 1}, Options{Threads: 4}, true},
		{"3x3-epilogue", conv.Shape{N: 1, C: 8, H: 8, W: 8, K: 8, R: 3, S: 3, Str: 1, Pad: 1},
			[]int{1, 1, 1, 1}, Options{Threads: 1, FusedEpilogue: testEpilogue(8, true, true, true)}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ins, solos, filter := batchOperands(t, tc.s, tc.perN, tc.opts, tc.nchw, false)
			bs := tc.s.WithBatch(batchTotal(tc.perN))
			bp := NewPlan(bs, tc.opts)

			outs := newBatchOuts(tc.s, tc.perN, tc.nchw)
			var err error
			if tc.nchw {
				err = bp.TryExecuteBatchCtx(context.Background(), ins, filter, outs)
			} else {
				err = bp.exec(context.Background(), execReq{batched: true, ins: ins, filter: filter, outs: outs, nhwc: true})
			}
			if err != nil {
				t.Fatalf("batched execute: %v", err)
			}
			wantBitExact(t, outs, solos, "unpacked")

			pf, err := bp.TransformFilter(filter)
			if err != nil {
				t.Fatalf("TransformFilter: %v", err)
			}
			outs = newBatchOuts(tc.s, tc.perN, tc.nchw)
			if tc.nchw {
				err = bp.TryExecuteBatchPackedCtx(context.Background(), ins, pf, outs)
			} else {
				err = bp.exec(context.Background(), execReq{batched: true, ins: ins, pf: pf, packed: true, outs: outs, nhwc: true})
			}
			if err != nil {
				t.Fatalf("batched packed execute: %v", err)
			}
			wantBitExact(t, outs, solos, "packed")
		})
	}
}

// Batch validation must reject mismatched request sets before any
// execution: wrong image total, empty sets, and per-request operand
// mismatches all fail typed with ErrBadOptions / conv sentinels.
func TestBatchValidation(t *testing.T) {
	s := conv.Shape{N: 1, C: 8, H: 8, W: 8, K: 8, R: 3, S: 3, Str: 1, Pad: 1}
	perN := []int{1, 1}
	ins, _, filter := batchOperands(t, s, perN, Options{Threads: 1}, true, true)
	outs := newBatchOuts(s, perN, true)

	bp3 := NewPlan(s.WithBatch(3), Options{Threads: 1})
	if err := bp3.TryExecuteBatchCtx(context.Background(), ins, filter, outs); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("image total mismatch must fail with ErrBadOptions, got %v", err)
	}
	bp2 := NewPlan(s.WithBatch(2), Options{Threads: 1})
	if err := bp2.TryExecuteBatchCtx(context.Background(), nil, filter, nil); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("empty batch must fail with ErrBadOptions, got %v", err)
	}
	if err := bp2.TryExecuteBatchCtx(context.Background(), ins, filter, outs[:1]); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("ins/outs length mismatch must fail with ErrBadOptions, got %v", err)
	}
	badIn := tensor.New(1, 4, 8, 8) // wrong channel count
	if err := bp2.TryExecuteBatchCtx(context.Background(), []*tensor.Tensor{ins[0], badIn}, filter, outs); !errors.Is(err, conv.ErrDimMismatch) {
		t.Fatalf("bad request operand must fail with ErrDimMismatch, got %v", err)
	}
}
