package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"ndirect/internal/conv"
	"ndirect/internal/faultinject"
	"ndirect/internal/tensor"
)

// Batched execution: one plan run over a coalesced batch of requests.
//
// The paper's thread grid parallelises over the batch axis (the PT_n
// dimension of §6), which assumes the batch arrives as one tensor. A
// serving process instead holds k independent requests of the same
// shape, each with its own input and its own output buffer. These
// entry points execute a plan built for N = Σ n_i over per-request
// tensors directly: the worker's L1 loop resolves image n to a slice
// of the owning request's buffers (see planRun.imgIn), so the batch is
// convolved in one grid — one admission, one scratch set, one join —
// and every caller's output lands in its own buffer with zero gather
// or scatter copies. Tile and accumulation order per image are
// identical to a solo run, so results are bit-identical to executing
// each request alone.

// TryExecuteBatch executes the plan over a batch of NCHW requests.
// ins[i] and outs[i] are request i's input and output tensors; batch
// dimensions may differ per request but must sum to the plan's N.
func (p *Plan) TryExecuteBatch(ins []*tensor.Tensor, filter *tensor.Tensor, outs []*tensor.Tensor) error {
	return p.TryExecuteBatchCtx(context.Background(), ins, filter, outs)
}

// TryExecuteBatchCtx is TryExecuteBatch bounded by ctx; deadline
// semantics follow TryExecuteCtx, with the reference fallback
// recomputing (and republishing through fresh arrays) per request.
func (p *Plan) TryExecuteBatchCtx(ctx context.Context, ins []*tensor.Tensor, filter *tensor.Tensor, outs []*tensor.Tensor) error {
	return p.execBatch(ctx, ins, filter, nil, outs, true)
}

// TryExecuteBatchPacked is TryExecuteBatch with a pre-transformed
// filter. One PackedFilter serves a layer at every batch size
// (CompatibleWith ignores N), so the same packed weights back both the
// solo and the coalesced path.
func (p *Plan) TryExecuteBatchPacked(ins []*tensor.Tensor, pf *PackedFilter, outs []*tensor.Tensor) error {
	return p.TryExecuteBatchPackedCtx(context.Background(), ins, pf, outs)
}

// TryExecuteBatchPackedCtx is the context-bounded form of
// TryExecuteBatchPacked.
func (p *Plan) TryExecuteBatchPackedCtx(ctx context.Context, ins []*tensor.Tensor, pf *PackedFilter, outs []*tensor.Tensor) error {
	if err := pf.validateFor(p); err != nil {
		return err
	}
	return p.execBatch(ctx, ins, pf.src, pf, outs, true)
}

// TryExecuteBatchNHWCCtx is the NHWC-activation form of
// TryExecuteBatchCtx (per-request NHWC inputs, NPQK outputs).
func (p *Plan) TryExecuteBatchNHWCCtx(ctx context.Context, ins []*tensor.Tensor, filter *tensor.Tensor, outs []*tensor.Tensor) error {
	return p.execBatch(ctx, ins, filter, nil, outs, false)
}

// TryExecuteBatchPackedNHWCCtx is the NHWC form of
// TryExecuteBatchPackedCtx.
func (p *Plan) TryExecuteBatchPackedNHWCCtx(ctx context.Context, ins []*tensor.Tensor, pf *PackedFilter, outs []*tensor.Tensor) error {
	if err := pf.validateFor(p); err != nil {
		return err
	}
	return p.execBatch(ctx, ins, pf.src, pf, outs, false)
}

// validateBatch checks every request's operands against its slice of
// the plan's shape before any work is admitted, so one malformed
// request fails the call upfront instead of poisoning a running grid.
func (p *Plan) validateBatch(ins []*tensor.Tensor, kcrs *tensor.Tensor, outs []*tensor.Tensor, nchw bool) error {
	if len(ins) == 0 || len(ins) != len(outs) {
		return fmt.Errorf("%w: batch needs matching non-empty request slices (%d inputs, %d outputs)",
			ErrBadOptions, len(ins), len(outs))
	}
	s := p.Shape
	total := 0
	for i := range ins {
		if ins[i] == nil || outs[i] == nil || len(ins[i].Dims) != 4 {
			return fmt.Errorf("%w: batch request %d: nil or non-4D tensor", ErrBadOptions, i)
		}
		ni := ins[i].Dims[0]
		if ni <= 0 {
			return fmt.Errorf("%w: batch request %d: batch dimension %d", ErrBadOptions, i, ni)
		}
		si := s.WithBatch(ni)
		if nchw {
			if err := conv.ValidateOperands(si, ins[i], kcrs); err != nil {
				return fmt.Errorf("batch request %d: %w", i, err)
			}
			if err := conv.ValidateOutput(si, outs[i]); err != nil {
				return fmt.Errorf("batch request %d: %w", i, err)
			}
		} else {
			if err := conv.ValidateTensor("input", ins[i], ni, si.H, si.W, si.C); err != nil {
				return fmt.Errorf("batch request %d: %w", i, err)
			}
			if err := conv.ValidateTensor("filter", kcrs, si.K, si.C, si.R, si.S); err != nil {
				return fmt.Errorf("batch request %d: %w", i, err)
			}
			if err := conv.ValidateTensor("output", outs[i], ni, si.P(), si.Q(), si.K); err != nil {
				return fmt.Errorf("batch request %d: %w", i, err)
			}
		}
		total += ni
	}
	if total != s.N {
		return fmt.Errorf("%w: batch covers %d images, plan expects N=%d", ErrBadOptions, total, s.N)
	}
	return nil
}

// execBatch is execChecked's batched counterpart: same fault and
// deadline discipline, per-request fallbacks. Accumulation is not
// supported over a coalesced batch (no caller ever owns a partial
// sum of another caller's work), so accumulate is always false.
func (p *Plan) execBatch(ctx context.Context, ins []*tensor.Tensor, filter *tensor.Tensor, pf *PackedFilter, outs []*tensor.Tensor, nchw bool) error {
	if err := p.validateBatch(ins, filter, outs, nchw); err != nil {
		return err
	}
	if err := p.checkResidual(false); err != nil {
		return err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Done() != nil && ctx.Err() != nil {
		if p.opts.FallbackBudget <= 0 {
			return deadlineErr(ctx)
		}
		return p.batchDeadlineFallback(ctx, ins, filter, outs, nchw, deadlineErr(ctx))
	}

	s := p.Shape
	cin := s.C * s.H * s.W
	cout := s.K * s.P() * s.Q()
	imgIn := make([][]float32, 0, s.N)
	imgOut := make([][]float32, 0, s.N)
	for i := range ins {
		for j := 0; j < ins[i].Dims[0]; j++ {
			imgIn = append(imgIn, ins[i].Data[j*cin:(j+1)*cin])
			imgOut = append(imgOut, outs[i].Data[j*cout:(j+1)*cout])
		}
	}

	injecting := faultinject.Enabled()
	var pre []float32
	if pf != nil {
		pre = pf.data
		forceVerify := false
		if injecting {
			if idx, ok := faultinject.Take(faultinject.WeightBitflip); ok && len(pre) > 0 {
				if idx < 0 || idx >= len(pre) {
					idx = 0
				}
				// Finite mantissa flip on a run-private copy, exactly as
				// execChecked does: only the checksum can catch it.
				corrupted := append([]float32(nil), pre...)
				corrupted[idx] = math.Float32frombits(math.Float32bits(corrupted[idx]) ^ 0x00400000)
				pre = corrupted
				forceVerify = true
			}
		}
		if forceVerify || pf.shouldVerify() {
			if verr := pf.verifyConsumed(pre); verr != nil {
				return verr
			}
		}
		if injecting {
			if idx, ok := faultinject.Take(faultinject.PackedCorrupt); ok && len(pre) > 0 {
				if idx < 0 || idx >= len(pre) {
					idx = 0
				}
				// Poison a run-private copy, exactly as execChecked does:
				// the shared PackedFilter stays clean for other runs.
				corrupted := append([]float32(nil), pre...)
				corrupted[idx] = float32(math.NaN())
				pre = corrupted
			}
		}
	}
	err := p.run(ctx, nil, filter.Data, pre, nil, nil, imgIn, imgOut, nchw, false)
	if err == nil && injecting {
		if idx, ok := faultinject.Take(faultinject.NaNPoison); ok {
			img := imgOut[idx%len(imgOut)]
			img[idx%len(img)] = float32(math.NaN())
		}
	}
	if err == nil && (injecting || p.opts.CheckNumerics) {
		for i := range outs {
			if j, bad := scanNonFinite(outs[i].Data); bad {
				err = fmt.Errorf("%w: non-finite output at request %d element %d", ErrExecFault, i, j)
				break
			}
		}
	}
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrIntegrity) {
		// Detected corruption passes through typed (see execChecked):
		// the owning layer quarantines or re-packs before retrying.
		return err
	}
	if errors.Is(err, conv.ErrDeadline) {
		if p.opts.FallbackBudget <= 0 {
			return err
		}
		return p.batchDeadlineFallback(ctx, ins, filter, outs, nchw, err)
	}
	// Fault path: the grid is fully joined, so each request's output
	// can be recomputed in place from the oracle.
	Logf("core: batched path faulted on %v (%d requests); recomputing on reference path: %v",
		p.Shape, len(ins), err)
	for i := range ins {
		si := s.WithBatch(ins[i].Dims[0])
		ref := conv.Reference(si, p.refInput(ins[i], nchw), filter)
		p.applyFallback(ref, outs[i].Data, nil, nchw, false, nil)
	}
	if p.opts.CheckNumerics {
		for i := range outs {
			if j, bad := scanNonFinite(outs[i].Data); bad {
				return fmt.Errorf("%w: non-finite output at request %d element %d after reference fallback",
					ErrExecFault, i, j)
			}
		}
	}
	return nil
}

// batchDeadlineFallback spends Options.FallbackBudget recomputing each
// request on the reference path after a blown deadline. Per-request
// results publish through fresh arrays swapped into outs[i].Data (the
// abandoned grid's stragglers may still write the original buffers);
// an exhausted budget reports origErr, leaving every remaining output
// unpublished.
func (p *Plan) batchDeadlineFallback(ctx context.Context, ins []*tensor.Tensor, filter *tensor.Tensor, outs []*tensor.Tensor, nchw bool, origErr error) error {
	fctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), p.opts.FallbackBudget)
	defer cancel()
	Logf("core: batched path abandoned on %v (%d requests); recomputing on reference path within %v: %v",
		p.Shape, len(ins), p.opts.FallbackBudget, origErr)
	s := p.Shape
	for i := range ins {
		si := s.WithBatch(ins[i].Dims[0])
		ref, ferr := conv.ReferenceCtx(fctx, si, p.refInput(ins[i], nchw), filter)
		if ferr != nil {
			return origErr
		}
		fresh := make([]float32, len(outs[i].Data))
		p.applyFallback(ref, fresh, nil, nchw, false, nil)
		outs[i].Data = fresh
	}
	if p.opts.CheckNumerics {
		for i := range outs {
			if j, bad := scanNonFinite(outs[i].Data); bad {
				return fmt.Errorf("%w: non-finite output at request %d element %d after reference fallback",
					ErrExecFault, i, j)
			}
		}
	}
	return nil
}
