package core

import (
	"context"
	"fmt"

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

// TryExecuteBatchCtx executes the plan over a batch of NCHW requests,
// bounded by ctx. ins[i] and outs[i] are request i's input and output
// tensors; batch dimensions may differ per request but must sum to the
// plan's N. Fault and deadline semantics follow TryExecuteCtx, with the
// reference fallback recomputing (and, after a deadline, republishing
// through fresh arrays) per request. Accumulation and the residual
// epilogue are not available over a coalesced batch: no caller ever
// owns a partial sum of another caller's work.
func (p *Plan) TryExecuteBatchCtx(ctx context.Context, ins []*tensor.Tensor, filter *tensor.Tensor, outs []*tensor.Tensor) error {
	return p.exec(ctx, execReq{batched: true, ins: ins, filter: filter, outs: outs})
}

// TryExecuteBatchPackedCtx is TryExecuteBatchCtx with a pre-transformed
// filter. One PackedFilter serves a layer at every batch size
// (CompatibleWith ignores N), so the same packed weights back both the
// solo and the coalesced path.
func (p *Plan) TryExecuteBatchPackedCtx(ctx context.Context, ins []*tensor.Tensor, pf *PackedFilter, outs []*tensor.Tensor) error {
	return p.exec(ctx, execReq{batched: true, ins: ins, pf: pf, packed: true, outs: outs})
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
		if err := validateRequest(s.WithBatch(ni), ins[i], kcrs, outs[i], nchw); err != nil {
			return fmt.Errorf("batch request %d: %w", i, err)
		}
		total += ni
	}
	if total != s.N {
		return fmt.Errorf("%w: batch covers %d images, plan expects N=%d", ErrBadOptions, total, s.N)
	}
	return nil
}
