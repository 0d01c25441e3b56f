package core

import (
	"fmt"

	"ndirect/internal/conv"
	"ndirect/internal/tensor"
)

// transformFilter converts one cache tile of the KCRS filter into the
// vector-blocked layout the main micro-kernel consumes:
//
//	F[kt:kt+tk][ct:ct+tc][R][S]  →  TF[⌈tk/Vk⌉][tc][R][S][Vk]
//
// This is line 5 of Algorithm 2: the T_k·T_c·R·S → ⌈T_k/V_k⌉·T_c·R·S·V_k
// on-the-fly transform that lets nDirect keep the framework's KCRS
// weights while the kernel streams unit-stride vector loads. Lanes
// past K are zero so edge tiles compute harmlessly into padding.
//
// dst must have room for ceil(tk/vk)*tc*R*S*vk floats.
func transformFilter(filter []float32, dst []float32, k, c, r, s int, kt, tk, ct, tc, vk int) {
	kBlocks := (tk + vk - 1) / vk
	rs := r * s
	for kb := 0; kb < kBlocks; kb++ {
		for cv := 0; cv < tc; cv++ {
			srcC := ((ct + cv) * rs)
			dstBase := ((kb*tc + cv) * rs) * vk
			for x := 0; x < rs; x++ {
				d := dstBase + x*vk
				for lane := 0; lane < vk; lane++ {
					kk := kt + kb*vk + lane
					if kk < kt+tk {
						dst[d+lane] = filter[(kk*c*rs)+srcC+x]
					} else {
						dst[d+lane] = 0
					}
				}
			}
		}
	}
}

// tfIndex returns the offset of the (kb, cv, r, s) filter vector in
// the transformed buffer (the lane dimension is innermost).
func tfIndex(kb, cv, rr, ss, r, s, tc, vk int) int {
	return (((kb*tc+cv)*r+rr)*s + ss) * vk
}

// PackedFilter is a whole-filter pre-transformation of the KCRS
// weights into the vector-blocked layout the micro-kernel consumes:
//
//	F[K][C][R][S]  →  TF[⌈K/Vk⌉][C][R][S][Vk]
//
// It is the persistent-weight alternative to the on-the-fly transform
// of Algorithm 2 line 5 — the trade-off LIBXSMM makes with its blocked
// KCRSck weights, and the one ablation 5
// (BenchmarkAblationFilterTransform) measures. Because the per-tile
// transform's K blocking is V_k-aligned (T_k is solved as a multiple
// of V_k and worker ranges split on V_k block boundaries), a cache
// tile (kt, tk, ct, tc) of the whole-filter layout is addressable in
// place: block kt/Vk+kb at channel offset ct is exactly the
// [tc][R][S][Vk] slab the kernel reads, so Execute consumes it with
// zero repacking and bit-identical results.
//
// A PackedFilter is immutable after construction and safe for
// concurrent use by any number of Execute calls. Checksum, sampled
// verification, the retained KCRS source and Release — the residency
// manager's eviction flag, after which new executions fail typed with
// ErrWeightsReleased — are the shared packed-weights core's
// (packedCore); this type adds only the geometry it was packed for.
type PackedFilter struct {
	packedCore     // data: [⌈K/Vk⌉][C][R][S][Vk], zero lanes past K
	k, c, r, s, vk int
}

// TransformFilter pre-transforms the KCRS filter for this plan's
// register blocking. The result is reusable across every Execute call
// of any plan with the same filter geometry and V_k (see
// PackedFilter.CompatibleWith) — build it once per layer at load time
// and the per-call transform stage disappears (its time was counted in
// Stats.TransformSec; packed runs report zero there).
func (p *Plan) TransformFilter(filter *tensor.Tensor) (*PackedFilter, error) {
	s := p.Shape
	if err := conv.ValidateTensor("filter", filter, s.K, s.C, s.R, s.S); err != nil {
		return nil, err
	}
	vk := p.RT.Vk
	kBlocks := (s.K + vk - 1) / vk
	data := make([]float32, kBlocks*s.C*s.R*s.S*vk)
	// The whole filter is one "tile": kt=0, tk=K, ct=0, tc=C yields the
	// [⌈K/Vk⌉][C][R][S][Vk] layout directly, zero-filling the lanes of
	// the ragged last block exactly as the per-tile transform does.
	transformFilter(filter.Data, data, s.K, s.C, s.R, s.S, 0, s.K, 0, s.C, vk)
	pf := &PackedFilter{k: s.K, c: s.C, r: s.R, s: s.S, vk: vk}
	pf.seal(fmt.Sprintf("packed filter K%d C%d R%d S%d Vk%d", s.K, s.C, s.R, s.S, vk), filter, data)
	return pf, nil
}

// CompatibleWith reports whether the packed filter can serve the
// plan: same filter geometry (K, C, R, S) and the same V_k blocking.
// Batch size is irrelevant — one PackedFilter serves a layer at every
// batch size.
func (pf *PackedFilter) CompatibleWith(p *Plan) bool {
	s := p.Shape
	return pf.k == s.K && pf.c == s.C && pf.r == s.R && pf.s == s.S && pf.vk == p.RT.Vk
}

// validateFor checks the packed filter against the plan, wrapping
// ErrBadOptions on mismatch (the packed geometry is an execution
// configuration, not an operand).
func (pf *PackedFilter) validateFor(p *Plan) error {
	if pf == nil {
		return fmt.Errorf("%w: nil PackedFilter", ErrBadOptions)
	}
	if err := pf.usable(); err != nil {
		return err
	}
	if !pf.CompatibleWith(p) {
		s := p.Shape
		return fmt.Errorf("%w: %s does not match plan K%d C%d R%d S%d Vk%d",
			ErrBadOptions, pf.what, s.K, s.C, s.R, s.S, p.RT.Vk)
	}
	return nil
}
