package core

import (
	"context"
	"fmt"

	"ndirect/internal/conv"
	"ndirect/internal/model"
	"ndirect/internal/parallel"
)

// INT16 nDirect (§3.3). Quantised inference convolves int16
// activations against int16 weights and accumulates in int32 — the
// ARM NEON smlal/smlal2 pattern, where a 128-bit register holds 8
// int16 lanes and widening multiply-accumulate fills two 4×int32
// accumulators. The register-tile solver therefore runs with an
// 8-lane geometry; packing, filter blocking and the loop nest follow
// the FP32 path.
//
// As in hardware, accumulation saturates nothing and can wrap for
// adversarial ranges: callers bound |x|·|w|·C·R·S < 2³¹ as quantised
// deployments do (the tests document the exact contract).

// int16Geometry is the 128-bit NEON register geometry for int16 data.
var int16Geometry = model.VectorGeometry{Lanes: 8, NumRegs: 32}

// TryConv2DInt16 convolves an int16 NCHW input with an int16 KCRS
// filter and returns the raw int32 NKPQ accumulators (requantisation
// is the caller's, as in quantised inference pipelines). Checked
// variant: validation failures return errors; a faulting worker is
// logged and the result recomputed with the ReferenceInt16 oracle.
func TryConv2DInt16(s conv.Shape, in, filter []int16, opt Options) ([]int32, error) {
	return TryConv2DInt16Ctx(context.Background(), s, in, filter, opt)
}

// TryConv2DInt16Ctx is the context-bounded form of TryConv2DInt16
// with the deadline semantics of Plan.TryExecuteCtx: on expiry the
// parallel row loop is abandoned and the error wraps
// conv.ErrDeadline.
func TryConv2DInt16Ctx(ctx context.Context, s conv.Shape, in, filter []int16, opt Options) ([]int32, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if opt.Threads > maxThreads {
		return nil, fmt.Errorf("%w: Threads=%d exceeds %d", ErrBadOptions, opt.Threads, maxThreads)
	}
	if want := s.N * s.C * s.H * s.W; len(in) != want {
		return nil, fmt.Errorf("%w: int16 input length %d, want %d", conv.ErrDimMismatch, len(in), want)
	}
	if want := s.K * s.C * s.R * s.S; len(filter) != want {
		return nil, fmt.Errorf("%w: int16 filter length %d, want %d", conv.ErrDimMismatch, len(filter), want)
	}
	threads := opt.Threads
	if threads <= 0 {
		threads = parallel.DefaultThreads()
	}
	rt := int16Geometry.SolveRegisterTile(s.S, s.Str)
	p, q := s.P(), s.Q()
	out := make([]int32, s.N*s.K*p*q)
	wIn := (rt.Vw-1)*s.Str + s.S
	kBlocks := (s.K + rt.Vk - 1) / rt.Vk

	// Channel tiling: keep the packed panel + one filter block within
	// a 32 KiB L1 budget of 2-byte elements.
	tc := max(1, (16<<10)/(s.R*wIn+2*rt.Vk*s.R*s.S))
	tc = min(tc, s.C)

	err := parallel.ForRangeCtx(ctx, s.N*p, threads, func(_ int, rows parallel.Range) {
		tf := make([]int16, kBlocks*rt.Vk*tc*s.R*s.S)
		buf := make([]int16, tc*s.R*wIn)
		acc := make([]int32, rt.Vw*rt.Vk)
		for row := rows.Lo; row < rows.Hi; row++ {
			n, oh := row/p, row%p
			for cIdx := 0; cIdx < s.C; cIdx += tc {
				tcEff := min(tc, s.C-cIdx)
				firstC := cIdx == 0
				transformFilterInt16(filter, tf, s, s.K, cIdx, tcEff, rt.Vk)
				for qt0 := 0; qt0 < q; qt0 += rt.Vw {
					vwEff := min(rt.Vw, q-qt0)
					packInt16(in, buf, s, n, oh, qt0, cIdx, tcEff, wIn)
					for kb := 0; kb < kBlocks; kb++ {
						clear(acc)
						kernelInt16(acc, buf, tf[kb*tcEff*s.R*s.S*rt.Vk:], tcEff, s.R, s.S, s.Str, vwEff, wIn, rt.Vk)
						storeInt16(acc, out, s, n, kb*rt.Vk, oh, qt0, vwEff, rt.Vk, firstC)
					}
				}
			}
		}
	})
	if err != nil {
		if derr := fallbackCtx(err); derr != nil {
			return nil, derr
		}
		Logf("core: int16 parallel path faulted on %v; recomputing on reference path: %v", s, err)
		if perr := parallel.Protect(func() { out = ReferenceInt16(s, in, filter) }); perr != nil {
			return nil, fmt.Errorf("%w: %v", ErrExecFault, perr)
		}
	}
	return out, nil
}

// Conv2DInt16 is the panicking wrapper over TryConv2DInt16.
func Conv2DInt16(s conv.Shape, in, filter []int16, opt Options) []int32 {
	out, err := TryConv2DInt16(s, in, filter, opt)
	if err != nil {
		panic(err)
	}
	return out
}

func transformFilterInt16(filter, dst []int16, s conv.Shape, tk, cIdx, tc, vk int) {
	rs := s.R * s.S
	kBlocks := (tk + vk - 1) / vk
	for kb := 0; kb < kBlocks; kb++ {
		for cv := 0; cv < tc; cv++ {
			srcC := (cIdx + cv) * rs
			dstBase := ((kb*tc + cv) * rs) * vk
			for x := 0; x < rs; x++ {
				d := dstBase + x*vk
				for lane := 0; lane < vk; lane++ {
					kk := kb*vk + lane
					if kk < tk {
						dst[d+lane] = filter[kk*s.C*rs+srcC+x]
					} else {
						dst[d+lane] = 0
					}
				}
			}
		}
	}
}

func packInt16(in, buf []int16, s conv.Shape, n, oh, qt0, cIdx, tc, wIn int) {
	ihBase := oh*s.Str - s.Pad
	iwBase := qt0*s.Str - s.Pad
	for cv := 0; cv < tc; cv++ {
		chanBase := ((n*s.C + cIdx + cv) * s.H) * s.W
		for r := 0; r < s.R; r++ {
			dst := buf[(cv*s.R+r)*wIn : (cv*s.R+r+1)*wIn]
			ih := ihBase + r
			if ih < 0 || ih >= s.H {
				clear(dst)
				continue
			}
			src := in[chanBase+ih*s.W : chanBase+(ih+1)*s.W]
			x := 0
			for ; x < len(dst) && iwBase+x < 0; x++ {
				dst[x] = 0
			}
			end := len(dst)
			if iwBase+end > s.W {
				end = s.W - iwBase
			}
			if end > x {
				copy(dst[x:end], src[iwBase+x:iwBase+end])
				x = end
			}
			for ; x < len(dst); x++ {
				dst[x] = 0
			}
		}
	}
}

// kernelInt16 is the widening multiply-accumulate micro-kernel:
// int16 × int16 products accumulate into the int32 register tile.
func kernelInt16(acc []int32, buf, tf []int16, tc, r, ss, str, vwEff, wIn, vk int) {
	for cv := 0; cv < tc; cv++ {
		for rr := 0; rr < r; rr++ {
			row := buf[(cv*r+rr)*wIn : (cv*r+rr)*wIn+wIn]
			fb := (cv*r + rr) * ss * vk
			for sv := 0; sv < ss; sv++ {
				fs := tf[fb+sv*vk : fb+(sv+1)*vk]
				x := sv
				for ow := 0; ow < vwEff; ow++ {
					v := int32(row[x])
					base := ow * vk
					for lane := 0; lane < vk; lane++ {
						acc[base+lane] += v * int32(fs[lane])
					}
					x += str
				}
			}
		}
	}
}

func storeInt16(acc []int32, out []int32, s conv.Shape, n, kBase, oh, qt0, vwEff, vk int, firstC bool) {
	p, q := s.P(), s.Q()
	kEnd := min(kBase+vk, s.K)
	for k := kBase; k < kEnd; k++ {
		lane := k - kBase
		rowB := ((n*s.K+k)*p + oh) * q
		for ow := 0; ow < vwEff; ow++ {
			v := acc[ow*vk+lane]
			if firstC {
				out[rowB+qt0+ow] = v
			} else {
				out[rowB+qt0+ow] += v
			}
		}
	}
}

// ReferenceInt16 is the naive int32-accumulating oracle (Algorithm 1
// on quantised data); bit-identical to Conv2DInt16 because integer
// addition is associative.
func ReferenceInt16(s conv.Shape, in, filter []int16) []int32 {
	p, q := s.P(), s.Q()
	out := make([]int32, s.N*s.K*p*q)
	for n := 0; n < s.N; n++ {
		for k := 0; k < s.K; k++ {
			for oj := 0; oj < p; oj++ {
				for oi := 0; oi < q; oi++ {
					var acc int32
					for c := 0; c < s.C; c++ {
						for r := 0; r < s.R; r++ {
							ih := oj*s.Str - s.Pad + r
							if ih < 0 || ih >= s.H {
								continue
							}
							for ss := 0; ss < s.S; ss++ {
								iw := oi*s.Str - s.Pad + ss
								if iw < 0 || iw >= s.W {
									continue
								}
								acc += int32(in[((n*s.C+c)*s.H+ih)*s.W+iw]) *
									int32(filter[((k*s.C+c)*s.R+r)*s.S+ss])
							}
						}
					}
					out[((n*s.K+k)*p+oj)*q+oi] = acc
				}
			}
		}
	}
	return out
}
