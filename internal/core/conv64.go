package core

import (
	"context"
	"fmt"

	"ndirect/internal/conv"
	"ndirect/internal/model"
	"ndirect/internal/parallel"
	"ndirect/internal/simd"
)

// FP64 nDirect (§3.3: "our techniques can be applied to other data
// types, including FP16, FP64 and INT16 ... by adjusting the
// parameters of the analytical models"). The 128-bit registers hold
// two float64 lanes, so the Equation 3–4 solver runs with the FP64
// vector geometry and the micro-kernel uses Vec2D accumulators; the
// loop structure, on-the-fly filter transform and packing follow the
// FP32 path.

// TryConv2D64 convolves a float64 NCHW input with a KCRS filter,
// returning a freshly allocated NKPQ output. Threads follow
// opt.Threads; the remaining Options knobs (tiles, epilogues) apply
// only to the FP32 path. Checked variant: validation failures return
// errors; a faulting worker is logged and the result recomputed with
// the Reference64 oracle.
func TryConv2D64(s conv.Shape, in, filter []float64, opt Options) ([]float64, error) {
	return TryConv2D64Ctx(context.Background(), s, in, filter, opt)
}

// TryConv2D64Ctx is the context-bounded form of TryConv2D64 with the
// deadline semantics of Plan.TryExecuteCtx: on expiry the parallel
// row loop is abandoned and the error wraps conv.ErrDeadline.
func TryConv2D64Ctx(ctx context.Context, s conv.Shape, in, filter []float64, opt Options) ([]float64, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if opt.Threads > maxThreads {
		return nil, fmt.Errorf("%w: Threads=%d exceeds %d", ErrBadOptions, opt.Threads, maxThreads)
	}
	if want := s.N * s.C * s.H * s.W; len(in) != want {
		return nil, fmt.Errorf("%w: fp64 input length %d, want %d", conv.ErrDimMismatch, len(in), want)
	}
	if want := s.K * s.C * s.R * s.S; len(filter) != want {
		return nil, fmt.Errorf("%w: fp64 filter length %d, want %d", conv.ErrDimMismatch, len(filter), want)
	}
	threads := opt.Threads
	if threads <= 0 {
		threads = parallel.DefaultThreads()
	}
	rt := model.NEONFP64.SolveRegisterTile(s.S, s.Str)
	plat := genericPlatform
	if opt.Platform != nil {
		plat = *opt.Platform
	}
	// Equation 1–2 with 8-byte elements: halve the float capacity.
	halved := plat
	halved.L1.SizeBytes /= 2
	halved.L2.SizeBytes /= 2
	ct := model.SolveCacheTiles(halved, s, rt)

	p, q := s.P(), s.Q()
	out := make([]float64, s.N*s.K*p*q)
	wIn := (rt.Vw-1)*s.Str + s.S
	kBlocks := (s.K + rt.Vk - 1) / rt.Vk

	// Parallelise over (n, output-row) pairs: every worker owns whole
	// output rows, so no two workers share an accumulation target.
	err := parallel.ForRangeCtx(ctx, s.N*p, threads, func(_ int, rows parallel.Range) {
		tf := make([]float64, kBlocks*rt.Vk*ct.Tc*s.R*s.S)
		buf := make([]float64, ct.Tc*s.R*wIn)
		acc := make([]simd.Vec2D, rt.Vw*rt.Vk/simd.WidthF64)
		for row := rows.Lo; row < rows.Hi; row++ {
			n, oh := row/p, row%p
			for cIdx := 0; cIdx < s.C; cIdx += ct.Tc {
				tcEff := min(ct.Tc, s.C-cIdx)
				firstC := cIdx == 0
				transformFilter64(filter, tf, s, 0, s.K, cIdx, tcEff, rt.Vk)
				for qt0 := 0; qt0 < q; qt0 += rt.Vw {
					vwEff := min(rt.Vw, q-qt0)
					pack64(in, buf, s, n, oh, qt0, cIdx, tcEff, wIn)
					for kb := 0; kb < kBlocks; kb++ {
						clear(acc)
						kernel64(acc, buf, tf[kb*tcEff*s.R*s.S*rt.Vk:], tcEff, s.R, s.S, s.Str, vwEff, wIn, rt.Vk)
						store64(acc, out, s, n, kb*rt.Vk, oh, qt0, vwEff, rt.Vk, firstC)
					}
				}
			}
		}
	})
	if err != nil {
		if derr := fallbackCtx(err); derr != nil {
			return nil, derr
		}
		Logf("core: fp64 parallel path faulted on %v; recomputing on reference path: %v", s, err)
		if perr := parallel.Protect(func() { out = Reference64(s, in, filter) }); perr != nil {
			return nil, fmt.Errorf("%w: %v", ErrExecFault, perr)
		}
	}
	return out, nil
}

// Conv2D64 is the panicking wrapper over TryConv2D64.
func Conv2D64(s conv.Shape, in, filter []float64, opt Options) []float64 {
	out, err := TryConv2D64(s, in, filter, opt)
	if err != nil {
		panic(err)
	}
	return out
}

// transformFilter64 is the FP64 filter blocking KCRS →
// ⌈K/Vk⌉·tc·R·S·Vk for the channel tile [ct, ct+tc).
func transformFilter64(filter, dst []float64, s conv.Shape, kt, tk, cIdx, tc, vk int) {
	rs := s.R * s.S
	kBlocks := (tk + vk - 1) / vk
	for kb := 0; kb < kBlocks; kb++ {
		for cv := 0; cv < tc; cv++ {
			srcC := (cIdx + cv) * rs
			dstBase := ((kb*tc + cv) * rs) * vk
			for x := 0; x < rs; x++ {
				d := dstBase + x*vk
				for lane := 0; lane < vk; lane++ {
					kk := kt + kb*vk + lane
					if kk < kt+tk {
						dst[d+lane] = filter[kk*s.C*rs+srcC+x]
					} else {
						dst[d+lane] = 0
					}
				}
			}
		}
	}
}

// pack64 gathers the FP64 input micro-panel with zero halos.
func pack64(in, buf []float64, s conv.Shape, n, oh, qt0, cIdx, tc, wIn int) {
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

// kernel64 is the FP64 outer-product micro-kernel (Vec2D lanes).
func kernel64(acc []simd.Vec2D, buf, tf []float64, tc, r, ss, str, vwEff, wIn, vk int) {
	jn := vk / simd.WidthF64
	var fregs [32]simd.Vec2D
	for cv := 0; cv < tc; cv++ {
		for rr := 0; rr < r; rr++ {
			row := buf[(cv*r+rr)*wIn : (cv*r+rr)*wIn+wIn]
			fb := (cv*r + rr) * ss * vk
			for sv := 0; sv < ss; sv++ {
				fs := tf[fb+sv*vk : fb+(sv+1)*vk]
				for j := 0; j < jn; j++ {
					fregs[j] = simd.Load2D(fs[j*simd.WidthF64:])
				}
				x := sv
				for ow := 0; ow < vwEff; ow++ {
					v := row[x]
					base := ow * jn
					for j := 0; j < jn; j++ {
						acc[base+j] = acc[base+j].FMAScalar(fregs[j], v)
					}
					x += str
				}
			}
		}
	}
}

// store64 writes the register tile into the NKPQ output, assigning on
// the first channel tile and accumulating afterwards.
func store64(acc []simd.Vec2D, out []float64, s conv.Shape, n, kBase, oh, qt0, vwEff, vk int, firstC bool) {
	p, q := s.P(), s.Q()
	jn := vk / simd.WidthF64
	kEnd := min(kBase+vk, s.K)
	for k := kBase; k < kEnd; k++ {
		j, lane := (k-kBase)/simd.WidthF64, (k-kBase)%simd.WidthF64
		rowB := ((n*s.K+k)*p + oh) * q
		for ow := 0; ow < vwEff; ow++ {
			v := acc[ow*jn+j].Lane(lane)
			if firstC {
				out[rowB+qt0+ow] = v
			} else {
				out[rowB+qt0+ow] += v
			}
		}
	}
}

// Reference64 is the float64 naive oracle (Algorithm 1).
func Reference64(s conv.Shape, in, filter []float64) []float64 {
	p, q := s.P(), s.Q()
	out := make([]float64, s.N*s.K*p*q)
	for n := 0; n < s.N; n++ {
		for k := 0; k < s.K; k++ {
			for oj := 0; oj < p; oj++ {
				for oi := 0; oi < q; oi++ {
					var acc float64
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
								acc += in[((n*s.C+c)*s.H+ih)*s.W+iw] *
									filter[((k*s.C+c)*s.R+r)*s.S+ss]
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
