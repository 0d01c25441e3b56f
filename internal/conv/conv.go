// Package conv defines the convolution problem in the paper's notation
// (Table 1), supplies the naive reference implementation (Algorithm 1)
// that every optimised algorithm is validated against, and carries the
// evaluation workloads of Table 4.
package conv

import (
	"fmt"

	"ndirect/internal/tensor"
)

// Shape describes one convolution operator using the paper's notation
// (Table 1): input I[N][C][H][W], filter F[K][C][R][S], output
// O[N][K][P][Q], with stride str and symmetric zero padding Pad.
//
// The paper's algorithm listings omit padding for clarity; the
// evaluation layers (ResNet/VGG) all use the standard "same"-style
// padding recorded in the workload table, so the implementation
// supports it throughout.
type Shape struct {
	N   int // batch size
	C   int // input channels
	H   int // input height
	W   int // input width
	K   int // output channels
	R   int // kernel height
	S   int // kernel width
	Str int // stride (same in both spatial dimensions)
	Pad int // symmetric zero padding (same on all four edges)
}

// P returns the output height: (H + 2·Pad − R)/Str + 1.
func (s Shape) P() int { return (s.H+2*s.Pad-s.R)/s.Str + 1 }

// Q returns the output width: (W + 2·Pad − S)/Str + 1.
func (s Shape) Q() int { return (s.W+2*s.Pad-s.S)/s.Str + 1 }

// Valid reports whether the shape describes a realisable convolution;
// it is Validate() == nil for callers that only need the predicate.
func (s Shape) Valid() bool { return s.Validate() == nil }

// FLOPs returns the number of floating point operations of the
// convolution (2 per multiply-accumulate), the quantity all GFLOPS
// numbers in the paper are computed from.
func (s Shape) FLOPs() int64 {
	return 2 * int64(s.N) * int64(s.K) * int64(s.P()) * int64(s.Q()) *
		int64(s.C) * int64(s.R) * int64(s.S)
}

// InputBytes returns the FP32 size of the input tensor.
func (s Shape) InputBytes() int64 { return 4 * int64(s.N) * int64(s.C) * int64(s.H) * int64(s.W) }

// FilterBytes returns the FP32 size of the filter tensor.
func (s Shape) FilterBytes() int64 { return 4 * int64(s.K) * int64(s.C) * int64(s.R) * int64(s.S) }

// OutputBytes returns the FP32 size of the output tensor.
func (s Shape) OutputBytes() int64 {
	return 4 * int64(s.N) * int64(s.K) * int64(s.P()) * int64(s.Q())
}

// ArithmeticIntensity returns FLOPs per byte touched once (input +
// filter + output), the roofline x-coordinate of the layer.
func (s Shape) ArithmeticIntensity() float64 {
	return float64(s.FLOPs()) / float64(s.InputBytes()+s.FilterBytes()+s.OutputBytes())
}

// WithBatch returns a copy of the shape with batch size n — the
// evaluation sets N to the core count of each platform (§7.2).
func (s Shape) WithBatch(n int) Shape {
	s.N = n
	return s
}

func (s Shape) String() string {
	return fmt.Sprintf("N%d C%d H%d W%d K%d R%d S%d str%d pad%d -> P%d Q%d",
		s.N, s.C, s.H, s.W, s.K, s.R, s.S, s.Str, s.Pad, s.P(), s.Q())
}

// NewInput allocates the NCHW input tensor for the shape.
func (s Shape) NewInput() *tensor.Tensor { return tensor.New(s.N, s.C, s.H, s.W) }

// NewFilter allocates the KCRS filter tensor for the shape.
func (s Shape) NewFilter() *tensor.Tensor { return tensor.New(s.K, s.C, s.R, s.S) }

// NewOutput allocates the NCHW (i.e. NKPQ) output tensor.
func (s Shape) NewOutput() *tensor.Tensor { return tensor.New(s.N, s.K, s.P(), s.Q()) }

// Reference computes the convolution with the seven-loop naive
// algorithm of the paper's Algorithm 1, extended with zero padding.
// It is the correctness oracle for every optimised implementation in
// this repository. in is NCHW, filter is KCRS; the NKPQ result is
// freshly allocated.
func Reference(s Shape, in, filter *tensor.Tensor) *tensor.Tensor {
	checkOperands(s, in, filter)
	out := s.NewOutput()
	p, q := s.P(), s.Q()
	for n := 0; n < s.N; n++ {
		for k := 0; k < s.K; k++ {
			for oj := 0; oj < p; oj++ {
				for oi := 0; oi < q; oi++ {
					var acc float64
					ij := s.Str*oj - s.Pad
					ii := s.Str*oi - s.Pad
					for c := 0; c < s.C; c++ {
						for r := 0; r < s.R; r++ {
							ih := ij + r
							if ih < 0 || ih >= s.H {
								continue
							}
							for ss := 0; ss < s.S; ss++ {
								iw := ii + ss
								if iw < 0 || iw >= s.W {
									continue
								}
								acc += float64(in.Data[((n*s.C+c)*s.H+ih)*s.W+iw]) *
									float64(filter.Data[((k*s.C+c)*s.R+r)*s.S+ss])
							}
						}
					}
					out.Data[((n*s.K+k)*p+oj)*q+oi] = float32(acc)
				}
			}
		}
	}
	return out
}

func checkOperands(s Shape, in, filter *tensor.Tensor) {
	if err := ValidateOperands(s, in, filter); err != nil {
		panic(err)
	}
}

// CheckOperands validates tensor dimensions against the shape,
// panicking with a descriptive message on mismatch. It is the
// panicking wrapper over ValidateOperands, kept for the baseline
// implementations; new code should prefer the error-returning form.
func CheckOperands(s Shape, in, filter *tensor.Tensor) { checkOperands(s, in, filter) }
