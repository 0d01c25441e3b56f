package core

import (
	"testing"

	"ndirect/internal/conv"
	"ndirect/internal/tensor"
)

// depthwiseReference is an independent oracle for the depthwise path.
func depthwiseReference(s conv.Shape, in, filter *tensor.Tensor) *tensor.Tensor {
	p, q := s.P(), s.Q()
	out := tensor.New(s.N, s.C, p, q)
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			for oh := 0; oh < p; oh++ {
				for ow := 0; ow < q; ow++ {
					var acc float64
					for r := 0; r < s.R; r++ {
						ih := oh*s.Str - s.Pad + r
						if ih < 0 || ih >= s.H {
							continue
						}
						for ss := 0; ss < s.S; ss++ {
							iw := ow*s.Str - s.Pad + ss
							if iw < 0 || iw >= s.W {
								continue
							}
							acc += float64(in.At(n, c, ih, iw)) * float64(filter.At(c, r, ss))
						}
					}
					out.Set(float32(acc), n, c, oh, ow)
				}
			}
		}
	}
	return out
}

func TestDepthwiseMatchesReference(t *testing.T) {
	for _, tc := range []conv.Shape{
		{N: 2, C: 8, H: 14, W: 14, K: 8, R: 3, S: 3, Str: 1, Pad: 1},
		{N: 1, C: 4, H: 16, W: 16, K: 4, R: 3, S: 3, Str: 2, Pad: 1},
		{N: 1, C: 3, H: 9, W: 7, K: 3, R: 5, S: 5, Str: 1, Pad: 2},
		{N: 1, C: 2, H: 6, W: 6, K: 2, R: 3, S: 3, Str: 1, Pad: 0},
	} {
		in := tensor.New(tc.N, tc.C, tc.H, tc.W)
		in.FillRandom(int64(tc.C))
		f := tensor.New(tc.C, tc.R, tc.S)
		f.FillRandom(int64(tc.R))
		want := depthwiseReference(tc, in, f)
		got := DepthwiseConv2D(tc, in, f, Options{})
		if d := tensor.RelDiff(want, got); d > tol {
			t.Fatalf("shape %v: rel diff %g", tc, d)
		}
	}
}

func TestDepthwiseMultiThreadDeterministic(t *testing.T) {
	s := conv.Shape{N: 2, C: 16, H: 14, W: 14, K: 16, R: 3, S: 3, Str: 1, Pad: 1}
	in := tensor.New(s.N, s.C, s.H, s.W)
	in.FillRandom(1)
	f := tensor.New(s.C, s.R, s.S)
	f.FillRandom(2)
	a := DepthwiseConv2D(s, in, f, Options{Threads: 1})
	b := DepthwiseConv2D(s, in, f, Options{Threads: 8})
	if tensor.MaxAbsDiff(a, b) != 0 {
		t.Fatal("thread count changed depthwise result")
	}
}

func TestDepthwiseFilterValidation(t *testing.T) {
	s := conv.Shape{N: 1, C: 4, H: 8, W: 8, K: 4, R: 3, S: 3, Str: 1, Pad: 1}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong filter rank")
		}
	}()
	DepthwiseConv2D(s, tensor.New(1, 4, 8, 8), tensor.New(4, 3), Options{})
}

func TestPointwiseMatchesConv1x1(t *testing.T) {
	s := conv.Shape{N: 1, C: 8, H: 10, W: 10, K: 16, R: 1, S: 1, Str: 1, Pad: 0}
	in := s.NewInput()
	in.FillRandom(3)
	f := s.NewFilter()
	f.FillRandom(4)
	want := conv.Reference(s, in, f)
	got, err := TryPointwiseConv2DShape(PointwiseShape(1, 8, 10, 10, 16), in, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.RelDiff(want, got); d > tol {
		t.Fatalf("pointwise rel diff %g", d)
	}
}

// conv3dReference is an independent seven-plus-two loop oracle.
func conv3dReference(s Shape3D, in, filter *tensor.Tensor) *tensor.Tensor {
	dOut, p, q := s.DOut(), s.P(), s.Q()
	out := tensor.New(s.N, s.K, dOut, p, q)
	for n := 0; n < s.N; n++ {
		for k := 0; k < s.K; k++ {
			for od := 0; od < dOut; od++ {
				for oh := 0; oh < p; oh++ {
					for ow := 0; ow < q; ow++ {
						var acc float64
						for c := 0; c < s.C; c++ {
							for tt := 0; tt < s.T; tt++ {
								id := od*s.StrD - s.PadD + tt
								if id < 0 || id >= s.D {
									continue
								}
								for r := 0; r < s.R; r++ {
									ih := oh*s.Str - s.Pad + r
									if ih < 0 || ih >= s.H {
										continue
									}
									for ss := 0; ss < s.S; ss++ {
										iw := ow*s.Str - s.Pad + ss
										if iw < 0 || iw >= s.W {
											continue
										}
										acc += float64(in.At(n, c, id, ih, iw)) *
											float64(filter.At(k, c, tt, r, ss))
									}
								}
							}
						}
						out.Set(float32(acc), n, k, od, oh, ow)
					}
				}
			}
		}
	}
	return out
}

func TestConv3DMatchesReference(t *testing.T) {
	s := Shape3D{
		Shape: conv.Shape{N: 1, C: 4, H: 8, W: 8, K: 6, R: 3, S: 3, Str: 1, Pad: 1},
		D:     6, T: 3, StrD: 1, PadD: 1,
	}
	in := tensor.New(s.N, s.C, s.D, s.H, s.W)
	in.FillRandom(5)
	f := tensor.New(s.K, s.C, s.T, s.R, s.S)
	f.FillRandom(6)
	want := conv3dReference(s, in, f)
	got := Conv3D(s, in, f, Options{})
	if d := tensor.RelDiff(want, got); d > tol {
		t.Fatalf("conv3d rel diff %g", d)
	}
}

func TestConv3DStridedDepth(t *testing.T) {
	s := Shape3D{
		Shape: conv.Shape{N: 1, C: 2, H: 6, W: 6, K: 4, R: 3, S: 3, Str: 1, Pad: 1},
		D:     8, T: 3, StrD: 2, PadD: 0,
	}
	if s.DOut() != 3 {
		t.Fatalf("DOut = %d, want 3", s.DOut())
	}
	in := tensor.New(s.N, s.C, s.D, s.H, s.W)
	in.FillRandom(7)
	f := tensor.New(s.K, s.C, s.T, s.R, s.S)
	f.FillRandom(8)
	want := conv3dReference(s, in, f)
	got := Conv3D(s, in, f, Options{})
	if d := tensor.RelDiff(want, got); d > tol {
		t.Fatalf("strided conv3d rel diff %g", d)
	}
}

func TestConv3DInputValidation(t *testing.T) {
	s := Shape3D{
		Shape: conv.Shape{N: 1, C: 2, H: 6, W: 6, K: 4, R: 3, S: 3, Str: 1, Pad: 1},
		D:     4, T: 3, StrD: 1, PadD: 1,
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong input dims")
		}
	}()
	Conv3D(s, tensor.New(1, 2, 5, 6, 6), tensor.New(4, 2, 3, 3, 3), Options{})
}
