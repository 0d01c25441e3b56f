package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"ndirect/internal/conv"
	"ndirect/internal/nn"
	"ndirect/internal/tensor"
)

// The wire types and generators below replicate the ones cmd/ndserve
// documents (shapeSpec, modelSpec, inferRequest, inferResponse,
// fillInts, buildNet) so the benchmark can predict every response
// byte without importing, or trusting, the program under test.

type shapeSpec struct {
	C      int `json:"c"`
	H      int `json:"h"`
	W      int `json:"w"`
	K      int `json:"k"`
	R      int `json:"r"`
	S      int `json:"s"`
	Stride int `json:"stride"`
	Pad    int `json:"pad"`
}

func (sp shapeSpec) shape() conv.Shape {
	return conv.Shape{N: 1, C: sp.C, H: sp.H, W: sp.W, K: sp.K, R: sp.R, S: sp.S, Str: sp.Stride, Pad: sp.Pad}
}

type modelSpec struct {
	Seed      uint64     `json:"seed"`
	ReLU      bool       `json:"relu"`
	Shape     *shapeSpec `json:"shape,omitempty"`
	Separable bool       `json:"separable,omitempty"`
}

type inferRequest struct {
	Seed *uint64   `json:"seed,omitempty"`
	Dims []int     `json:"dims,omitempty"`
	Data []float32 `json:"data,omitempty"`
}

type inferResponse struct {
	Dims []int     `json:"dims"`
	Data []float32 `json:"data"`
}

// fillInts fills t with integers in [-3, 3] from ndserve's documented
// stream. Integer tensors keep every execution mode bit-exact, which
// is what lets responses be compared byte for byte.
func fillInts(t *tensor.Tensor, seed uint64) {
	x := seed*2654435761 + 12345
	for i := range t.Data {
		x = x*6364136223846793005 + 1442695040888963407
		t.Data[i] = float32(int64(x>>33)%7 - 3)
	}
}

// sepStages returns the depthwise and pointwise shapes ndserve appends
// to a separable model whose first conv is s.
func sepStages(s conv.Shape) (dw, pw conv.Shape) {
	dw = conv.Shape{N: 1, C: s.K, H: s.P(), W: s.Q(), K: s.K, R: 3, S: 3, Str: 1, Pad: 1}
	pw = conv.Shape{N: 1, C: dw.C, H: dw.P(), W: dw.Q(), K: 2 * dw.C, R: 1, S: 1, Str: 1, Pad: 0}
	return dw, pw
}

// buildNet is the network ndserve builds for sp. The in-process replay
// registers it so the nested public calls run on the same weights the
// server holds.
func buildNet(name string, sp modelSpec) *nn.Network {
	s := sp.Shape.shape()
	w := s.NewFilter()
	fillInts(w, sp.Seed)
	layers := []nn.Layer{&nn.ConvUnit{LayerName: "conv1", Shape: s, Weights: w, ReLU: sp.ReLU}}
	if sp.Separable {
		dw, pw := sepStages(s)
		dwW := tensor.New(dw.C, dw.R, dw.S)
		fillInts(dwW, sp.Seed+1)
		bn := &nn.BNParams{
			Gamma: make([]float32, dw.C), Beta: make([]float32, dw.C),
			Mean: make([]float32, dw.C), Var: make([]float32, dw.C),
		}
		for i := range bn.Gamma {
			bn.Gamma[i], bn.Var[i] = 1, 1
		}
		pwW := pw.NewFilter()
		fillInts(pwW, sp.Seed+2)
		layers = append(layers, &nn.DepthwiseSeparable{
			LayerName: "dwsep", DWShape: dw, DWFilter: dwW, DWBN: bn,
			PW: &nn.ConvUnit{LayerName: "dwsep_pw", Shape: pw, Weights: pwW, ReLU: true},
		})
	}
	return &nn.Network{Name: name, Layers: layers}
}

func relu(t *tensor.Tensor) {
	for i, v := range t.Data {
		if v < 0 {
			t.Data[i] = 0
		}
	}
}

// depthwiseRef is the naive per-channel convolution (filter [C][R][S]).
func depthwiseRef(s conv.Shape, in, filter *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(s.N, s.C, s.P(), s.Q())
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			for p := 0; p < s.P(); p++ {
				for q := 0; q < s.Q(); q++ {
					out.Set(float32(dwPoint(s, in, filter, n, c, p, q)), n, c, p, q)
				}
			}
		}
	}
	return out
}

func dwPoint(s conv.Shape, in, filter *tensor.Tensor, n, c, p, q int) float64 {
	var acc float64
	for r := 0; r < s.R; r++ {
		ih := p*s.Str - s.Pad + r
		if ih < 0 || ih >= s.H {
			continue
		}
		for t := 0; t < s.S; t++ {
			iw := q*s.Str - s.Pad + t
			if iw < 0 || iw >= s.W {
				continue
			}
			acc += float64(in.At(n, c, ih, iw)) * float64(filter.At(c, r, t))
		}
	}
	return acc
}

// convPoint is one output element of a standard convolution, summed in
// float64: the sampled oracle for layers too large to run through
// conv.Reference on every benchmark run.
func convPoint(s conv.Shape, in, filter *tensor.Tensor, n, k, p, q int) float64 {
	var acc float64
	for c := 0; c < s.C; c++ {
		for r := 0; r < s.R; r++ {
			ih := p*s.Str - s.Pad + r
			if ih < 0 || ih >= s.H {
				continue
			}
			for t := 0; t < s.S; t++ {
				iw := q*s.Str - s.Pad + t
				if iw < 0 || iw >= s.W {
					continue
				}
				acc += float64(in.At(n, c, ih, iw)) * float64(filter.At(k, c, r, t))
			}
		}
	}
	return acc
}

// expectedOutput computes a model's response tensor for input x from
// the spec alone: conv.Reference for the standard stages, the naive
// depthwise loop above, and the epilogues applied as whole-tensor
// passes. Integer operands keep every partial sum exactly
// representable, so this equals the server's bits whatever path it ran.
func expectedOutput(sp modelSpec, x *tensor.Tensor) *tensor.Tensor {
	s := sp.Shape.shape()
	w := s.NewFilter()
	fillInts(w, sp.Seed)
	out := conv.Reference(s, x, w)
	if sp.ReLU {
		relu(out)
	}
	if !sp.Separable {
		return out
	}
	dw, pw := sepStages(s)
	dwW := tensor.New(dw.C, dw.R, dw.S)
	fillInts(dwW, sp.Seed+1)
	mid := depthwiseRef(dw, out, dwW)
	relu(mid) // the depthwise stage is BN+ReLU; ndserve's BN is the exact identity
	pwW := pw.NewFilter()
	fillInts(pwW, sp.Seed+2)
	out = conv.Reference(pw, mid, pwW)
	relu(out)
	return out
}

// encodeBody is the byte form ndserve gives a JSON value:
// json.Encoder output, trailing newline included.
func encodeBody(v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		panic(fmt.Sprintf("benchmark: encoding %T: %v", v, err)) // plain structs of numbers: cannot fail
	}
	return buf.Bytes()
}
