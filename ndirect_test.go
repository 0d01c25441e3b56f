package ndirect

import (
	"bytes"
	"math"
	"testing"

	"ndirect/internal/tensor"
)

func TestPublicConv2DMatchesReference(t *testing.T) {
	s := Shape{N: 1, C: 8, H: 14, W: 14, K: 16, R: 3, S: 3, Str: 1, Pad: 1}
	in := NewTensor(s.N, s.C, s.H, s.W)
	in.FillRandom(1)
	w := NewTensor(s.K, s.C, s.R, s.S)
	w.FillRandom(2)
	want := Reference(s, in, w)
	got := Conv2D(s, in, w, Options{})
	if d := tensor.RelDiff(want, got); d > 2e-5 {
		t.Fatalf("rel diff %g", d)
	}
}

func TestPublicPlanReuse(t *testing.T) {
	s := Shape{N: 1, C: 4, H: 8, W: 8, K: 8, R: 3, S: 3, Str: 1, Pad: 1}
	plan := NewPlan(s, Options{Threads: 2})
	in := NewTensor(s.N, s.C, s.H, s.W)
	in.FillRandom(3)
	w := NewTensor(s.K, s.C, s.R, s.S)
	w.FillRandom(4)
	out1 := NewTensor(s.N, s.K, s.P(), s.Q())
	out2 := NewTensor(s.N, s.K, s.P(), s.Q())
	plan.Execute(in, w, out1)
	plan.Execute(in, w, out2)
	if tensor.MaxAbsDiff(out1, out2) != 0 {
		t.Fatal("plan reuse must be deterministic")
	}
}

func TestPublicNHWC(t *testing.T) {
	s := Shape{N: 1, C: 4, H: 8, W: 8, K: 8, R: 3, S: 3, Str: 1, Pad: 1}
	in := NewTensor(s.N, s.H, s.W, s.C)
	in.FillRandom(5)
	w := NewTensor(s.K, s.C, s.R, s.S)
	w.FillRandom(6)
	out := Conv2DNHWC(s, in, w, Options{})
	if out.Dims[3] != s.K {
		t.Fatalf("NHWC output dims %v", out.Dims)
	}
}

func TestPublicPlatforms(t *testing.T) {
	if len(Platforms) != 4 {
		t.Fatal("expected four Table 3 platforms")
	}
	p, ok := PlatformByName("kp920")
	if !ok || p.Cores != 64 {
		t.Fatal("kp920 lookup failed")
	}
}

func TestPublicLayers(t *testing.T) {
	if len(Layers()) != 28 {
		t.Fatal("expected 28 Table 4 layers")
	}
	l, err := LayerByID(3)
	if err != nil || l.Shape.C != 64 {
		t.Fatalf("layer 3 lookup: %v %v", l, err)
	}
	if _, err := LayerByID(99); err == nil {
		t.Fatal("expected error for bad id")
	}
}

func TestTensorFromSlice(t *testing.T) {
	buf := make([]float32, 12)
	tt := TensorFromSlice(buf, 3, 4)
	tt.Set(5, 1, 1)
	if buf[5] != 5 {
		t.Fatal("TensorFromSlice must share storage")
	}
}

func TestBuildModelBackends(t *testing.T) {
	m, err := BuildModel("resnet50", ModelOptions{Backend: "ndirect", Threads: 2})
	if err != nil || m.Name() != "ResNet-50" {
		t.Fatalf("BuildModel: %v", err)
	}
	if len(m.ConvShapes()) == 0 {
		t.Fatal("no conv shapes")
	}
	if _, err := BuildModel("alexnet", ModelOptions{}); err == nil {
		t.Fatal("unknown model must error")
	}
	if _, err := BuildModel("vgg16", ModelOptions{Backend: "cudnn"}); err == nil {
		t.Fatal("unknown backend must error")
	}
}

func TestModelInferSmokeTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("full ResNet-50 forward is slow")
	}
	m, err := BuildModel("resnet50", ModelOptions{Threads: 4, Fuse: true})
	if err != nil {
		t.Fatal(err)
	}
	x := m.NewInput(1)
	x.FillRandom(7)
	y := m.Infer(x)
	if y.Dims[1] != 1000 {
		t.Fatalf("output dims %v", y.Dims)
	}
	var sum float64
	for _, v := range y.Data {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestModelWeightsRoundTripPublic(t *testing.T) {
	a, _ := BuildModel("mobilenet", ModelOptions{Threads: 1})
	b, _ := BuildModel("mobilenet", ModelOptions{Threads: 1})
	var buf bytes.Buffer
	if err := a.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	if err := b.LoadWeights(&buf); err != nil {
		t.Fatal(err)
	}
	// Same builder seed means identical weights anyway; corrupt one
	// buffer byte to prove validation works.
	var buf2 bytes.Buffer
	if err := a.SaveWeights(&buf2); err != nil {
		t.Fatal(err)
	}
	raw := buf2.Bytes()
	raw[0] = 'X'
	if err := b.LoadWeights(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupted header must be rejected")
	}
}
