package nn

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"ndirect/internal/conv"
	"ndirect/internal/core"
	"ndirect/internal/tensor"
)

// Model builders for the end-to-end evaluation networks (§8.3):
// ResNet-50/101 (He et al.) and VGG-16/19 (Simonyan & Zisserman).
// Weights are deterministic He-initialised noise; BN parameters are
// identity (γ=1, β=0, μ=0, σ²=1) so activations stay numerically
// bounded through deep stacks.

type builder struct {
	rng *rand.Rand
}

func (b *builder) convUnit(name string, c, k, hw, rs, str, pad int, relu bool, withBN bool) *ConvUnit {
	shape := conv.Shape{N: 1, C: c, H: hw, W: hw, K: k, R: rs, S: rs, Str: str, Pad: pad}
	w := shape.NewFilter()
	heInit(w, c*rs*rs, b.rng)
	u := &ConvUnit{LayerName: name, Shape: shape, Weights: w, ReLU: relu}
	if withBN {
		u.BN = identityBN(k)
	} else {
		u.Bias = make([]float32, k) // zero bias, VGG style
	}
	return u
}

func (b *builder) fc(name string, in, out int, relu bool) *FC {
	w := tensor.New(out, in)
	heInit(w, in, b.rng)
	return &FC{LayerName: name, In: in, Out: out, W: w, B: make([]float32, out), ReLU: relu}
}

// --- ResNet ---

// Bottleneck is the ResNet 1×1→3×3→1×1 residual block with an
// optional projection shortcut.
type Bottleneck struct {
	LayerName           string
	Conv1, Conv2, Conv3 *ConvUnit
	Downsample          *ConvUnit // nil for identity shortcuts
}

func (bk *Bottleneck) Name() string { return bk.LayerName }

func (bk *Bottleneck) sublayers() []Layer {
	ls := []Layer{bk.Conv1, bk.Conv2, bk.Conv3}
	if bk.Downsample != nil {
		ls = append(ls, bk.Downsample)
	}
	return ls
}

func (bk *Bottleneck) Forward(eng *Engine, x *tensor.Tensor) *tensor.Tensor {
	out, err := bk.tryForward(eng, x)
	if err != nil {
		panic(fmt.Sprintf("nn: %s: %v", bk.LayerName, err))
	}
	return out
}

func (bk *Bottleneck) tryForward(eng *Engine, x *tensor.Tensor) (*tensor.Tensor, error) {
	identity := x
	if bk.Downsample != nil {
		var err error
		identity, err = bk.Downsample.tryForward(eng, x)
		if err != nil {
			return nil, err
		}
	}
	y1, err := bk.Conv1.tryForward(eng, x)
	if err != nil {
		return nil, err
	}
	y2, err := bk.Conv2.tryForward(eng, y1)
	if err != nil {
		return nil, err
	}
	eng.release(y1)
	y3, err := residualTail(eng, bk.Conv3, y2, identity)
	if err != nil {
		return nil, err
	}
	eng.release(y2)
	if identity != x {
		eng.release(identity) // the projection output dies with the add
	}
	return y3, nil
}

// BasicBlock is the two-3×3 residual block (unused by ResNet-50/101
// but provided for ResNet-18/34-style networks).
type BasicBlock struct {
	LayerName    string
	Conv1, Conv2 *ConvUnit
	Downsample   *ConvUnit
}

func (bb *BasicBlock) Name() string { return bb.LayerName }

func (bb *BasicBlock) sublayers() []Layer {
	ls := []Layer{bb.Conv1, bb.Conv2}
	if bb.Downsample != nil {
		ls = append(ls, bb.Downsample)
	}
	return ls
}

func (bb *BasicBlock) Forward(eng *Engine, x *tensor.Tensor) *tensor.Tensor {
	out, err := bb.tryForward(eng, x)
	if err != nil {
		panic(fmt.Sprintf("nn: %s: %v", bb.LayerName, err))
	}
	return out
}

func (bb *BasicBlock) tryForward(eng *Engine, x *tensor.Tensor) (*tensor.Tensor, error) {
	identity := x
	if bb.Downsample != nil {
		var err error
		identity, err = bb.Downsample.tryForward(eng, x)
		if err != nil {
			return nil, err
		}
	}
	y1, err := bb.Conv1.tryForward(eng, x)
	if err != nil {
		return nil, err
	}
	y2, err := residualTail(eng, bb.Conv2, y1, identity)
	if err != nil {
		return nil, err
	}
	eng.release(y1)
	if identity != x {
		eng.release(identity)
	}
	return y2, nil
}

// residualTail closes a residual block: relu(last(x) + identity), where
// last is the block's final conv unit (no ReLU of its own: it comes
// after the add). On a Reuse engine with the nDirect backend the add and
// the ReLU run in last's store, one pass over the output; every other
// engine runs the unit and then the addReLU sweep — the same bits.
func residualTail(eng *Engine, last *ConvUnit, x, identity *tensor.Tensor) (*tensor.Tensor, error) {
	if eng.Reuse && eng.Algo == AlgoNDirect && !eng.ForceReference && !eng.Fuse && !last.ReLU {
		return last.tryForwardResidual(eng, x, identity)
	}
	y, err := last.tryForward(eng, x)
	if err != nil {
		return nil, err
	}
	// A fault leaves y half-added: it is dropped, never pooled.
	if err := addReLU(y, identity, eng.Threads); err != nil {
		return nil, err
	}
	return y, nil
}

// resNet builds a bottleneck ResNet with the given stage depths
// ([3,4,6,3] → ResNet-50, [3,4,23,3] → ResNet-101).
func resNet(name string, depths [4]int) *Network {
	b := &builder{rng: rand.New(rand.NewSource(42))}
	net := &Network{Name: name}
	net.Layers = append(net.Layers,
		b.convUnit("conv1", 3, 64, 224, 7, 2, 3, true, true),
		&MaxPool{K: 3, Str: 2, Pad: 1},
	)
	inC := 64
	hw := 56
	width := 64
	for stage := 0; stage < 4; stage++ {
		outC := width * 4
		for blk := 0; blk < depths[stage]; blk++ {
			str := 1
			if stage > 0 && blk == 0 {
				str = 2
			}
			inHW := hw
			if blk == 0 && stage > 0 {
				inHW = hw * 2 // the first block of the stage downsamples
			}
			// ResNet v1.5 block (the variant Table 4's shapes come
			// from): the downsampling stride sits on the 3×3.
			bn := &Bottleneck{LayerName: fmt.Sprintf("stage%d_block%d", stage+1, blk)}
			bn.Conv1 = b.convUnit(bn.LayerName+"_1x1a", inC, width, inHW, 1, 1, 0, true, true)
			bn.Conv2 = b.convUnit(bn.LayerName+"_3x3", width, width, inHW, 3, str, 1, true, true)
			bn.Conv3 = b.convUnit(bn.LayerName+"_1x1b", width, outC, hw, 1, 1, 0, false, true)
			if inC != outC || str != 1 {
				bn.Downsample = b.convUnit(bn.LayerName+"_proj", inC, outC, inHW, 1, str, 0, false, true)
			}
			net.Layers = append(net.Layers, bn)
			inC = outC
		}
		if stage < 3 {
			width *= 2
			hw /= 2
		}
	}
	net.Layers = append(net.Layers,
		GlobalAvgPool{},
		b.fc("fc1000", 2048, 1000, false),
		Softmax{},
	)
	return net
}

// ResNet50 builds the ResNet-50 inference graph.
func ResNet50() *Network { return resNet("ResNet-50", [4]int{3, 4, 6, 3}) }

// ResNet101 builds the ResNet-101 inference graph.
func ResNet101() *Network { return resNet("ResNet-101", [4]int{3, 4, 23, 3}) }

// --- VGG ---

// vgg builds VGG-16 ([2,2,3,3,3]) or VGG-19 ([2,2,4,4,4]).
func vgg(name string, convsPerStage [5]int) *Network {
	b := &builder{rng: rand.New(rand.NewSource(43))}
	net := &Network{Name: name}
	channels := [5]int{64, 128, 256, 512, 512}
	hw := 224
	inC := 3
	for stage := 0; stage < 5; stage++ {
		for cl := 0; cl < convsPerStage[stage]; cl++ {
			name := fmt.Sprintf("conv%d_%d", stage+1, cl+1)
			net.Layers = append(net.Layers,
				b.convUnit(name, inC, channels[stage], hw, 3, 1, 1, true, false))
			inC = channels[stage]
		}
		net.Layers = append(net.Layers, &MaxPool{K: 2, Str: 2})
		hw /= 2
	}
	net.Layers = append(net.Layers,
		b.fc("fc6", 512*7*7, 4096, true),
		b.fc("fc7", 4096, 4096, true),
		b.fc("fc8", 4096, 1000, false),
		Softmax{},
	)
	return net
}

// VGG16 builds the VGG-16 inference graph.
func VGG16() *Network { return vgg("VGG-16", [5]int{2, 2, 3, 3, 3}) }

// VGG19 builds the VGG-19 inference graph.
func VGG19() *Network { return vgg("VGG-19", [5]int{2, 2, 4, 4, 4}) }

// ByName returns a model builder by its evaluation name.
func ByName(name string) (*Network, bool) {
	switch name {
	case "resnet50", "Res50", "ResNet-50":
		return ResNet50(), true
	case "resnet101", "Res101", "ResNet-101":
		return ResNet101(), true
	case "vgg16", "VGG16", "VGG-16":
		return VGG16(), true
	case "vgg19", "VGG19", "VGG-19":
		return VGG19(), true
	case "mobilenet", "mobilenetv1", "MobileNet-v1":
		return MobileNetV1(), true
	case "resnet18", "ResNet-18":
		return ResNet18(), true
	case "resnet34", "ResNet-34":
		return ResNet34(), true
	}
	return nil, false
}

// --- MobileNet (§10.2) ---

// DepthwiseSeparable is the MobileNet/Xception building block: a
// per-channel 3×3 depthwise convolution (BN+ReLU) followed by a 1×1
// pointwise convolution (BN+ReLU). The depthwise stage always runs
// through nDirect's depthwise kernel (§10.2: "removing the reduction
// operations of dimension C in micro-kernels"); the pointwise stage
// uses the engine's configured backend like any other 1×1 unit.
type DepthwiseSeparable struct {
	LayerName string
	DWShape   conv.Shape     // depthwise geometry (K ignored)
	DWFilter  *tensor.Tensor // [C, 3, 3]
	DWBN      *BNParams
	PW        *ConvUnit // the 1×1 expansion

	// Fused serving state (separable.go): on a Reuse+nDirect engine the
	// block runs as one core.SeparablePlan — depthwise BN+ReLU in the
	// per-channel epilogue, pointwise epilogue at the store, row tiles
	// of depthwise output consumed from pooled scratch without ever
	// materialising the full intermediate. Bit-identical to the unfused
	// path below.
	dwEpOnce sync.Once
	dwEp     *core.EpilogueParams

	sepMemos [4]atomic.Pointer[sepMemoEntry]
	sepGen   atomic.Uint64

	sepMu       sync.Mutex
	sepPackedDW *core.PackedDepthwiseFilter
}

func (d *DepthwiseSeparable) Name() string { return d.LayerName }

func (d *DepthwiseSeparable) sublayers() []Layer { return []Layer{d.PW} }

func (d *DepthwiseSeparable) Forward(eng *Engine, x *tensor.Tensor) *tensor.Tensor {
	out, err := d.tryForward(eng, x)
	if err != nil {
		panic(fmt.Sprintf("nn: %s: %v", d.LayerName, err))
	}
	return out
}

func (d *DepthwiseSeparable) tryForward(eng *Engine, x *tensor.Tensor) (*tensor.Tensor, error) {
	if out, handled, err := d.tryFused(eng, x); handled {
		return out, err
	}
	// Unfused composition: depthwise plane loop, separate BN/ReLU
	// sweeps, then the pointwise unit on the materialised intermediate.
	// This is the reference behaviour the fused path is bit-identical
	// to, and the quarantine/degradation route (ForceReference engines
	// land here with the pointwise unit on its reference rung).
	s := d.DWShape.WithBatch(x.Dims[0])
	y, err := core.TryDepthwiseConv2D(s, x, d.DWFilter, core.Options{Threads: eng.Threads})
	if err != nil {
		return nil, err
	}
	if err := applyBN(y, d.DWBN, eng.Threads); err != nil {
		return nil, err
	}
	if err := applyReLU(y, eng.Threads); err != nil {
		return nil, err
	}
	out, err := d.PW.tryForward(eng, y)
	if err != nil {
		return nil, err
	}
	if out != y {
		eng.release(y)
	}
	return out, nil
}

func (b *builder) dsc(name string, c, k, hw, str int) *DepthwiseSeparable {
	dw := tensor.New(c, 3, 3)
	heInit(dw, 9, b.rng)
	outHW := (hw+2-3)/str + 1
	return &DepthwiseSeparable{
		LayerName: name,
		DWShape:   conv.Shape{N: 1, C: c, H: hw, W: hw, K: c, R: 3, S: 3, Str: str, Pad: 1},
		DWFilter:  dw,
		DWBN:      identityBN(c),
		PW:        b.convUnit(name+"_pw", c, k, outHW, 1, 1, 0, true, true),
	}
}

// MobileNetV1 builds the standard MobileNet v1 (width 1.0) inference
// graph — the §10.2 depthwise-separable workload.
func MobileNetV1() *Network {
	b := &builder{rng: rand.New(rand.NewSource(44))}
	net := &Network{Name: "MobileNet-v1"}
	net.Layers = append(net.Layers, b.convUnit("conv1", 3, 32, 224, 3, 2, 1, true, true))
	cfg := []struct{ c, k, hw, str int }{
		{32, 64, 112, 1},
		{64, 128, 112, 2},
		{128, 128, 56, 1},
		{128, 256, 56, 2},
		{256, 256, 28, 1},
		{256, 512, 28, 2},
		{512, 512, 14, 1}, {512, 512, 14, 1}, {512, 512, 14, 1},
		{512, 512, 14, 1}, {512, 512, 14, 1},
		{512, 1024, 14, 2},
		{1024, 1024, 7, 1},
	}
	for i, blk := range cfg {
		net.Layers = append(net.Layers, b.dsc(fmt.Sprintf("dsc%d", i+1), blk.c, blk.k, blk.hw, blk.str))
	}
	net.Layers = append(net.Layers,
		GlobalAvgPool{},
		b.fc("fc1000", 1024, 1000, false),
		Softmax{},
	)
	return net
}

// resNetBasic builds a basic-block ResNet ([2,2,2,2] → ResNet-18,
// [3,4,6,3] → ResNet-34).
func resNetBasic(name string, depths [4]int) *Network {
	b := &builder{rng: rand.New(rand.NewSource(45))}
	net := &Network{Name: name}
	net.Layers = append(net.Layers,
		b.convUnit("conv1", 3, 64, 224, 7, 2, 3, true, true),
		&MaxPool{K: 3, Str: 2, Pad: 1},
	)
	inC := 64
	hw := 56
	width := 64
	for stage := 0; stage < 4; stage++ {
		for blk := 0; blk < depths[stage]; blk++ {
			str := 1
			if stage > 0 && blk == 0 {
				str = 2
			}
			inHW := hw
			if blk == 0 && stage > 0 {
				inHW = hw * 2
			}
			bb := &BasicBlock{LayerName: fmt.Sprintf("stage%d_block%d", stage+1, blk)}
			bb.Conv1 = b.convUnit(bb.LayerName+"_3x3a", inC, width, inHW, 3, str, 1, true, true)
			bb.Conv2 = b.convUnit(bb.LayerName+"_3x3b", width, width, hw, 3, 1, 1, false, true)
			if inC != width || str != 1 {
				bb.Downsample = b.convUnit(bb.LayerName+"_proj", inC, width, inHW, 1, str, 0, false, true)
			}
			net.Layers = append(net.Layers, bb)
			inC = width
		}
		if stage < 3 {
			width *= 2
			hw /= 2
		}
	}
	net.Layers = append(net.Layers,
		GlobalAvgPool{},
		b.fc("fc1000", 512, 1000, false),
		Softmax{},
	)
	return net
}

// ResNet18 builds the ResNet-18 inference graph (basic blocks).
func ResNet18() *Network { return resNetBasic("ResNet-18", [4]int{2, 2, 2, 2}) }

// ResNet34 builds the ResNet-34 inference graph (basic blocks).
func ResNet34() *Network { return resNetBasic("ResNet-34", [4]int{3, 4, 6, 3}) }
