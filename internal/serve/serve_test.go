package serve

import (
	"context"
	"errors"
	"testing"

	"ndirect/internal/conv"
	"ndirect/internal/nn"
	"ndirect/internal/tensor"
)

// fillInts fills t with small integer-valued floats. Integer inputs
// make every execution path bit-identical: sums of small integers are
// exactly representable, so the optimised grid (float32, blocked
// order) and the reference path (float64 accumulation) round to the
// same bits — results can be tested for exact equality, not just
// tolerance.
func fillInts(t *tensor.Tensor, seed uint64) {
	x := seed*2654435761 + 12345
	for i := range t.Data {
		x = x*6364136223846793005 + 1442695040888963407
		t.Data[i] = float32(int64(x>>33)%7 - 3) // in [-3, 3]
	}
}

var testShape = conv.Shape{N: 1, C: 8, H: 16, W: 16, K: 16, R: 3, S: 3, Str: 1, Pad: 1}

func testOperands(s conv.Shape) (in, filter *tensor.Tensor, want *tensor.Tensor) {
	in = s.NewInput()
	fillInts(in, 1)
	filter = s.NewFilter()
	fillInts(filter, 2)
	return in, filter, conv.Reference(s, in, filter)
}

// TestRuntimeDefaultsFullRunBitExact: a zero-config registry (its
// default runtime and tenant gate) serves a one-conv network on the
// governed nDirect plans through its shared plan cache, bit-identical
// to the reference.
func TestRuntimeDefaultsFullRunBitExact(t *testing.T) {
	reg := NewRegistry(RegistryConfig{})
	in, filter, want := testOperands(testShape)
	net := &nn.Network{Name: "one", Layers: []nn.Layer{
		&nn.ConvUnit{LayerName: "conv1", Shape: testShape, Weights: filter},
	}}
	if err := reg.Register("acme", "m", net); err != nil {
		t.Fatal(err)
	}
	got, err := reg.Infer(context.Background(), "acme", "m", in)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(want, got); d != 0 {
		t.Fatalf("serve output differs from reference by %g, want bit-identical", d)
	}
	st := reg.Stats()
	if st.Gate.Admitted[ClassBatch] != 1 || st.Gate.InFlight != 0 {
		t.Fatalf("Gate.Admitted = %v InFlight = %d, want one batch-class admission and 0", st.Gate.Admitted, st.Gate.InFlight)
	}
	if st.Runtime.PlanCache.Misses == 0 {
		t.Fatalf("plan cache never consulted: %+v", st.Runtime.PlanCache)
	}
}

// TestBadOperandsChargeNothing: on a warm model, an input of the wrong
// shape fails typed with conv.ErrDimMismatch and moves nothing — no
// weight charge, no quarantine fault, no held gate slot.
func TestBadOperandsChargeNothing(t *testing.T) {
	reg := NewRegistry(RegistryConfig{QuarantineThreshold: 1})
	in, filter, _ := testOperands(testShape)
	net := &nn.Network{Name: "one", Layers: []nn.Layer{
		&nn.ConvUnit{LayerName: "conv1", Shape: testShape, Weights: filter},
	}}
	if err := reg.Register("acme", "m", net); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Infer(context.Background(), "acme", "m", in); err != nil {
		t.Fatal(err)
	}
	warm := reg.Stats()
	bad := tensor.New(1, 1, 2, 2) // wrong C/H/W for testShape
	if _, err := reg.Infer(context.Background(), "acme", "m", bad); !errors.Is(err, conv.ErrDimMismatch) {
		t.Fatalf("err = %v, want ErrDimMismatch", err)
	}
	st := reg.Stats()
	if st.WeightInUse != warm.WeightInUse || st.WeightPeak != warm.WeightPeak || st.Quarantines != 0 {
		t.Fatalf("validation failure left footprints: before %+v after %+v", warm, st)
	}
	if reg.Quarantined("acme", "m") || st.Gate.InFlight != 0 {
		t.Fatalf("quarantined = %v, gate %+v: want neither", reg.Quarantined("acme", "m"), st.Gate)
	}
}
