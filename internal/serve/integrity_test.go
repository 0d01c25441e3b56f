package serve

import (
	"context"
	"testing"
	"time"

	"ndirect/internal/conv"
	"ndirect/internal/core"
	"ndirect/internal/faultinject"
	"ndirect/internal/nn"
	"ndirect/internal/tensor"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// The sentinel must detect an injected kernel miscompute on its golden
// probe, quarantine the family out of dispatch, and restore it on the
// first clean probe once the fault clears — all without an operator in
// the loop.
func TestSentinelQuarantinesAndRestoresKernelFamily(t *testing.T) {
	defer faultinject.Reset()
	rt := New(Config{SentinelInterval: time.Millisecond})
	defer rt.Close()
	defer func() {
		// Belt and braces: never leak a quarantined family into other
		// tests, whatever this test's outcome.
		for _, name := range core.KernelFamilyNames() {
			core.RestoreKernelFamily(name)
		}
	}()

	faultinject.ArmN(faultinject.KernelMiscompute, -1, -1)
	waitFor(t, 10*time.Second, "a sentinel kernel quarantine", func() bool {
		return rt.Stats().KernelQuarantines >= 1
	})
	st := rt.Stats()
	if st.SentinelProbes == 0 || st.IntegrityFailures == 0 {
		t.Fatalf("SentinelProbes = %d IntegrityFailures = %d, want both > 0", st.SentinelProbes, st.IntegrityFailures)
	}
	if core.KernelDispatchStats().Quarantined == 0 {
		t.Fatal("runtime counted a quarantine the dispatch registry does not show")
	}

	faultinject.Reset()
	waitFor(t, 10*time.Second, "sentinel restores after the fault cleared", func() bool {
		s := rt.Stats()
		return s.KernelRestores >= s.KernelQuarantines && core.KernelDispatchStats().Quarantined == 0
	})
}

// The sentinel's model probe: a clean model keeps its fast path; a
// sentinel-quarantined model serves typed-correct results on the
// reference path (even with the fault-driven quarantine ladder
// disabled) and is restored by the next clean probe.
func TestSentinelModelQuarantineAndRestore(t *testing.T) {
	rt := New(Config{SentinelInterval: time.Millisecond})
	defer rt.Close()
	reg := NewRegistry(RegistryConfig{Runtime: rt})

	s := conv.Shape{N: 1, C: 4, H: 8, W: 8, K: 8, R: 3, S: 3, Str: 1, Pad: 1}
	w := s.NewFilter()
	fillInts(w, 9)
	net := &nn.Network{Name: "sentinel", Layers: []nn.Layer{
		&nn.ConvUnit{LayerName: "c1", Shape: s, Weights: w, ReLU: true},
	}}
	if err := reg.Register("acme", "m", net); err != nil {
		t.Fatal(err)
	}
	defer reg.Unregister("acme", "m")

	x := tensor.New(1, 4, 8, 8)
	fillInts(x, 10)
	want, err := reg.Infer(context.Background(), "acme", "m", x)
	if err != nil {
		t.Fatal(err)
	}

	// Clean model: probes run, nothing quarantines.
	waitFor(t, 10*time.Second, "a sentinel model probe", func() bool {
		return rt.Stats().SentinelProbes >= 6 // a full round-robin lap covers the model target
	})
	if reg.Quarantined("acme", "m") {
		t.Fatal("clean model was quarantined")
	}

	// Force the mismatch verdict through the testable seam (silent
	// fast-path corruption cannot be manufactured from outside — every
	// injectable fault is already caught by an inner layer).
	e, err := reg.lookup("acme", "m")
	if err != nil {
		t.Fatal(err)
	}
	reg.settleModelProbe(e, true)
	if !reg.Quarantined("acme", "m") {
		t.Fatal("mismatch verdict did not quarantine the model")
	}
	if got := rt.Stats().IntegrityFailures; got == 0 {
		t.Fatal("model quarantine not counted as an integrity failure")
	}

	// Quarantined + quarThreshold 0: requests serve on the reference
	// path, still bit-exact.
	preRef := reg.Stats().ReferenceInfers
	out, err := reg.Infer(context.Background(), "acme", "m", x)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(out, want); d != 0 {
		t.Fatalf("reference-path result differs by %g, want bit-exact", d)
	}
	if got := reg.Stats().ReferenceInfers; got <= preRef {
		t.Fatalf("ReferenceInfers = %d, want > %d (quarantined model must serve on the reference path)", got, preRef)
	}

	// The model is healthy, so the sentinel's next clean probe restores
	// the fast path.
	waitFor(t, 10*time.Second, "sentinel restores the model", func() bool {
		return !reg.Quarantined("acme", "m")
	})
	if reg.Stats().Restores == 0 {
		t.Fatal("restore not counted")
	}
}

// holdLayer parks the forward of one request's input until release
// closes, so that request stays in flight for as long as a test needs.
// Every other forward, a sentinel probe's included, passes straight
// through.
type holdLayer struct {
	x                *tensor.Tensor
	entered, release chan struct{}
}

func (h holdLayer) Name() string { return "hold" }
func (h holdLayer) Forward(_ *nn.Engine, x *tensor.Tensor) *tensor.Tensor {
	if x == h.x {
		close(h.entered)
		<-h.release
	}
	return x
}

// No sentinel probe, kernel family or model, runs beside registry
// traffic. Registry requests admit through the tenant gate and never
// enter the runtime gate, so a sentinel that checked only the runtime
// gate would keep probing kernel families through every request.
func TestSentinelWaitsForRegistryTraffic(t *testing.T) {
	rt := New(Config{SentinelInterval: time.Millisecond})
	defer rt.Close()
	reg := NewRegistry(RegistryConfig{Runtime: rt})
	x := testShape.NewInput()
	fillInts(x, 15)
	hold := holdLayer{x: x, entered: make(chan struct{}), release: make(chan struct{})}
	net := tinyNet(14, false)
	net.Layers = append([]nn.Layer{hold}, net.Layers...)
	if err := reg.Register("acme", "m", net); err != nil {
		t.Fatal(err)
	}
	defer reg.Unregister("acme", "m")

	done := make(chan error, 1)
	go func() {
		_, err := reg.Infer(context.Background(), "acme", "m", x)
		done <- err
	}()
	<-hold.entered
	// Let a tick that passed its idle check just before admission
	// finish counting its probe.
	time.Sleep(20 * time.Millisecond)
	before := rt.Stats().SentinelProbes
	time.Sleep(100 * time.Millisecond)
	during := rt.Stats().SentinelProbes
	close(hold.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if during != before {
		t.Fatalf("%d sentinel probes ran while a registry request was in flight, want 0", during-before)
	}
	waitFor(t, 10*time.Second, "probes to resume once the request drains", func() bool {
		return rt.Stats().SentinelProbes > during
	})
}
