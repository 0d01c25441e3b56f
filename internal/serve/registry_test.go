package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ndirect/internal/conv"
	"ndirect/internal/core"
	"ndirect/internal/faultinject"
	"ndirect/internal/nn"
	"ndirect/internal/parallel"
	"ndirect/internal/tensor"
)

// tinyNet builds a one-conv network with integer-valued weights (so
// every execution strategy — packed, unpacked, reference — produces
// bit-identical outputs). withPool appends a parallel pooling layer,
// which is where injected worker panics surface as typed errors.
func tinyNet(seed uint64, withPool bool) *nn.Network {
	s := testShape
	w := s.NewFilter()
	fillInts(w, seed)
	layers := []nn.Layer{
		&nn.ConvUnit{LayerName: "c1", Shape: s, Weights: w, ReLU: true},
	}
	if withPool {
		layers = append(layers, &nn.MaxPool{K: 2, Str: 2})
	}
	return &nn.Network{Name: "tiny", Layers: layers}
}

func baseline(t *testing.T, net *nn.Network, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	want, err := net.TryForward(&nn.Engine{Algo: nn.AlgoNDirect, Threads: 2}, x)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// cancelLayer cancels the request's context as it passes its input on.
type cancelLayer struct{ cancel context.CancelFunc }

func (c cancelLayer) Name() string { return "cancel" }
func (c cancelLayer) Forward(_ *nn.Engine, x *tensor.Tensor) *tensor.Tensor {
	c.cancel()
	return x
}

// countLayer counts the forwards that reach it.
type countLayer struct{ n atomic.Int32 }

func (c *countLayer) Name() string { return "count" }
func (c *countLayer) Forward(_ *nn.Engine, x *tensor.Tensor) *tensor.Tensor {
	c.n.Add(1)
	return x
}

// Infer keeps the request context past admission: a context cancelled
// by the model's second layer stops the forward before the third, and
// the request fails typed as a deadline carrying the cancellation.
func TestInferStopsOnCancelBetweenLayers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	count := &countLayer{}
	net := tinyNet(12, false)
	net.Layers = append(net.Layers, cancelLayer{cancel}, count)
	r := NewRegistry(RegistryConfig{Runtime: New(Config{})})
	if err := r.Register("alice", "m", net); err != nil {
		t.Fatal(err)
	}
	x := testShape.NewInput()
	fillInts(x, 13)
	out, err := r.Infer(ctx, "alice", "m", x)
	if out != nil || !errors.Is(err, conv.ErrDeadline) || !errors.Is(err, context.Canceled) {
		t.Fatalf("Infer = (%v, %v), want an error wrapping ErrDeadline and context.Canceled", out, err)
	}
	if n := count.n.Load(); n != 0 {
		t.Fatalf("the layer after the cancel ran %d times", n)
	}
}

// TestRegistryMultiTenantBitExactAndBudgetBaseline: two tenants serve
// isolated models through one registry; outputs are bit-exact, packed
// weights are charged to the shared weight budget while resident, and
// unregistering returns the budget to its baseline. Tenants cannot
// reach each other's models.
func TestRegistryMultiTenantBitExactAndBudgetBaseline(t *testing.T) {
	r := NewRegistry(RegistryConfig{
		Runtime: New(Config{}),
		Tenants: map[string]TenantConfig{
			"alice": {Class: ClassPremium, MaxOutstanding: 8},
			"bob":   {Class: ClassStandard, MaxOutstanding: 8},
		},
	})
	netA, netB := tinyNet(10, false), tinyNet(20, false)
	x := testShape.NewInput()
	fillInts(x, 30)
	wantA, wantB := baseline(t, netA, x), baseline(t, netB, x)

	if err := r.Register("alice", "m", netA); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("bob", "m", netB); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("alice", "m", netA); !errors.Is(err, ErrModelExists) {
		t.Fatalf("duplicate register: want ErrModelExists, got %v", err)
	}

	for i := 0; i < 3; i++ {
		gotA, err := r.Infer(context.Background(), "alice", "m", x)
		if err != nil {
			t.Fatal(err)
		}
		gotB, err := r.Infer(context.Background(), "bob", "m", x)
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxAbsDiff(wantA, gotA); d != 0 {
			t.Fatalf("iter %d: alice's output differs by %g", i, d)
		}
		if d := tensor.MaxAbsDiff(wantB, gotB); d != 0 {
			t.Fatalf("iter %d: bob's output differs by %g", i, d)
		}
	}

	if got := r.ResidentBytes("alice", "m"); got <= 0 {
		t.Fatalf("alice's packed weights not resident (%d bytes)", got)
	}
	if inUse := r.WeightBudget().InUse(); inUse != r.ResidentBytes("alice", "m")+r.ResidentBytes("bob", "m") {
		t.Fatalf("weight budget (%d) != sum of resident bytes", inUse)
	}

	// Isolation: a tenant cannot see (or even distinguish) another
	// tenant's model.
	if _, err := r.Infer(context.Background(), "alice", "bobs-model", x); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown model: want ErrUnknownModel, got %v", err)
	}

	if err := r.Unregister("alice", "m"); err != nil {
		t.Fatal(err)
	}
	if err := r.Unregister("bob", "m"); err != nil {
		t.Fatal(err)
	}
	if inUse := r.WeightBudget().InUse(); inUse != 0 {
		t.Fatalf("weight budget %d after unregistering everything, want 0 (baseline)", inUse)
	}
	if _, err := r.Infer(context.Background(), "alice", "m", x); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("infer after unregister: want ErrUnknownModel, got %v", err)
	}
}

// TestRegistryWeightLRUEvictionRepacksBitExact: with a weight budget
// sized for one model, serving a second model evicts the first's
// residency (LRU), and the first re-packs bit-identically when its
// traffic returns — the budget ceiling is never exceeded.
func TestRegistryWeightLRUEvictionRepacksBitExact(t *testing.T) {
	// Learn one model's packed footprint with an unbounded registry.
	probe := NewRegistry(RegistryConfig{Runtime: New(Config{})})
	netP := tinyNet(1, false)
	x := testShape.NewInput()
	fillInts(x, 5)
	if err := probe.Register("t", "m", netP); err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Infer(context.Background(), "t", "m", x); err != nil {
		t.Fatal(err)
	}
	perModel := probe.WeightBudget().InUse()
	if perModel <= 0 {
		t.Fatal("probe model never became resident")
	}

	r := NewRegistry(RegistryConfig{Runtime: New(Config{}), WeightLimitBytes: perModel})
	net1, net2 := tinyNet(11, false), tinyNet(22, false)
	want1, want2 := baseline(t, net1, x), baseline(t, net2, x)
	if err := r.Register("t", "m1", net1); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("t", "m2", net2); err != nil {
		t.Fatal(err)
	}

	got1, err := r.Infer(context.Background(), "t", "m1", x)
	if err != nil {
		t.Fatal(err)
	}
	if r.ResidentBytes("t", "m1") != perModel {
		t.Fatalf("m1 resident %d, want %d", r.ResidentBytes("t", "m1"), perModel)
	}
	got2, err := r.Infer(context.Background(), "t", "m2", x)
	if err != nil {
		t.Fatal(err)
	}
	// m2's admission had to evict m1 (the LRU victim).
	if r.ResidentBytes("t", "m1") != 0 {
		t.Fatalf("m1 still resident (%d bytes) after m2 displaced it", r.ResidentBytes("t", "m1"))
	}
	if r.ResidentBytes("t", "m2") != perModel {
		t.Fatalf("m2 resident %d, want %d", r.ResidentBytes("t", "m2"), perModel)
	}
	if st := r.Stats(); st.Evictions == 0 {
		t.Fatalf("no eviction recorded: %+v", st)
	}
	if inUse := r.WeightBudget().InUse(); inUse > perModel {
		t.Fatalf("weight budget exceeded: %d > %d", inUse, perModel)
	}

	// m1's traffic returns: it re-packs (evicting m2) bit-identically.
	got1b, err := r.Infer(context.Background(), "t", "m1", x)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(want1, got1); d != 0 {
		t.Fatalf("m1 first run differs by %g", d)
	}
	if d := tensor.MaxAbsDiff(want2, got2); d != 0 {
		t.Fatalf("m2 run differs by %g", d)
	}
	if d := tensor.MaxAbsDiff(want1, got1b); d != 0 {
		t.Fatalf("m1 post-eviction re-pack differs by %g (want bit-identical)", d)
	}
	if r.WeightBudget().Peak() > perModel {
		t.Fatalf("weight peak %d exceeded the %d ceiling", r.WeightBudget().Peak(), perModel)
	}
}

// TestRegistryForcedEvictionMidTraffic: the weight-evict fault point
// evicts the model's residency at the top of every Infer; each request
// then re-packs from the KCRS source, and every output must stay
// bit-identical while the accounting churns charge/release pairs.
func TestRegistryForcedEvictionMidTraffic(t *testing.T) {
	defer faultinject.Reset()
	r := NewRegistry(RegistryConfig{Runtime: New(Config{})})
	net := tinyNet(7, false)
	x := testShape.NewInput()
	fillInts(x, 8)
	want := baseline(t, net, x)
	if err := r.Register("t", "m", net); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Infer(context.Background(), "t", "m", x); err != nil {
		t.Fatal(err)
	}
	resident := r.ResidentBytes("t", "m")

	faultinject.ArmN(faultinject.WeightEvict, -1, -1)
	for i := 0; i < 5; i++ {
		got, err := r.Infer(context.Background(), "t", "m", x)
		if err != nil {
			t.Fatalf("infer %d under eviction storm: %v", i, err)
		}
		if d := tensor.MaxAbsDiff(want, got); d != 0 {
			t.Fatalf("infer %d under eviction storm differs by %g (want bit-identical)", i, d)
		}
	}
	faultinject.Reset()
	st := r.Stats()
	if st.ForcedEvictions < 5 {
		t.Fatalf("forced evictions = %d, want >= 5", st.ForcedEvictions)
	}
	// Accounting is consistent after the storm: in-use equals resident.
	if inUse := r.WeightBudget().InUse(); inUse != r.ResidentBytes("t", "m") {
		t.Fatalf("weight budget (%d) != resident bytes (%d) after storm", inUse, r.ResidentBytes("t", "m"))
	}
	if resident > 0 && r.WeightBudget().Peak() < resident {
		t.Fatalf("peak %d below one resident footprint %d", r.WeightBudget().Peak(), resident)
	}
}

// TestRegistryQuarantineIsolatesFaultingModel: a model whose traffic
// keeps surfacing execution faults is degraded to the reference path
// after the threshold; its neighbour tenants stay on the fast path and
// bit-exact throughout; after the cooldown one probe restores the
// model.
func TestRegistryQuarantineIsolatesFaultingModel(t *testing.T) {
	defer faultinject.Reset()
	r := NewRegistry(RegistryConfig{
		Runtime:             New(Config{}),
		QuarantineThreshold: 2,
		QuarantineCooldown:  50 * time.Millisecond,
	})
	evil := tinyNet(40, true) // pooling layer: where worker panics surface
	good := tinyNet(50, false)
	x := testShape.NewInput()
	fillInts(x, 60)
	wantEvil, wantGood := baseline(t, evil, x), baseline(t, good, x)
	if err := r.Register("evil", "m", evil); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("good", "m", good); err != nil {
		t.Fatal(err)
	}

	// Two consecutive surfaced faults trip the quarantine.
	faultinject.ArmN(faultinject.WorkerPanic, -1, -1)
	for i := 0; i < 2; i++ {
		if _, err := r.Infer(context.Background(), "evil", "m", x); !errors.Is(err, parallel.ErrWorkerPanic) {
			t.Fatalf("fault %d: want ErrWorkerPanic, got %v", i, err)
		}
	}
	faultinject.Reset()
	if !r.Quarantined("evil", "m") {
		t.Fatal("model not quarantined after threshold faults")
	}

	// Quarantined traffic serves on the reference path — and is still
	// bit-exact for integer tensors.
	got, err := r.Infer(context.Background(), "evil", "m", x)
	if err != nil {
		t.Fatalf("quarantined infer: %v", err)
	}
	if d := tensor.MaxAbsDiff(wantEvil, got); d != 0 {
		t.Fatalf("quarantined (reference) output differs by %g (want bit-identical)", d)
	}
	if st := r.Stats(); st.ReferenceInfers == 0 || st.Quarantines != 1 || st.QuarantinedNow != 1 {
		t.Fatalf("quarantine counters off: %+v", st)
	}

	// The neighbour is untouched: fast path, bit-exact, no quarantine.
	gotGood, err := r.Infer(context.Background(), "good", "m", x)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxAbsDiff(wantGood, gotGood); d != 0 {
		t.Fatalf("healthy tenant's output differs by %g", d)
	}
	if r.Quarantined("good", "m") {
		t.Fatal("healthy model quarantined by a neighbour's faults")
	}

	// Cooldown elapses: the next request probes the fast path and, with
	// the faults gone, restores the model.
	time.Sleep(60 * time.Millisecond)
	got2, err := r.Infer(context.Background(), "evil", "m", x)
	if err != nil {
		t.Fatalf("probe infer: %v", err)
	}
	if d := tensor.MaxAbsDiff(wantEvil, got2); d != 0 {
		t.Fatalf("probe output differs by %g", d)
	}
	if r.Quarantined("evil", "m") {
		t.Fatal("model still quarantined after a clean probe")
	}
	if st := r.Stats(); st.Restores != 1 {
		t.Fatalf("restores = %d, want 1", st.Restores)
	}
}

// TestRegistryConcurrentChurnRace is the -race target for the shared
// caches: concurrent Infer traffic across tenants, forced evictions,
// plan-cache churn on the shared runtime, and a tenant
// register/unregister loop with requests in flight. Every request must
// finish bit-exact or fail with a typed sentinel, and after the drain
// the weight budget must return to baseline (zero).
func TestRegistryConcurrentChurnRace(t *testing.T) {
	rt := New(Config{})
	r := NewRegistry(RegistryConfig{
		Runtime:          rt,
		MaxInFlight:      4,
		MaxQueue:         8,
		WeightLimitBytes: 1 << 20,
		Tenants: map[string]TenantConfig{
			"t0": {Class: ClassPremium, MaxOutstanding: 6},
			"t1": {Class: ClassStandard, MaxOutstanding: 6},
			"t2": {Class: ClassBatch, MaxOutstanding: 6},
		},
	})
	x := testShape.NewInput()
	fillInts(x, 77)
	tenants := []string{"t0", "t1", "t2"}
	nets := map[string]*nn.Network{}
	wants := map[string]*tensor.Tensor{}
	for i, tn := range tenants {
		nets[tn] = tinyNet(uint64(100+i), false)
		wants[tn] = baseline(t, nets[tn], x)
		if err := r.Register(tn, "m", nets[tn]); err != nil {
			t.Fatal(err)
		}
	}

	const iters = 60
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tn := tenants[(g+i)%len(tenants)]
				out, err := r.Infer(context.Background(), tn, "m", x)
				if err != nil {
					if !errors.Is(err, core.ErrOverloaded) && !errors.Is(err, ErrUnknownModel) {
						t.Errorf("untyped infer error: %v", err)
						return
					}
					continue
				}
				if d := tensor.MaxAbsDiff(wants[tn], out); d != 0 {
					t.Errorf("tenant %s output corrupted: differs by %g", tn, d)
					return
				}
			}
		}(g)
	}
	// Eviction storm: force t0's residency out from under its traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if e, err := r.lookup("t0", "m"); err == nil {
				r.evictModel(e)
			}
		}
	}()
	// Plan-cache churn on the shared runtime: other batch sizes of the
	// served shape, each packed and released.
	wg.Add(1)
	go func() {
		defer wg.Done()
		filter := testShape.NewFilter()
		fillInts(filter, 88)
		for i := 0; i < iters; i++ {
			plan, err := rt.PlanCache().Get(testShape.WithBatch(1+i%3), core.Options{Threads: 2})
			if err != nil {
				t.Errorf("plan: %v", err)
				return
			}
			pf, err := plan.TransformFilter(filter)
			if err != nil {
				t.Errorf("pack: %v", err)
				return
			}
			pf.Release()
		}
	}()
	// Register/unregister churn with requests in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			if err := r.Unregister("t2", "m"); err != nil {
				t.Errorf("unregister: %v", err)
				return
			}
			if err := r.Register("t2", "m", nets["t2"]); err != nil {
				t.Errorf("re-register: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	for _, tn := range tenants {
		if err := r.Unregister(tn, "m"); err != nil {
			t.Fatal(err)
		}
	}
	if inUse := r.WeightBudget().InUse(); inUse != 0 {
		t.Fatalf("weight budget %d after full drain + unregister, want 0", inUse)
	}
	if st := r.Stats(); st.Models != 0 || st.Gate.InFlight != 0 || st.Gate.Queued != 0 {
		t.Fatalf("registry not drained: %+v", st)
	}
}
