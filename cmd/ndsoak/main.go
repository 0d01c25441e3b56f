// Command ndsoak is the chaos-soak harness for the serving path: it
// drives concurrent inference for N tenants through one serve.Registry
// — shared plan cache, worker pool and weight-residency budget — while
// (with -storm) every fault injection point in the repository is armed
// and re-armed on a random schedule — worker panics, schedule
// corruption, NaN poisoning, packed-weight corruption, worker stalls,
// forced weight eviction — and one tenant's model is
// register/unregister-churned mid-traffic. Each tenant serves a conv
// network (every other one with a depthwise-separable block) ending in
// a pooling layer, and the five raw-convolution geometries the soak
// covers (3×3 stride 1 including K=13 and N=2, 1×1, a 5×5 stride 2
// outside the model tables) are one-unit models spread over the tenants.
// It asserts the survival invariants the overload-safe design
// promises:
//
//  1. Every request completes with either a result bit-identical to
//     ITS OWN model's oracle (the traffic uses integer-valued tensors,
//     so every execution path agrees to the bit with the naive
//     references) or an error wrapping one of the typed sentinels
//     (ErrOverloaded, ErrDeadline, ErrExecFault, ErrWorkerPanic,
//     ErrIntegrity, ErrUnknownModel while churned out). Anything else —
//     a wrong answer, another tenant's answer, an untyped error, a
//     panic — is a violation. Forced mid-traffic eviction must be
//     harmless: evicted weights re-pack bit-identically.
//  2. After the storm, parallel.LeakedWorkers drains to zero: every
//     abandoned worker terminates once stalls are released.
//  3. The weight budget returns to its zero baseline after the drain
//     unregisters every model — forced evictions, re-packs and churn
//     must balance their charges exactly.
//  4. No deadlock: every client goroutine exits within a grace period
//     after the run ends (stalled workers are released by periodic
//     fault resets).
//  5. No goroutine growth: serving runs on the persistent worker pool
//     (plus transient spawn-fallback workers that exit with their
//     grid), so after the drain the process goroutine count settles
//     back to the post-setup baseline.
//
// With -integrity the storm additionally arms the silent-corruption
// drills (weight-bitflip, scratch-overrun, kernel-miscompute), the
// runtime's integrity sentinel probes in every lull, packed-filter
// checksum sampling is tightened, and two more invariants apply:
//
//  6. Zero corrupted outputs reach callers: every injected corruption
//     is either caught (typed core.ErrIntegrity, a canary trip, a
//     checksum failure) or bit-exactly absent from the results — which
//     invariant 1's oracle comparison already enforces. The detection
//     layers must actually fire: a storm that armed weight-bitflip and
//     scratch-overrun without a single checksum failure or canary trip
//     means the defense was asleep, and is a violation.
//  7. The sentinel closes the loop unattended: after the drain, an
//     armed kernel-miscompute must drive quarantine of a kernel family
//     out of dispatch, and clearing the fault must drive its restore.
//
// And always:
//
//  8. QoS shed ordering is monotone: if a class ever saw a queue-full
//     rejection, every lower class did too — batch absorbs overload
//     strictly before standard, standard strictly before premium.
//
// Exit status: 0 on a clean soak, 1 on invariant violations, 2 on a
// hang (clients failed to drain) or a setup failure. CI runs a 30 s
// -storm soak and a 20 s -integrity -storm soak, both under -race.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ndirect/internal/conv"
	"ndirect/internal/core"
	"ndirect/internal/faultinject"
	"ndirect/internal/nn"
	"ndirect/internal/parallel"
	"ndirect/internal/serve"
	"ndirect/internal/tensor"
)

// model is one registered model's pre-validated traffic: its owner,
// network, input and the bit-exact oracle for that input.
type model struct {
	tenant, name string
	net          *nn.Network
	in, want     *tensor.Tensor
}

// rawShapes are the one-unit models: a convolution and nothing else.
// Every one runs the standard kernel family, so the integrity drill's
// quarantine of it reaches all five.
var rawShapes = []conv.Shape{
	{N: 1, C: 8, H: 16, W: 16, K: 16, R: 3, S: 3, Str: 1, Pad: 1},
	{N: 1, C: 16, H: 14, W: 14, K: 32, R: 3, S: 3, Str: 1, Pad: 1},
	{N: 2, C: 5, H: 9, W: 9, K: 13, R: 3, S: 3, Str: 1, Pad: 1},
	{N: 1, C: 16, H: 28, W: 28, K: 16, R: 1, S: 1, Str: 1, Pad: 0},
	{N: 1, C: 4, H: 32, W: 32, K: 8, R: 5, S: 5, Str: 2, Pad: 2},
}

// fillInts fills t with integers in [-3, 3]. Integer tensors make
// every path — optimised grid, unpacked retry, float64 reference
// fallback — produce identical bits, so the soak can demand exact
// equality from whatever path served the request.
func fillInts(t *tensor.Tensor, seed uint64) {
	x := seed*2654435761 + 12345
	for i := range t.Data {
		x = x*6364136223846793005 + 1442695040888963407
		t.Data[i] = float32(int64(x>>33)%7 - 3)
	}
}

func main() {
	duration := flag.Duration("duration", 30*time.Second, "soak duration")
	clients := flag.Int("clients", 2*runtime.GOMAXPROCS(0), "concurrent client goroutines")
	threads := flag.Int("threads", 2, "worker threads per convolution")
	inFlight := flag.Int("inflight", runtime.GOMAXPROCS(0), "admission in-flight limit")
	storm := flag.Bool("storm", false, "arm every fault injection point on a random schedule")
	seed := flag.Int64("seed", 1, "storm/traffic random seed")
	verbose := flag.Bool("v", false, "log every violation as it happens")
	tenants := flag.Int("tenants", 4, "tenants sharing the registry (>= 1)")
	weightKB := flag.Int64("weight-kb", 0, "packed-weight residency budget in KiB (0 = unlimited); lower it so serving thrashes the weight LRU")
	integrity := flag.Bool("integrity", false, "run the integrity sentinel, arm the silent-corruption drills in the storm, and assert every injected corruption is detected")
	flag.Parse()
	if *tenants < 1 {
		fmt.Println("ndsoak: -tenants must be at least 1")
		os.Exit(2)
	}

	cfg := serve.Config{Options: core.Options{Threads: *threads}}
	if *integrity {
		// The sentinel probes only while the tenant gate is idle, so a
		// short interval turns every lull in the storm into a
		// verification pass.
		cfg.SentinelInterval = 2 * time.Millisecond
		// Tighten checksum sampling from the production default so the
		// sampled (not just injection-forced) verification path fires
		// many times inside a short soak.
		core.SetPackedVerifyInterval(64)
	}
	rt := serve.New(cfg)
	reg := serve.NewRegistry(serve.RegistryConfig{
		Runtime:             rt,
		MaxInFlight:         *inFlight,
		MaxQueue:            2 * *inFlight,
		WeightLimitBytes:    *weightKB << 10,
		QuarantineThreshold: 5,
		QuarantineCooldown:  2 * time.Second,
	})
	models, churned := buildModels(reg, *tenants)
	// Post-setup goroutine baseline: serve.New has already warmed the
	// persistent worker pool, so everything counted here is expected to
	// still exist after the soak drains (invariant 5).
	gBase := runtime.NumGoroutine()
	fmt.Printf("ndsoak: %d tenants, %d models, %d clients, %v, weight budget %d KiB, baseline %d goroutines, storm=%v integrity=%v\n",
		*tenants, len(models), *clients, *duration, *weightKB, gBase, *storm, *integrity)

	var (
		requests   atomic.Uint64
		okRuns     atomic.Uint64
		typedErrs  atomic.Uint64
		violations atomic.Uint64
	)
	violate := func(format string, args ...any) {
		violations.Add(1)
		if *verbose || violations.Load() <= 20 {
			fmt.Printf("VIOLATION: "+format+"\n", args...)
		}
	}

	trafficCtx, stopTraffic := context.WithTimeout(context.Background(), *duration)
	defer stopTraffic()

	// The storm: arm 1–2 random points every ~150 ms, full reset every
	// ~800 ms (the reset also releases stalled workers, bounding how
	// long any unbounded recompute can block on a stall).
	stormDone := make(chan struct{})
	go func() {
		defer close(stormDone)
		if !*storm {
			<-trafficCtx.Done()
			return
		}
		rng := rand.New(rand.NewSource(*seed))
		points := []string{
			faultinject.WorkerPanic,
			faultinject.ScheduleCorrupt,
			faultinject.NaNPoison,
			faultinject.WorkerStall,
			faultinject.PackedCorrupt,
			faultinject.WeightEvict,
		}
		if *integrity {
			// The silent-corruption drills: a finite bit flip only the
			// checksum can see, a scratch overrun only the canary can
			// see, and a kernel miscompute only the sentinel's golden
			// probe can see.
			points = append(points,
				faultinject.WeightBitflip,
				faultinject.ScratchOverrun,
				faultinject.KernelMiscompute,
			)
		}
		lastReset := time.Now()
		for trafficCtx.Err() == nil {
			for n := 1 + rng.Intn(2); n > 0; n-- {
				p := points[rng.Intn(len(points))]
				arg := -1
				switch p {
				case faultinject.NaNPoison, faultinject.PackedCorrupt, faultinject.WeightBitflip:
					arg = rng.Intn(1 << 16) // element index, clamped by the hook
				}
				faultinject.ArmN(p, arg, 1+rng.Intn(3))
			}
			time.Sleep(time.Duration(100+rng.Intn(100)) * time.Millisecond)
			if time.Since(lastReset) > 800*time.Millisecond {
				faultinject.Reset()
				lastReset = time.Now()
			}
		}
	}()

	// Register/unregister churn: one model flaps while its traffic is in
	// flight — requests must finish bit-exact or fail typed
	// (ErrUnknownModel while unregistered), never touch freed weights,
	// and never strand budget.
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for trafficCtx.Err() == nil {
			time.Sleep(50 * time.Millisecond)
			if err := reg.Unregister(churned.tenant, churned.name); err != nil {
				violate("churn unregister: %v", err)
				return
			}
			time.Sleep(5 * time.Millisecond)
			if err := reg.Register(churned.tenant, churned.name, churned.net); err != nil {
				violate("churn re-register: %v", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + 1000 + int64(c)))
			for trafficCtx.Err() == nil {
				requests.Add(1)
				m := models[rng.Intn(len(models))]
				deadline := time.Duration(5+rng.Intn(95)) * time.Millisecond
				ctx, cancel := context.WithTimeout(trafficCtx, deadline)
				out, err := reg.Infer(ctx, m.tenant, m.name, m.in)
				cancel()
				if err != nil {
					if !typedError(err) {
						violate("untyped error from %s/%s: %v", m.tenant, m.name, err)
					} else {
						typedErrs.Add(1)
					}
					continue
				}
				if d := tensor.MaxAbsDiff(m.want, out); d != 0 {
					violate("%s/%s: output differs from its oracle by %g (cross-tenant corruption?)", m.tenant, m.name, d)
					continue
				}
				okRuns.Add(1)
			}
		}(c)
	}

	// Progress heartbeat.
	go func() {
		tick := time.NewTicker(5 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-trafficCtx.Done():
				return
			case <-tick.C:
				st := reg.Stats()
				fmt.Printf("ndsoak: %d requests (%d ok, %d typed errors, %d violations); weights %d B (%d evictions, %d forced); quarantined=%d refInfers=%d; leaked=%d\n",
					requests.Load(), okRuns.Load(), typedErrs.Load(), violations.Load(),
					st.WeightInUse, st.Evictions, st.ForcedEvictions, st.QuarantinedNow, st.ReferenceInfers, parallel.LeakedWorkers())
			}
		}
	}()

	// Drain: clients may be blocked inside a stalled grid; keep
	// releasing stalls until they exit, and call the run hung if they
	// cannot drain inside the grace period.
	<-trafficCtx.Done()
	<-stormDone
	<-churnDone
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	grace := time.After(20 * time.Second)
drain:
	for {
		faultinject.Reset()
		select {
		case <-drained:
			break drain
		case <-grace:
			fmt.Println("ndsoak: DEADLOCK — clients failed to drain within the grace period")
			os.Exit(2)
		case <-time.After(100 * time.Millisecond):
		}
	}
	faultinject.Reset()

	// Invariant 2: the abandoned-worker account drains to zero.
	leakDeadline := time.Now().Add(15 * time.Second)
	for parallel.LeakedWorkers() != 0 {
		if time.Now().After(leakDeadline) {
			violate("LeakedWorkers stuck at %d after the storm", parallel.LeakedWorkers())
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Invariant 7 (-integrity): with traffic drained, the sentinel must
	// close the detect→quarantine→restore loop on its own. Runs before
	// rt.Close() tears the sentinel down.
	if *integrity {
		sentinelDrill(rt, violate)
	}

	// Invariant 3: unregister everything; the weight budget must be back
	// to its zero baseline (the churned model may already be mid-flap,
	// so tolerate an already-gone model there).
	for _, m := range models {
		if err := reg.Unregister(m.tenant, m.name); err != nil && !errors.Is(err, serve.ErrUnknownModel) {
			violate("teardown unregister %s/%s: %v", m.tenant, m.name, err)
		}
	}
	if inUse := reg.WeightBudget().InUse(); inUse != 0 {
		violate("weight budget did not return to baseline: %d B in use, want 0", inUse)
	}
	rt.Close()

	// Invariant 5: goroutine count settles back to the post-setup
	// baseline — steady-state serving dispatches onto the persistent
	// pool, and spawn-fallback workers exit with their grid, so any
	// residue above the baseline is a per-call leak.
	gDeadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > gBase {
		if time.Now().After(gDeadline) {
			violate("goroutine count did not settle: %d live, want <= %d (post-setup baseline)",
				runtime.NumGoroutine(), gBase)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	st := reg.Stats()
	if st.Gate.InFlight != 0 || st.Gate.Queued != 0 {
		violate("tenant gate not drained: %+v", st.Gate)
	}
	if st.Models != 0 {
		violate("%d models still registered after teardown", st.Models)
	}
	// Invariant 8: queue-full shedding is monotone in class — a higher
	// class shedding implies every lower class shed too.
	for c := 0; c < serve.NumQoSClasses-1; c++ {
		if st.Gate.ShedFull[c+1] > 0 && st.Gate.ShedFull[c] == 0 {
			violate("shed ordering inverted: class %d shed %d times but class %d never did",
				c+1, st.Gate.ShedFull[c+1], c)
		}
	}

	fmt.Printf("ndsoak: done: %d requests, %d ok, %d typed errors, %d violations\n",
		requests.Load(), okRuns.Load(), typedErrs.Load(), violations.Load())
	fmt.Printf("ndsoak: tenant gate %+v\n", st.Gate)
	fmt.Printf("ndsoak: weights: peak %d B, %d evictions (%d filters, %d B), %d forced, %d pack denials\n",
		st.WeightPeak, st.Evictions, st.EvictedFilters, st.EvictedBytes, st.ForcedEvictions, st.ResidencyDenied)
	fmt.Printf("ndsoak: quarantine: %d trips, %d reference infers, %d restores\n",
		st.Quarantines, st.ReferenceInfers, st.Restores)
	rs := st.Runtime
	fmt.Printf("ndsoak: worker pool %d workers, %d dispatched, %d spawn-fallbacks\n",
		rs.WorkerPool.Workers, rs.WorkerPool.Dispatched, rs.WorkerPool.Spawned)
	if *integrity {
		fmt.Printf("ndsoak: integrity: %d sentinel probes, %d integrity failures, kernel quarantines/restores %d/%d\n",
			rs.SentinelProbes, rs.IntegrityFailures, rs.KernelQuarantines, rs.KernelRestores)
		fmt.Printf("ndsoak: integrity: %d packed verifies (%d failed), %d scratch canary trips\n",
			rs.Integrity.PackedVerifies, rs.Integrity.PackedVerifyFailures, rs.Integrity.ScratchCanaryTrips)
		// Invariant 6: the detection layers actually fired. The oracle
		// comparison proves no corruption got through; these prove the
		// storm's corruptions were caught rather than never injected.
		if *storm {
			if rs.Integrity.PackedVerifyFailures == 0 {
				violate("storm armed weight-bitflip but no packed checksum verification ever failed")
			}
			if rs.Integrity.ScratchCanaryTrips == 0 {
				violate("storm armed scratch-overrun but no scratch canary ever tripped")
			}
		}
	}
	if violations.Load() > 0 {
		os.Exit(1)
	}
}

// typedError reports whether err wraps one of the sentinels the
// serving contract allows a request to fail with.
func typedError(err error) bool {
	return errors.Is(err, core.ErrOverloaded) ||
		errors.Is(err, conv.ErrDeadline) ||
		errors.Is(err, core.ErrExecFault) ||
		errors.Is(err, parallel.ErrWorkerPanic) ||
		errors.Is(err, core.ErrIntegrity) ||
		errors.Is(err, serve.ErrUnknownModel)
}

// sentinelDrill proves the sentinel's unattended quarantine/restore
// loop after the traffic drains: an unlimited kernel-miscompute is
// armed (it fires only at the sentinel's golden probes), the drill
// waits for a kernel family to be quarantined out of dispatch, clears
// the fault, and waits for every family to be restored.
func sentinelDrill(rt *serve.Runtime, violate func(string, ...any)) {
	defer faultinject.Reset()
	faultinject.ArmN(faultinject.KernelMiscompute, -1, -1)
	deadline := time.Now().Add(15 * time.Second)
	for rt.Stats().KernelQuarantines == 0 {
		if time.Now().After(deadline) {
			violate("sentinel never quarantined a kernel family under an armed kernel-miscompute")
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	faultinject.Reset()
	deadline = time.Now().Add(15 * time.Second)
	for {
		st := rt.Stats()
		if st.KernelRestores >= st.KernelQuarantines && core.KernelDispatchStats().Quarantined == 0 {
			fmt.Printf("ndsoak: sentinel drill: quarantined and restored (%d/%d), dispatch clean\n",
				st.KernelQuarantines, st.KernelRestores)
			return
		}
		if time.Now().After(deadline) {
			violate("sentinel failed to restore after the fault cleared: quarantines=%d restores=%d families still out=%d",
				st.KernelQuarantines, st.KernelRestores, core.KernelDispatchStats().Quarantined)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// buildModels registers every model with all fault injection disarmed
// and computes each oracle from the naive references (conv.Reference,
// depthwiseReference, maxPool2Reference) — never from an engine under
// test. Tenant t<i> gets class i mod 3 (batch/standard/premium) and
// model "m": conv+ReLU, on odd tenants a depthwise-separable block,
// then 2×2 max pooling, whose worker grid lets storm worker-panics
// surface as typed faults and exercise the per-model quarantine rung.
// Raw shape j becomes model "conv<j>" of tenant t<j mod nTenants>. The
// returned churn target is the last tenant's "m".
func buildModels(reg *serve.Registry, nTenants int) (models []*model, churned *model) {
	register := func(m *model) {
		if err := reg.Register(m.tenant, m.name, m.net); err != nil {
			fmt.Printf("ndsoak: setup: register %s/%s: %v\n", m.tenant, m.name, err)
			os.Exit(2)
		}
		models = append(models, m)
	}
	s := rawShapes[0]
	for i := 0; i < nTenants; i++ {
		tenant := fmt.Sprintf("t%d", i)
		reg.SetTenant(tenant, serve.TenantConfig{Class: serve.QoSClass(i % serve.NumQoSClasses)})
		w := s.NewFilter()
		fillInts(w, uint64(1000+2*i))
		m := &model{tenant: tenant, name: "m", in: s.NewInput()}
		fillInts(m.in, uint64(1001+2*i))
		layers := []nn.Layer{&nn.ConvUnit{LayerName: "conv1", Shape: s, Weights: w, ReLU: true}}
		y := conv.Reference(s, m.in, w)
		reluInPlace(y)
		if i%2 == 1 {
			// Integer weights + an exact-identity BN keep the block
			// bit-exact on the fused separable executor, its packed dw+pw
			// recovery ladder and the reference path alike.
			dwShape := conv.Shape{N: 1, C: 16, H: 16, W: 16, K: 16, R: 3, S: 3, Str: 1, Pad: 1}
			dwW := tensor.New(16, 3, 3)
			fillInts(dwW, uint64(5000+2*i))
			pwShape := conv.Shape{N: 1, C: 16, H: 16, W: 16, K: 24, R: 1, S: 1, Str: 1, Pad: 0}
			pwW := pwShape.NewFilter()
			fillInts(pwW, uint64(5001+2*i))
			layers = append(layers, &nn.DepthwiseSeparable{
				LayerName: "dwsep",
				DWShape:   dwShape,
				DWFilter:  dwW,
				DWBN:      exactIdentityBN(dwShape.C),
				PW:        &nn.ConvUnit{LayerName: "dwsep_pw", Shape: pwShape, Weights: pwW, ReLU: true},
			})
			y = depthwiseReference(dwShape, y, dwW)
			reluInPlace(y) // identity BN at Eps 0 contributes nothing
			y = conv.Reference(pwShape, y, pwW)
			reluInPlace(y)
		}
		m.net = &nn.Network{Name: tenant + "/m", Layers: append(layers, &nn.MaxPool{K: 2, Str: 2})}
		m.want = maxPool2Reference(y)
		register(m)
		churned = m
	}
	for j, rs := range rawShapes {
		w := rs.NewFilter()
		fillInts(w, uint64(2*j+2))
		m := &model{tenant: fmt.Sprintf("t%d", j%nTenants), name: fmt.Sprintf("conv%d", j), in: rs.NewInput()}
		fillInts(m.in, uint64(2*j+1))
		m.net = &nn.Network{Name: m.tenant + "/" + m.name, Layers: []nn.Layer{
			&nn.ConvUnit{LayerName: "conv", Shape: rs, Weights: w},
		}}
		m.want = conv.Reference(rs, m.in, w)
		register(m)
	}
	return models, churned
}

// exactIdentityBN builds BatchNorm parameters that fold to an exact
// float32 no-op: Eps = 0 so scale is exactly 1 and shift exactly 0,
// keeping integer tensors integer through every path.
func exactIdentityBN(c int) *nn.BNParams {
	bn := &nn.BNParams{
		Gamma: make([]float32, c),
		Beta:  make([]float32, c),
		Mean:  make([]float32, c),
		Var:   make([]float32, c),
	}
	for i := range bn.Gamma {
		bn.Gamma[i] = 1
		bn.Var[i] = 1
	}
	return bn
}

func reluInPlace(t *tensor.Tensor) {
	for i, v := range t.Data {
		if v < 0 {
			t.Data[i] = 0
		}
	}
}

// depthwiseReference is the naive per-channel oracle for the depthwise
// stage (s.K = s.C; filter is [C, R, S]). float64 accumulation like
// conv.Reference — exact for the soak's integer operands either way.
func depthwiseReference(s conv.Shape, in, filter *tensor.Tensor) *tensor.Tensor {
	p, q := s.P(), s.Q()
	out := tensor.New(s.N, s.C, p, q)
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			for oj := 0; oj < p; oj++ {
				for oi := 0; oi < q; oi++ {
					var acc float64
					for r := 0; r < s.R; r++ {
						ih := s.Str*oj - s.Pad + r
						if ih < 0 || ih >= s.H {
							continue
						}
						for ss := 0; ss < s.S; ss++ {
							iw := s.Str*oi - s.Pad + ss
							if iw < 0 || iw >= s.W {
								continue
							}
							acc += float64(in.Data[((n*s.C+c)*s.H+ih)*s.W+iw]) *
								float64(filter.Data[(c*s.R+r)*s.S+ss])
						}
					}
					out.Data[((n*s.C+c)*p+oj)*q+oi] = float32(acc)
				}
			}
		}
	}
	return out
}

// maxPool2Reference is the oracle for nn.MaxPool{K: 2, Str: 2}: the
// maximum of each non-overlapping 2×2 window of every plane.
func maxPool2Reference(in *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := in.Dims[0], in.Dims[1], in.Dims[2], in.Dims[3]
	p, q := h/2, w/2
	out := tensor.New(n, c, p, q)
	for nc := 0; nc < n*c; nc++ {
		src := in.Data[nc*h*w:]
		for oj := 0; oj < p; oj++ {
			for oi := 0; oi < q; oi++ {
				best := src[2*oj*w+2*oi]
				for _, v := range []float32{src[2*oj*w+2*oi+1], src[(2*oj+1)*w+2*oi], src[(2*oj+1)*w+2*oi+1]} {
					best = max(best, v)
				}
				out.Data[(nc*p+oj)*q+oi] = best
			}
		}
	}
	return out
}
