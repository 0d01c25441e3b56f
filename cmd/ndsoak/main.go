// Command ndsoak is the chaos-soak harness for the serving runtime:
// it drives concurrent mixed-shape convolution and network-forward
// traffic through serve.Runtime while (with -storm) every fault
// injection point in the repository is armed and re-armed on a random
// schedule — worker panics, schedule corruption, NaN poisoning,
// packed-weight corruption, worker stalls — and asserts the survival
// invariants the overload-safe design promises:
//
//  1. Every request completes with either a bit-exact result (the
//     traffic uses integer-valued tensors, so all execution modes and
//     fallback paths agree to the bit) or an error wrapping one of the
//     typed sentinels (ErrOverloaded, ErrDeadline, ErrExecFault,
//     ErrWorkerPanic, ErrIntegrity). Anything else — a wrong answer,
//     an untyped error, a panic — is a violation.
//  2. After the storm, parallel.LeakedWorkers drains to zero: every
//     abandoned worker terminates once stalls are released.
//  3. Memory accounting returns to its post-setup baseline (the
//     packed-filter lifetime charges): no request leaks budget.
//  4. No deadlock: every client goroutine exits within a grace period
//     after the run ends (stalled workers are released by periodic
//     fault resets).
//  5. No goroutine growth: serving runs on the persistent worker pool
//     (plus transient spawn-fallback workers that exit with their
//     grid), so after the drain the process goroutine count settles
//     back to the post-setup baseline — a steady-state request must
//     not leave goroutines behind.
//
// With -integrity the storm additionally arms the silent-corruption
// drills (weight-bitflip, scratch-overrun, kernel-miscompute), the
// runtime's integrity sentinel runs throughout, packed-filter checksum
// sampling is tightened, and two more invariants apply:
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
// Exit status: 0 on a clean soak, 1 on invariant violations, 2 on a
// hang (clients failed to drain). CI runs this for ~30 seconds with
// -storm on every push, plus an -integrity -storm soak under -race.
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

// workload is one pre-validated traffic unit: a shape, integer-valued
// operands, the bit-exact oracle, and (for some) a packed filter.
type workload struct {
	shape  conv.Shape
	in     *tensor.Tensor
	filter *tensor.Tensor
	want   *tensor.Tensor
	packed *core.PackedFilter // nil: plain traffic only
}

// fillInts fills t with integers in [-3, 3]. Integer tensors make
// every path — optimised grid, degraded plan, float64 reference
// fallback, im2col — produce identical bits, so the soak can demand
// exact equality from whatever mode the ladder picked.
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
	memKB := flag.Int64("mem-kb", 256, "global memory budget in KiB (0 = unlimited); lower it (e.g. 64) so requests over-run the budget and walk the degradation ladder")
	storm := flag.Bool("storm", false, "arm every fault injection point on a random schedule")
	seed := flag.Int64("seed", 1, "storm/traffic random seed")
	verbose := flag.Bool("v", false, "log every violation as it happens")
	tenants := flag.Int("tenants", 0, "run the multi-tenant registry soak with this many tenants (0 = classic single-runtime soak)")
	weightKB := flag.Int64("weight-kb", 0, "packed-weight residency budget in KiB for -tenants mode (0 = unlimited); lower it so serving thrashes the weight LRU")
	integrity := flag.Bool("integrity", false, "run the integrity sentinel, arm the silent-corruption drills in the storm, and assert every injected corruption is detected")
	flag.Parse()

	cfg := serve.Config{
		MaxInFlight:   *inFlight,
		MaxQueue:      2 * *inFlight,
		MemLimitBytes: *memKB << 10,
		Options:       core.Options{Threads: *threads, FallbackBudget: 40 * time.Millisecond},
		Engine: &nn.Engine{
			// im2col so the storm's worker panics exercise the
			// baseline→nDirect degradation and the circuit breakers.
			Algo:             nn.AlgoIm2col,
			Threads:          *threads,
			ConvBudget:       60 * time.Millisecond,
			Reuse:            true,
			BreakerThreshold: 5,
			BreakerCooldown:  2 * time.Second,
		},
	}
	if *integrity {
		// The sentinel probes only when the gate is idle, so a short
		// interval costs the soak nothing while traffic is flowing and
		// turns every lull into a verification pass.
		cfg.SentinelInterval = 2 * time.Millisecond
		// Tighten checksum sampling from the production default so the
		// sampled (not just injection-forced) verification path fires
		// many times inside a 30-second soak.
		core.SetPackedVerifyInterval(64)
	}
	rt := serve.New(cfg)

	if *tenants > 0 {
		os.Exit(runTenantSoak(rt, *tenants, *weightKB, *duration, *clients, *inFlight, *seed, *storm, *verbose))
	}

	works, baseline, net, netIn, netWant := buildTraffic(rt)
	// Post-setup goroutine baseline: serve.New has already warmed the
	// persistent worker pool, so everything counted here is expected to
	// still exist after the soak drains (invariant 5).
	gBase := runtime.NumGoroutine()
	fmt.Printf("ndsoak: %d shapes, %d clients, %v, budget %d KiB, baseline %d B / %d goroutines, storm=%v\n",
		len(works), *clients, *duration, *memKB, baseline, gBase, *storm)

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

	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + 1000 + int64(c)))
			for trafficCtx.Err() == nil {
				requests.Add(1)
				w := works[rng.Intn(len(works))]
				deadline := time.Duration(5+rng.Intn(95)) * time.Millisecond
				ctx, cancel := context.WithTimeout(trafficCtx, deadline)

				var out *tensor.Tensor
				var err error
				var want *tensor.Tensor
				switch op := rng.Intn(10); {
				case op < 2: // network forward through the gated engine
					out, err = rt.Forward(ctx, net, netIn)
					want = netWant
				case op < 5 && w.packed != nil: // packed serving path
					out, err = rt.TryConv2DPackedCtx(ctx, w.shape, w.in, w.packed)
					want = w.want
				default: // plain serving path
					out, err = rt.TryConv2DCtx(ctx, w.shape, w.in, w.filter)
					want = w.want
				}
				cancel()

				if err != nil {
					if !typedError(err) {
						violate("untyped error from %v: %v", w.shape, err)
					} else {
						typedErrs.Add(1)
					}
					continue
				}
				if d := tensor.MaxAbsDiff(want, out); d != 0 {
					violate("result differs from oracle by %g on %v", d, w.shape)
					continue
				}
				okRuns.Add(1)
				if rng.Intn(2) == 0 && out != netWant {
					rt.Recycle(out)
				}
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
				st := rt.Stats()
				fmt.Printf("ndsoak: %d requests (%d ok, %d typed errors, %d violations); modes full/degraded/ref = %d/%d/%d; leaked=%d\n",
					requests.Load(), okRuns.Load(), typedErrs.Load(), violations.Load(),
					st.FullRuns, st.DegradedRuns, st.ReferenceRuns, parallel.LeakedWorkers())
			}
		}
	}()

	// Drain: clients may be blocked inside a stalled grid; keep
	// releasing stalls until they exit, and call the run hung if they
	// cannot drain inside the grace period.
	<-trafficCtx.Done()
	<-stormDone
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

	// Invariant 7 (-integrity): with the gate idle, the sentinel must
	// close the detect→quarantine→restore loop on its own. Runs before
	// rt.Close() tears the sentinel down.
	if *integrity {
		sentinelDrill(rt, violate)
	}
	rt.Close()

	// Invariant 5: goroutine count settles back to the post-setup
	// baseline — steady-state serving dispatches onto the persistent
	// pool, and spawn-fallback workers exit with their grid, so any
	// residue above the baseline (plus the still-parked leak monitors'
	// slack already counted by invariant 2) is a per-call leak.
	gDeadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > gBase {
		if time.Now().After(gDeadline) {
			violate("goroutine count did not settle: %d live, want <= %d (post-setup baseline)",
				runtime.NumGoroutine(), gBase)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Invariant 3: memory accounting back to the post-setup baseline.
	st := rt.Stats()
	if st.MemInUse != baseline {
		violate("memory accounting did not return to baseline: %d B in use, want %d B", st.MemInUse, baseline)
	}
	if st.Gate.InFlight != 0 || st.Gate.Queued != 0 {
		violate("gate not drained: %+v", st.Gate)
	}

	fmt.Printf("ndsoak: done: %d requests, %d ok, %d typed errors, %d violations\n",
		requests.Load(), okRuns.Load(), typedErrs.Load(), violations.Load())
	fmt.Printf("ndsoak: gate %+v\n", st.Gate)
	fmt.Printf("ndsoak: ladder full/degraded/ref = %d/%d/%d, over-budget %d, rejected %d; pool hits/fresh = %d/%d; peak %d B\n",
		st.FullRuns, st.DegradedRuns, st.ReferenceRuns, st.OverBudget, st.MemRejected, st.PoolHits, st.FreshAllocs, st.MemPeak)
	fmt.Printf("ndsoak: worker pool %d workers, %d dispatched, %d spawn-fallbacks\n",
		st.WorkerPool.Workers, st.WorkerPool.Dispatched, st.WorkerPool.Spawned)
	if br := rt.Engine().BreakerStats(nn.AlgoIm2col); br.Trips > 0 || br.Skips > 0 {
		fmt.Printf("ndsoak: im2col breaker %+v\n", br)
	}
	if *integrity {
		fmt.Printf("ndsoak: integrity: %d sentinel probes, %d canary trips, %d integrity failures, kernel quarantines/restores %d/%d\n",
			st.SentinelProbes, st.CanaryTrips, st.IntegrityFailures, st.KernelQuarantines, st.KernelRestores)
		fmt.Printf("ndsoak: integrity: %d packed verifies (%d failed), %d scratch canary trips\n",
			st.Integrity.PackedVerifies, st.Integrity.PackedVerifyFailures, st.Integrity.ScratchCanaryTrips)
		// Invariant 6: the detection layers actually fired. The oracle
		// comparison proves no corruption got through; these prove the
		// storm's corruptions were caught rather than never injected.
		if *storm {
			if st.Integrity.PackedVerifyFailures == 0 {
				violate("storm armed weight-bitflip but no packed checksum verification ever failed")
			}
			if st.Integrity.ScratchCanaryTrips == 0 {
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
		errors.Is(err, core.ErrIntegrity)
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

// buildTraffic precomputes the mixed-shape workloads and their oracles
// (all fault injection disarmed), packs filters for part of the set,
// and builds the small network the forward traffic uses. Returns the
// post-setup budget baseline (the packed lifetime charges).
func buildTraffic(rt *serve.Runtime) (works []*workload, baseline int64, net *nn.Network, netIn, netWant *tensor.Tensor) {
	shapes := []conv.Shape{
		{N: 1, C: 8, H: 16, W: 16, K: 16, R: 3, S: 3, Str: 1, Pad: 1},
		{N: 1, C: 16, H: 14, W: 14, K: 32, R: 3, S: 3, Str: 1, Pad: 1},
		{N: 2, C: 5, H: 9, W: 9, K: 13, R: 3, S: 3, Str: 1, Pad: 1},
		{N: 1, C: 16, H: 28, W: 28, K: 16, R: 1, S: 1, Str: 1, Pad: 0},
		{N: 1, C: 4, H: 32, W: 32, K: 8, R: 5, S: 5, Str: 2, Pad: 2},
	}
	for i, s := range shapes {
		w := &workload{shape: s, in: s.NewInput(), filter: s.NewFilter()}
		fillInts(w.in, uint64(2*i+1))
		fillInts(w.filter, uint64(2*i+2))
		w.want = conv.Reference(s, w.in, w.filter)
		if i%2 == 0 {
			pf, err := rt.Pack(s, w.filter)
			if err != nil {
				fmt.Printf("ndsoak: setup: Pack(%v): %v\n", s, err)
				os.Exit(2)
			}
			w.packed = pf
		}
		works = append(works, w)
	}

	// One integer-weight conv+ReLU unit followed by a depthwise-
	// separable block: integer weights and an exact-identity BN
	// (Eps = 0, so the fold contributes bit-nothing) keep the oracle
	// exact on every engine backend and ladder rung — fused separable,
	// unfused composition, post-breaker nDirect and the float64
	// reference alike.
	ns := conv.Shape{N: 1, C: 8, H: 16, W: 16, K: 16, R: 3, S: 3, Str: 1, Pad: 1}
	nw := ns.NewFilter()
	fillInts(nw, 77)
	dwShape := conv.Shape{N: 1, C: 16, H: 16, W: 16, K: 16, R: 3, S: 3, Str: 1, Pad: 1}
	dwW := tensor.New(16, 3, 3)
	fillInts(dwW, 79)
	pwShape := conv.Shape{N: 1, C: 16, H: 16, W: 16, K: 24, R: 1, S: 1, Str: 1, Pad: 0}
	pwW := pwShape.NewFilter()
	fillInts(pwW, 80)
	net = &nn.Network{Name: "soak", Layers: []nn.Layer{
		&nn.ConvUnit{LayerName: "conv1", Shape: ns, Weights: nw, ReLU: true},
		&nn.DepthwiseSeparable{
			LayerName: "dwsep",
			DWShape:   dwShape,
			DWFilter:  dwW,
			DWBN:      exactIdentityBN(dwShape.C),
			PW:        &nn.ConvUnit{LayerName: "dwsep_pw", Shape: pwShape, Weights: pwW, ReLU: true},
		},
	}}
	netIn = ns.NewInput()
	fillInts(netIn, 78)
	// The oracle composes the naive per-stage references (injection is
	// still disarmed here).
	y := conv.Reference(ns, netIn, nw)
	reluInPlace(y)
	mid := depthwiseReference(dwShape, y, dwW)
	reluInPlace(mid) // identity BN at Eps 0 contributes nothing
	netWant = conv.Reference(pwShape, mid, pwW)
	reluInPlace(netWant)
	return works, rt.Budget().InUse(), net, netIn, netWant
}

// exactIdentityBN builds BatchNorm parameters that fold to an exact
// float32 no-op: Eps = 0 so scale is exactly 1 and shift exactly 0,
// keeping integer tensors integer through every rung.
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
