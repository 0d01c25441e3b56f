package main

import (
	"context"
	"fmt"
	"time"

	"ndirect/internal/nn"
	"ndirect/internal/serve"
	"ndirect/internal/tensor"
)

// resnetServe is the in-process registry of the net_resnet50 workload:
// one client, no batching, no memory limit, the sentinel off (nothing
// is idle long enough for it to matter and its probes would be noise).
var resnetServe = serveConfig{inFlight: 2, queue: 16, batchMax: serve.DefaultBatchMax}

// im2colTolerance bounds nDirect-versus-im2col differences on the
// ResNet-50 output, relative to the largest expected value.
const im2colTolerance = 1e-3

// runNetResNet50 is the paper's Fig. 7 case: one client calling
// serve.Registry.Infer on nn.ResNet50(), N=1, a seeded 3×224×224
// input, Threads 2, Reuse engine.
func runNetResNet50(cfg runConfig) (runResult, error) {
	x := seededTensor(cfg.seed, 1, 3, 224, 224)
	ctx := context.Background()

	// Set-up: registry, Register, and the cold Infer that builds every
	// plan and packs every weight.
	var rt *serve.Runtime
	var reg *serve.Registry
	var first *tensor.Tensor
	var registerMs float64
	setupS, err := medianSetup(func() (err error) {
		if rt != nil {
			rt.Close()
		}
		net := nn.ResNet50() // weight generation is input making, but Register needs the instance
		t0 := time.Now()
		rt, reg = resnetServe.registry()
		if err := reg.Register(benchTenant, "resnet50", net); err != nil {
			return err
		}
		registerMs = float64(time.Since(t0)) / float64(time.Millisecond)
		first, err = reg.Infer(ctx, benchTenant, "resnet50", x)
		return err
	})
	if err != nil {
		return runResult{}, err
	}
	defer rt.Close()

	// Checked once against the im2col+GEMM engine, then every timed
	// output must equal the first bit for bit.
	ref, err := nn.ResNet50().TryForward(&nn.Engine{Algo: nn.AlgoIm2col, Threads: benchThreads}, x)
	if err != nil {
		return runResult{}, fmt.Errorf("im2col reference forward: %w", err)
	}
	if d := tensor.RelDiff(ref, first); d > im2colTolerance {
		return runResult{}, fmt.Errorf("ResNet-50 output differs from the im2col engine by %.2e (limit %.0e)", d, im2colTolerance)
	}
	want := outputHash(first)
	settle()

	out := runResult{}
	infer := func(d time.Duration, minCalls int, tr *tracer) ([]float64, error) {
		return timeCalls(tr, "serve.Registry.Infer", 0, 0, d, minCalls, 1<<30, func() error {
			y, err := reg.Infer(ctx, benchTenant, "resnet50", x)
			out.attempted++
			if err != nil || outputHash(y) != want {
				out.failed++
			}
			return nil
		})
	}
	if !cfg.trace {
		ms, _ := infer(cfg.duration(1), 3, nil)
		if out.failed == 0 {
			out.samples = len(ms)
			out.metrics = map[string]float64{
				"setup_s": setupS, "throughput_per_s": 1000 / mean(ms),
				"latency_p50_ms": median(ms),
			}
		}
		return out, nil
	}

	// Traced run: the workload's own calls are the serve-level spans;
	// TryForward and the plan executions are measured beside them on
	// their own network instance.
	plain, _ := infer(cfg.duration(0.2), 2, nil)
	before := reg.Stats()
	traced, _ := infer(cfg.duration(0.2), 2, cfg.tracer)
	after := reg.Stats()
	if out.failed > 0 {
		return out, nil
	}
	m := map[string]float64{}
	n := float64(len(traced))
	m["loadgen.sent"], m["loadgen.ok"] = n, n
	m["loadgen.trace_overhead_ratio"] = mean(traced) / mean(plain)
	addCounterDeltas(m, before, after, n)
	lt, err := attribute(cfg.tracer, 0, func() error { _, err := reg.Infer(ctx, benchTenant, "resnet50", x); return err }, nn.ResNet50(), x, 2, 2)
	if err != nil {
		return out, err
	}
	lt.registerMs = registerMs
	addLayerTimes(m, []layerTimes{lt})
	out.metrics = m
	return out, nil
}
