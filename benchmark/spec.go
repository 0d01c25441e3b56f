package main

import (
	"fmt"

	"ndirect/internal/conv"
)

// metricDef is one metric as BENCHMARK.json lists it. Bound is the
// share of the parent's median an end-to-end metric may worsen by
// before a change is rejected; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// workloadDef is one named workload: why it exists and how it runs.
type workloadDef struct {
	Name string
	Why  string
	run  func(runConfig) (runResult, error)
}

// runSeconds is how long one driver run measures (BENCHMARK.json's
// run_seconds); -smoke shortens it.
const runSeconds = 20

// workloads in reporting order. Every workload reports every
// end-to-end metric with the meaning given in README.md.
var workloads = []workloadDef{
	{"http_small", "closed loop over HTTP on two tiny models: the kernel is under a tenth of a request, so ndserve, serve and plan-memo overheads decide it; batching off", runHTTPSmall},
	{"http_mid", "closed loop over HTTP, 32ch 28x28 model, 1 ms batch window: kernel ~45% and the 63 KB JSON encode ~15% of a request, the two clients' requests coalesce; the traced run adds open-loop Poisson slices", runHTTPMid},
	{"net_resnet50", "in-process Registry.Infer on ResNet-50 (paper Fig. 7): core kernels are nearly all the time, nn glue the rest, HTTP and JSON none", runNetResNet50},
	{"layers", "steady-state packed Table-4 rows 1-23 weighted as ResNet-50 (paper Fig. 4): only the standard kernel works", runLayers},
	{"dwsep", "MobileNet rows 29-32 and the fused blocks 29-30 and 31-32: the depthwise and fused-separable kernels, which a standard-kernel change must not cost", runDWSep},
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
}

// perLayer are the traced run's metrics. A traced run prints all of
// them; one a workload does not exercise reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("ms", "lower", "ndserve.http_self_ms", "ndserve.json_decode_ms", "ndserve.json_encode_ms", "ndserve.latency_p99_ms")
	add("bytes", "lower", "ndserve.req_bytes", "ndserve.resp_bytes")
	add("s", "lower", "ndserve.cpu_s_per_kreq")
	add("MB", "lower", "ndserve.peak_rss_mb")
	add("1/s", "higher", "ndserve.rate_in_slo")

	add("ms", "lower", "serve.infer_ms", "serve.self_ms", "serve.register_ms")
	add("ratio", "lower", "serve.gate_waited_ratio", "serve.shed_ratio", "serve.degraded_ratio", "serve.batch_solo_flush_ratio")
	add("count", "higher", "serve.batch_mean_size")
	add("ratio", "higher", "serve.batch_coalesced_ratio", "serve.pool_hit_ratio")
	add("bytes", "lower", "serve.mem_peak_bytes", "serve.weight_resident_bytes")

	add("ms", "lower", "nn.forward_ms", "nn.glue_ms", "nn.first_forward_ms")
	add("count", "lower", "nn.allocs_per_forward")
	add("bytes", "lower", "nn.bytes_per_forward")

	for _, l := range conv.Table4[:23] {
		add("GFLOP/s", "higher", fmt.Sprintf("core.%s.gflops", rowLabel(l.ID)))
	}
	for _, l := range conv.MobileNetRows {
		add("GFLOP/s", "higher", fmt.Sprintf("core.%s.gflops", rowLabel(l.ID)))
	}
	for _, l := range conv.Table4[:23] {
		add("%", "higher", fmt.Sprintf("core.%s.pct_of_model", rowLabel(l.ID)))
	}
	add("GFLOP/s", "higher", "core.host_peak_gflops", "core.conv_gflops")
	add("ratio", "lower", "core.pack_share", "core.store_share")
	add("ratio", "higher", "core.kernel_share", "core.sep_fused_speedup", "core.plan_hit_ratio", "core.kernel_dispatch_hit_ratio")
	add("ms", "lower", "core.execute_ms", "core.pack_filter_ms")
	add("us", "lower", "core.plan_build_us")
	add("count", "lower", "core.allocs_per_execute")

	add("ratio", "higher", "parallel.scaling_eff_t2")
	add("ratio", "lower", "parallel.small_t2_over_t1")
	add("count", "lower", "parallel.spawned_per_kreq", "parallel.dispatched_per_req")

	add("count", "higher", "loadgen.sent", "loadgen.ok")
	add("count", "lower", "loadgen.failed")
	add("ms", "lower", "loadgen.latency_p95_ms", "loadgen.late_p95_ms", "loadgen.lo_latency_p50_ms", "loadgen.hi_latency_p50_ms", "loadgen.hi_latency_p95_ms")
	add("ratio", "lower", "loadgen.trace_overhead_ratio")
	return defs
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
