package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"ndirect/internal/core"
	"ndirect/internal/serve"
	"ndirect/internal/tensor"
)

const (
	benchTenant = "bench"
	// distinctInputs is how many different seeded input tensors each
	// model is asked about.
	distinctInputs = 16
	// warmRequests are sent per model after registration, before any
	// clock that is not setup_s starts: the first builds plans and packs
	// weights, the rest settle pools and connections.
	warmRequests = 32
	// sloLimitMs and sloFailRatio define "in SLO" for an open-loop rate:
	// p95 from the due time within the limit, and at most this share of
	// requests failed.
	sloLimitMs   = 25.0
	sloFailRatio = 0.01
	// loRate and hiRate are the traced run's open-loop arrival rates. On
	// the sizing host the `mid` model's closed-loop capacity over two
	// connections is ~205 req/s, so hiRate is half of it and loRate a
	// fifth.
	loRate = 40.0
	hiRate = 100.0
)

// The server configurations. The sentinel stays at ndserve's default.
var (
	smallServe = serveConfig{inFlight: 2, queue: 16, batchWindow: 0, batchMax: serve.DefaultBatchMax, sentinel: time.Second}
	midServe   = serveConfig{inFlight: 2, queue: 16, batchWindow: time.Millisecond, batchMax: 2, sentinel: time.Second}
)

// model is one registered network and the requests the load draws from.
type model struct {
	name     string
	spec     modelSpec
	requests []*request
	input    *tensor.Tensor // the first request's tensor, replayed in-process
}

var (
	tinyShape = shapeSpec{C: 8, H: 8, W: 8, K: 8, R: 3, S: 3, Stride: 1, Pad: 1}
	midShape  = shapeSpec{C: 32, H: 28, W: 28, K: 32, R: 3, S: 3, Stride: 1, Pad: 1}
)

// newModel prepares a model's requests and the oracle's answers from
// seed. bySeed sends {"seed":n} and lets the server generate the input
// (a 63 KB response to a 12-byte request); otherwise the tensor
// travels as dims+data.
func newModel(name string, spec modelSpec, seed uint64, bySeed bool) *model {
	m := &model{name: name, spec: spec}
	for i := 0; i < distinctInputs; i++ {
		inSeed := seed*1000 + uint64(i)
		x := spec.Shape.shape().NewInput()
		fillInts(x, inSeed)
		req := inferRequest{Dims: x.Dims, Data: x.Data}
		if bySeed {
			req = inferRequest{Seed: &inSeed}
		}
		want := expectedOutput(spec, x)
		if i == 0 {
			m.input = x
		}
		m.requests = append(m.requests, &request{
			path: "/v1/infer/" + benchTenant + "/" + name,
			body: encodeBody(req),
			want: encodeBody(inferResponse{Dims: want.Dims, Data: want.Data}),
		})
	}
	return m
}

// httpWorkload is what the HTTP workloads differ in. Both are measured
// closed loop: open-loop latencies on the sizing host amplify every
// hiccup through the queue (p95 spread 9–32 % over ten runs at half of
// capacity, p50 23–45 % at a fifth — README.md), so they are reported
// from the traced run and not bounded.
type httpWorkload struct {
	serve  serveConfig
	models func(seed uint64) []*model
	// openRates are the Poisson arrival rates (lowest first) the traced
	// run also drives the server at, open loop, reporting without bounds.
	openRates []float64
	// smallShape marks the workload whose kernels are so small that the
	// traced run asks whether a second thread pays for itself.
	smallShape bool
}

// bringUp is the timed set-up: spawn ndserve, wait for /healthz, set
// the tenant, register every model, warm every model.
func (hw httpWorkload) bringUp(models []*model) (*server, error) {
	srv, err := startServer(hw.serve.flags())
	if err != nil {
		return nil, err
	}
	err = srv.expect(http.MethodPut, "/v1/tenants/"+benchTenant, map[string]any{"class": "standard", "max_outstanding": 0}, http.StatusNoContent)
	for _, m := range models {
		if err == nil {
			err = srv.expect(http.MethodPost, "/v1/models/"+benchTenant+"/"+m.name, m.spec, http.StatusCreated)
		}
		for i := 0; i < warmRequests && err == nil; i++ {
			if s := send(srv, m.requests[i%len(m.requests)], time.Now(), 0, nil, 0); !s.ok {
				err = fmt.Errorf("warm-up request %d to %s failed or returned a body that differs from the oracle's", i, m.name)
			}
		}
	}
	if err != nil {
		srv.stop()
		return nil, fmt.Errorf("%w\n%s", err, srv.logs.String())
	}
	return srv, nil
}

// closed runs the workload's closed loop for d: each client alternates
// over the models, inputs drawn from a seeded stream.
func (hw httpWorkload) closed(srv *server, models []*model, seed uint64, d time.Duration, tr *tracer) loadSummary {
	rngs := make([]*rand.Rand, loadConnections)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(int64(seed)*7919 + int64(c)))
	}
	return summarize(closedLoop(srv, d, tr, func(c, i int) *request {
		m := models[(i+c)%len(models)]
		return m.requests[rngs[c].Intn(len(m.requests))]
	}))
}

// open drives the server open loop for d: seeded Poisson arrivals at
// rate per second, latency counted from each request's due time.
func (hw httpWorkload) open(srv *server, models []*model, seed uint64, rate float64, d time.Duration, tr *tracer) loadSummary {
	schedule := poissonSchedule(seed, rate, d)
	rng := rand.New(rand.NewSource(int64(seed) * 7919))
	picks := make([]*request, len(schedule))
	for i := range picks {
		m := models[i%len(models)]
		picks[i] = m.requests[rng.Intn(len(m.requests))]
	}
	return summarize(openLoop(srv, schedule, tr, func(i int) *request { return picks[i] }))
}

func (hw httpWorkload) run(cfg runConfig) (runResult, error) {
	models := hw.models(cfg.seed)
	var srv *server
	setupS, err := medianSetup(func() (err error) {
		if srv != nil {
			srv.stop()
		}
		srv, err = hw.bringUp(models)
		return err
	})
	if err != nil {
		return runResult{}, err
	}
	defer srv.stop()
	settle()

	if !cfg.trace {
		d := cfg.duration(1)
		s := hw.closed(srv, models, cfg.seed, d, nil)
		out := runResult{attempted: s.sent, failed: s.failed, samples: s.sent}
		if s.failed == 0 {
			out.metrics = map[string]float64{
				"setup_s": setupS, "throughput_per_s": float64(s.ok) / d.Seconds(),
				"latency_p50_ms": median(s.latency),
			}
		}
		return out, nil
	}

	// Traced run: an untraced slice for the overhead ratio, then the
	// traced slice between two reads of the server's counters, then a
	// slice at each open-loop rate, then the in-process replay of each
	// model through the nested public calls.
	d := cfg.duration(0.2)
	plain := hw.closed(srv, models, cfg.seed, d, nil)
	before, err := srv.stats()
	if err != nil {
		return runResult{}, err
	}
	cpuBefore, _ := procUsage(srv.cmd.Process.Pid)
	s := hw.closed(srv, models, cfg.seed+1, d, cfg.tracer)
	after, err := srv.stats()
	if err != nil {
		return runResult{}, err
	}
	cpuAfter, peakRSS := procUsage(srv.cmd.Process.Pid)
	out := runResult{attempted: plain.sent + s.sent, failed: plain.failed + s.failed, samples: s.sent}

	m := map[string]float64{}
	n := float64(s.sent)
	m["loadgen.sent"], m["loadgen.ok"], m["loadgen.failed"] = n, float64(s.ok), float64(s.failed)
	m["loadgen.trace_overhead_ratio"] = float64(plain.ok) / float64(s.ok)
	m["loadgen.latency_p95_ms"], m["ndserve.latency_p99_ms"] = percentile(s.latency, 95), percentile(s.latency, 99)
	m["ndserve.cpu_s_per_kreq"] = (cpuAfter - cpuBefore) / n * 1000
	m["ndserve.peak_rss_mb"] = peakRSS
	addCounterDeltas(m, before, after, n)
	for i, rate := range hw.openRates {
		ol := hw.open(srv, models, cfg.seed+2+uint64(i), rate, d, cfg.tracer)
		out.attempted, out.failed = out.attempted+ol.sent, out.failed+ol.failed
		if p95 := percentile(ol.latency, 95); p95 <= sloLimitMs && float64(ol.failed) <= sloFailRatio*float64(ol.sent) {
			m["ndserve.rate_in_slo"] = rate
		}
		if i < len(hw.openRates)-1 {
			m["loadgen.lo_latency_p50_ms"] = median(ol.latency)
			continue
		}
		m["loadgen.hi_latency_p50_ms"], m["loadgen.hi_latency_p95_ms"] = median(ol.latency), percentile(ol.latency, 95)
		m["loadgen.late_p95_ms"] = percentile(ol.late, 95)
	}
	if out.failed > 0 {
		return out, nil
	}

	var all []layerTimes
	k := float64(len(models))
	for i, mod := range models {
		infer, registerMs, closeRuntime, err := registerModel(hw.serve, buildNet(mod.name, mod.spec), mod.input)
		if err != nil {
			return out, err
		}
		lt, err := attribute(cfg.tracer, i, infer, buildNet(mod.name, mod.spec), mod.input, 20, 5000)
		closeRuntime()
		if err != nil {
			return out, err
		}
		lt.registerMs = registerMs
		all = append(all, lt)
		r := mod.requests[0]
		dec, enc, err := jsonCodingMs(r)
		if err != nil {
			return out, err
		}
		m["ndserve.json_decode_ms"] += dec / k
		m["ndserve.json_encode_ms"] += enc / k
		m["ndserve.req_bytes"] += float64(len(r.body)) / k
		m["ndserve.resp_bytes"] += float64(len(r.want)) / k
	}
	addLayerTimes(m, all)
	// What is left of a request once the in-process call and the JSON
	// coding of its bodies are taken out: HTTP, mux, sockets, scheduling.
	m["ndserve.http_self_ms"] = max(0, median(s.service)-m["serve.infer_ms"]-m["ndserve.json_decode_ms"]-m["ndserve.json_encode_ms"])
	if hw.smallShape {
		t2, t1, err := smallThreadTimes(models[0])
		if err != nil {
			return out, err
		}
		m["parallel.small_t2_over_t1"] = t2 / t1
	}
	out.metrics = m
	return out, nil
}

// addCounterDeltas turns two reads of GET /v1/stats around n requests
// into the counter ratios of the serve, core and parallel layers.
func addCounterDeltas(m map[string]float64, before, after serve.RegistryStats, n float64) {
	b, a := before.Runtime, after.Runtime
	var shed float64
	for c := range a.Gate.Admitted {
		shed += float64(after.Gate.ShedFull[c]-before.Gate.ShedFull[c]) + float64(after.Gate.ShedLate[c]-before.Gate.ShedLate[c])
	}
	shed += float64(after.Gate.TenantCapRejs - before.Gate.TenantCapRejs)
	m["serve.shed_ratio"] = shed / n
	m["serve.gate_waited_ratio"] = float64(a.Gate.Waited-b.Gate.Waited) / n
	m["serve.degraded_ratio"] = float64(a.DegradedRuns-b.DegradedRuns+a.ReferenceRuns-b.ReferenceRuns+after.ReferenceInfers-before.ReferenceInfers) / n

	batches, batched, solo := float64(a.BatchesExecuted-b.BatchesExecuted), float64(a.BatchedRequests-b.BatchedRequests), float64(a.BatchSoloFlushes-b.BatchSoloFlushes)
	m["serve.batch_mean_size"] = ratio(batched+solo, batches+solo)
	m["serve.batch_coalesced_ratio"] = batched / n
	m["serve.batch_solo_flush_ratio"] = solo / n

	hits, fresh := float64(a.PoolHits-b.PoolHits), float64(a.FreshAllocs-b.FreshAllocs)
	m["serve.pool_hit_ratio"] = ratio(hits, hits+fresh)
	m["serve.mem_peak_bytes"] = float64(a.MemPeak)
	m["serve.weight_resident_bytes"] = float64(after.WeightInUse)

	// Share of requests that made the server build no plan. Per-unit
	// plan memos answer most lookups before the shared cache sees them,
	// so hits/(hits+misses) of the cache alone would be 0/0 when warm.
	m["core.plan_hit_ratio"] = 1 - float64(a.PlanCache.Misses-b.PlanCache.Misses)/n
	m["parallel.spawned_per_kreq"] = float64(a.WorkerPool.Spawned-b.WorkerPool.Spawned) / n * 1000
	m["parallel.dispatched_per_req"] = float64(a.WorkerPool.Dispatched-b.WorkerPool.Dispatched) / n
}

// jsonCodingMs is the stdlib's time to decode r's request body and to
// encode its response body, through the structs ndserve uses.
func jsonCodingMs(r *request) (decodeMs, encodeMs float64, err error) {
	var resp inferResponse
	if err := json.Unmarshal(r.want, &resp); err != nil {
		return 0, 0, err
	}
	dec, err := timeCalls(nil, "json decode", 0, 0, replayBudget/4, 20, 5000, func() error {
		var req inferRequest
		return json.Unmarshal(r.body, &req)
	})
	if err != nil {
		return 0, 0, err
	}
	enc, err := timeCalls(nil, "json encode", 0, 0, replayBudget/4, 20, 5000, func() error {
		encodeBody(resp)
		return nil
	})
	return median(dec), median(enc), err
}

// smallThreadTimes is the first conv of m, steady and packed, at two
// threads and at one, in interleaved rounds.
func smallThreadTimes(m *model) (t2, t1 float64, err error) {
	spec := networkRowSpecs(buildNet(m.name, m.spec), 1)[0]
	var calls []namedCall
	for _, threads := range []int{2, 1} {
		r, err := newRow(spec, core.Options{Threads: threads})
		if err != nil {
			return 0, 0, err
		}
		calls = append(calls, namedCall{r.id, r.exec, -1})
	}
	ms, err := timeInterleaved(nil, 0, 0, replayBudget, 20, 20000, calls)
	if err != nil {
		return 0, 0, err
	}
	return median(ms[0]), median(ms[1]), nil
}

func runHTTPSmall(cfg runConfig) (runResult, error) {
	return httpWorkload{serve: smallServe, smallShape: true, models: func(seed uint64) []*model {
		return []*model{
			newModel("tiny", modelSpec{Seed: seed*31 + 11, ReLU: true, Shape: &tinyShape}, seed, false),
			newModel("tinysep", modelSpec{Seed: seed*31 + 12, ReLU: true, Shape: &tinyShape, Separable: true}, seed+1, false),
		}
	}}.run(cfg)
}

func runHTTPMid(cfg runConfig) (runResult, error) {
	return httpWorkload{serve: midServe, openRates: []float64{loRate, hiRate}, models: func(seed uint64) []*model {
		return []*model{newModel("mid", modelSpec{Seed: seed*31 + 13, ReLU: true, Shape: &midShape}, seed, true)}
	}}.run(cfg)
}
