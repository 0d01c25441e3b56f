package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"ndirect/internal/core"
	"ndirect/internal/nn"
	"ndirect/internal/serve"
	"ndirect/internal/tensor"
)

// Attribution measures one input through the nested public calls
//
//	serve.Registry.Infer ⊃ nn.Network.TryForward ⊃ core.*Plan.TryExecutePacked
//
// each as its own timed call from outside the layer. A layer's self
// time is its call minus the call one level down on the same shapes,
// so nothing inside the program needs a clock of its own.

// bnEpilogue is a conv unit's bias/BN/ReLU in the fused-store form the
// Reuse+nDirect engine gives its plans, built from the unit's exported
// fields with the float32 expressions nn documents for it.
func bnEpilogue(bias []float32, bn *nn.BNParams, ch int, relu bool) *core.EpilogueParams {
	if bias == nil && bn == nil && !relu {
		return nil
	}
	ep := &core.EpilogueParams{Bias: bias, ReLU: relu}
	if bn != nil {
		ep.Scale, ep.Shift = make([]float32, ch), make([]float32, ch)
		for k := range ep.Scale {
			sc := bn.Gamma[k] / float32(math.Sqrt(float64(bn.Var[k])+float64(bn.Eps)))
			ep.Scale[k], ep.Shift[k] = sc, bn.Beta[k]-bn.Mean[k]*sc
		}
	}
	return ep
}

// networkRowSpecs lists the core executions one forward pass of net
// makes, in order: each conv unit as a standard row with its fused
// epilogue, each separable block as a fused row. Inputs are seeded
// noise of the right geometry: kernel time does not depend on the
// values.
func networkRowSpecs(net *nn.Network, seed uint64) []rowSpec {
	var specs []rowSpec
	addUnit := func(u *nn.ConvUnit) {
		s := u.Shape.WithBatch(1)
		specs = append(specs, rowSpec{
			id: u.LayerName, shape: s, weight: 1, w: u.Weights,
			in: seededTensor(seed+uint64(len(specs)), s.N, s.C, s.H, s.W),
			ep: bnEpilogue(u.Bias, u.BN, s.K, u.ReLU),
		})
	}
	var walk func(ls []nn.Layer)
	walk = func(ls []nn.Layer) {
		for _, l := range ls {
			switch v := l.(type) {
			case *nn.ConvUnit:
				addUnit(v)
			case *nn.Bottleneck:
				for _, u := range []*nn.ConvUnit{v.Downsample, v.Conv1, v.Conv2, v.Conv3} {
					if u != nil {
						addUnit(u)
					}
				}
			case *nn.DepthwiseSeparable:
				d, pw := v.DWShape.WithBatch(1), v.PW
				specs = append(specs, rowSpec{
					id:     v.LayerName,
					sep:    &core.SeparableShape{N: 1, C: d.C, H: d.H, W: d.W, K: pw.Shape.K, R: d.R, S: d.S, Str: d.Str, Pad: d.Pad},
					weight: 1, w: v.DWFilter, pw: pw.Weights,
					in:   seededTensor(seed+uint64(len(specs)), 1, d.C, d.H, d.W),
					dwEp: bnEpilogue(nil, v.DWBN, d.C, true),
					ep:   bnEpilogue(pw.Bias, pw.BN, pw.Shape.K, pw.ReLU),
				})
			}
		}
	}
	walk(net.Layers)
	return specs
}

// namedCall is one timed call into a layer; name is its span name.
// under is the index of the call of the same round it is one level
// down from (its span's parent), or -1 for a call at the top.
type namedCall struct {
	name  string
	f     func() error
	under int
}

// timeInterleaved calls every call in turn, round after round (ABAB,
// so slow drift of the host lands on all of them alike), until both
// minRounds and budget are spent, never more than maxRounds. It
// returns each call's milliseconds per round and records a span per
// call, nested as the calls' under fields say, top calls under parent.
func timeInterleaved(tr *tracer, parent, req int, budget time.Duration, minRounds, maxRounds int, calls []namedCall) ([][]float64, error) {
	ms := make([][]float64, len(calls))
	start := time.Now()
	ids := make([]int, len(calls))
	for i := 0; i < maxRounds && (i < minRounds || time.Since(start) < budget); i++ {
		for c, call := range calls {
			t0 := time.Now()
			if err := call.f(); err != nil {
				return nil, fmt.Errorf("%s: %w", call.name, err)
			}
			t1 := time.Now()
			over := parent
			if call.under >= 0 {
				over = ids[call.under]
			}
			ids[c] = tr.add(call.name, over, req, t0, t1)
			ms[c] = append(ms[c], float64(t1.Sub(t0))/float64(time.Millisecond))
		}
	}
	return ms, nil
}

// timeCalls is timeInterleaved for a single call.
func timeCalls(tr *tracer, name string, parent, req int, budget time.Duration, minCalls, maxCalls int, f func() error) ([]float64, error) {
	ms, err := timeInterleaved(tr, parent, req, budget, minCalls, maxCalls, []namedCall{{name, f, -1}})
	if err != nil {
		return nil, err
	}
	return ms[0], nil
}

// serveConfig is the in-process equivalent of the ndserve flags a
// workload runs its server with, so the replay's serve layer is the
// one the HTTP requests went through.
type serveConfig struct {
	inFlight, queue int
	batchWindow     time.Duration
	batchMax        int
	sentinel        time.Duration
}

func (c serveConfig) flags() []string {
	return []string{
		"-threads", fmt.Sprint(benchThreads), "-inflight", fmt.Sprint(c.inFlight), "-queue", fmt.Sprint(c.queue),
		"-batch-window", c.batchWindow.String(), "-batch-max", fmt.Sprint(c.batchMax), "-sentinel", c.sentinel.String(),
	}
}

func (c serveConfig) registry() (*serve.Runtime, *serve.Registry) {
	rt := serve.New(serve.Config{
		MaxInFlight: c.inFlight, MaxQueue: c.queue,
		BatchWindow: c.batchWindow, BatchMax: c.batchMax,
		SentinelInterval: c.sentinel,
		Options:          core.Options{Threads: benchThreads},
	})
	// Quarantine settings are ndserve's flag defaults.
	return rt, serve.NewRegistry(serve.RegistryConfig{
		Runtime: rt, MaxInFlight: c.inFlight, MaxQueue: c.queue,
		QuarantineThreshold: 3, QuarantineCooldown: 30 * time.Second,
	})
}

// replayBudget is how long the nested calls of one model are repeated
// for their medians; the round counts bound it for very fast and very
// slow models.
const replayBudget = time.Second

// layerTimes is one model's attribution: medians of the three nested
// calls, taken in interleaved rounds, and the one-off costs.
type layerTimes struct {
	inferMs, forwardMs, executeMs float64
	registerMs, firstForwardMs    float64
	planBuildUs, packFilterMs     float64
	allocsPerForward, bytesPerFwd float64
	allocsPerExecute              float64
	rows                          []*row // with CollectStats on, for the stage split
}

// Self times are floored at 0: where an outer call is all inner call
// (one conv and no glue), the two medians differ by less than the ~2 %
// the host lets them be measured to, in either direction.
func (lt layerTimes) serveSelfMs() float64 { return max(0, lt.inferMs-lt.forwardMs) }
func (lt layerTimes) glueMs() float64      { return max(0, lt.forwardMs-lt.executeMs) }

// registerModel registers net on a registry configured like the
// workload's server and returns the warm Infer call on x.
func registerModel(sc serveConfig, net *nn.Network, x *tensor.Tensor) (infer func() error, registerMs float64, closeRuntime func(), err error) {
	rt, reg := sc.registry()
	d, err := timed(func() error { return reg.Register(benchTenant, "m", net) })
	if err != nil {
		rt.Close()
		return nil, 0, nil, err
	}
	infer = func() error { _, err := reg.Infer(context.Background(), benchTenant, "m", x); return err }
	if err := infer(); err != nil { // cold: plans and packs
		rt.Close()
		return nil, 0, nil, err
	}
	return infer, float64(d) / float64(time.Millisecond), rt.Close, nil
}

// attribute measures x through the nested calls: infer (a warm
// Registry.Infer the caller prepared), Network.TryForward on net with
// the kind of engine Register gives a model, and every plan execution
// one forward pass of net makes. net must be an instance nothing has
// run yet, so its first forward is the cold one.
func attribute(tr *tracer, req int, infer func() error, net *nn.Network, x *tensor.Tensor, minRounds, maxRounds int) (layerTimes, error) {
	var lt layerTimes
	eng := &nn.Engine{Algo: nn.AlgoNDirect, Threads: benchThreads, Reuse: true, Plans: core.NewPlanCache(0)}
	forward := func() error { _, err := net.TryForward(eng, x); return err }
	d, err := timed(forward)
	if err != nil {
		return lt, err
	}
	lt.firstForwardMs = float64(d) / float64(time.Millisecond)

	specs := networkRowSpecs(net, 1)
	rs, err := buildRows(specs, core.Options{Threads: benchThreads})
	if err != nil {
		return lt, err
	}
	calls := []namedCall{{"serve.Registry.Infer", infer, -1}, {"nn.Network.TryForward", forward, 0}}
	for _, r := range rs.rows {
		calls = append(calls, namedCall{"core." + r.id + ".TryExecutePacked", r.exec, 1})
		lt.planBuildUs += float64(r.planBuild) / float64(time.Microsecond)
		lt.packFilterMs += float64(r.packFilter) / float64(time.Millisecond)
	}
	ms, err := timeInterleaved(tr, 0, req, replayBudget, minRounds, maxRounds, calls)
	if err != nil {
		return lt, err
	}
	lt.inferMs, lt.forwardMs = median(ms[0]), median(ms[1])
	for _, rowMs := range ms[2:] {
		lt.executeMs += median(rowMs)
	}

	if lt.allocsPerForward, lt.bytesPerFwd, err = allocsPer(forward, min(maxRounds, 16)); err != nil {
		return lt, err
	}
	if lt.allocsPerExecute, _, err = allocsPer(rs.rows[0].exec, 64); err != nil {
		return lt, err
	}
	clocked, err := buildRows(specs, core.Options{Threads: benchThreads, CollectStats: true})
	if err != nil {
		return lt, err
	}
	lt.rows = clocked.rows
	return lt, nil
}

// addLayerTimes writes the serve/nn/core attribution metrics as the
// mean over the workload's models (its requests alternate evenly).
func addLayerTimes(m map[string]float64, all []layerTimes) {
	n := float64(len(all))
	var rows []*row
	for _, lt := range all {
		m["serve.infer_ms"] += lt.inferMs / n
		m["serve.self_ms"] += lt.serveSelfMs() / n
		m["serve.register_ms"] += lt.registerMs / n
		m["nn.forward_ms"] += lt.forwardMs / n
		m["nn.glue_ms"] += lt.glueMs() / n
		m["nn.first_forward_ms"] += lt.firstForwardMs / n
		m["nn.allocs_per_forward"] += lt.allocsPerForward / n
		m["nn.bytes_per_forward"] += lt.bytesPerFwd / n
		m["core.execute_ms"] += lt.executeMs / n
		m["core.plan_build_us"] += lt.planBuildUs / n
		m["core.pack_filter_ms"] += lt.packFilterMs / n
		m["core.allocs_per_execute"] += lt.allocsPerExecute / n
		rows = append(rows, lt.rows...)
	}
	addStageShares(m, rows)
}
