// Command ndserve is a multi-tenant HTTP inference front end over
// serve.Registry. Models are small integer-weight conv networks built
// server-side from a JSON spec (this is a serving-runtime demonstrator,
// not a weight-upload service): register a model under a tenant, set
// the tenant's QoS class and outstanding cap, then drive concurrent
// inference traffic — the registry shares one plan cache, worker pool
// and weight-residency budget across every tenant, sheds the lowest
// QoS class first under overload, and quarantines a faulting model to
// the reference path without touching its neighbours.
//
// Endpoints:
//
//	PUT    /v1/tenants/{tenant}            {"class":"batch|standard|premium","max_outstanding":N}
//	POST   /v1/models/{tenant}/{model}     {"seed":N,"relu":true,"shape":{...}} (shape optional)
//	DELETE /v1/models/{tenant}/{model}
//	POST   /v1/infer/{tenant}/{model}      {"seed":N} or {"dims":[n,c,h,w],"data":[...]}
//	GET    /v1/stats
//	GET    /healthz                        200 ok / 503 degraded, with integrity detail
//
// /v1/infer answers {"dims":[...],"data":[...]}, byte for byte what
// encoding/json writes for the output tensor, or 422 naming the first
// element when the output holds a NaN or ±Inf, which JSON cannot carry.
// Its request is read only for a registered model (404 otherwise) and
// only up to 32 bytes per input element plus 4 KiB (413 past that). The
// two canonical request forms are parsed straight into the input tensor
// (wire.go); any other body is decoded by encoding/json, so every body
// gets the status and values encoding/json gives it.
//
// /healthz reflects the silent-corruption defense (DESIGN.md §12): it
// reports degraded (HTTP 503, so a load balancer can rotate the
// replica out) while any kernel family or model is under integrity
// quarantine, and returns to ok when the background sentinel's clean
// probes restore them. -sentinel sets the probe interval.
//
// -selftest starts the server on a loopback port, drives a scripted
// multi-tenant exercise over real HTTP (register, concurrent bit-exact
// inference for two tenants, a forced weight-eviction storm, an
// integrity drill that forces a kernel-family quarantine and watches
// /healthz flip degraded→ok across the sentinel's restore, drain,
// unregister, budget-back-to-baseline), and exits 0/1. `make check`
// runs it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"ndirect/internal/conv"
	"ndirect/internal/core"
	"ndirect/internal/faultinject"
	"ndirect/internal/nn"
	"ndirect/internal/serve"
	"ndirect/internal/tensor"
)

// shapeSpec is the JSON form of a conv layer shape (batch is taken
// from the inference input).
type shapeSpec struct {
	C      int `json:"c"`
	H      int `json:"h"`
	W      int `json:"w"`
	K      int `json:"k"`
	R      int `json:"r"`
	S      int `json:"s"`
	Stride int `json:"stride"`
	Pad    int `json:"pad"`
}

func (sp shapeSpec) shape() conv.Shape {
	return conv.Shape{N: 1, C: sp.C, H: sp.H, W: sp.W, K: sp.K, R: sp.R, S: sp.S, Str: sp.Stride, Pad: sp.Pad}
}

// defaultShape is the spec used when a register request omits one.
var defaultShape = shapeSpec{C: 8, H: 16, W: 16, K: 16, R: 3, S: 3, Stride: 1, Pad: 1}

type modelSpec struct {
	Seed  uint64     `json:"seed"`
	ReLU  bool       `json:"relu"`
	Shape *shapeSpec `json:"shape,omitempty"`
	// Separable appends a depthwise-separable block (dw 3×3 over the
	// first conv's output, then a 1×1 expansion) — a MobileNet-class
	// model, served through the fused separable executor.
	Separable bool `json:"separable,omitempty"`
}

type inferRequest struct {
	Seed *uint64   `json:"seed,omitempty"`
	Dims []int     `json:"dims,omitempty"`
	Data []float32 `json:"data,omitempty"`
}

// inferResponse is the /v1/infer body; writeInferResponse writes it
// without building one.
type inferResponse struct {
	Dims []int     `json:"dims"`
	Data []float32 `json:"data"`
}

type tenantSpec struct {
	Class          string `json:"class"`
	MaxOutstanding int    `json:"max_outstanding"`
}

// fillInts fills t with integers in [-3, 3] from a deterministic
// stream, the same generator the soak harness uses: integer tensors
// make every execution mode (packed, unpacked, reference) bit-exact,
// so clients can verify responses against a local oracle.
func fillInts(t *tensor.Tensor, seed uint64) {
	x := seed*2654435761 + 12345
	for i := range t.Data {
		x = x*6364136223846793005 + 1442695040888963407
		t.Data[i] = float32(int64(x>>33)%7 - 3)
	}
}

// buildNet constructs the integer-weight network a modelSpec names.
// Registration and selftest oracles share this, so the bits agree.
func buildNet(name string, sp modelSpec) (*nn.Network, conv.Shape) {
	ss := defaultShape
	if sp.Shape != nil {
		ss = *sp.Shape
	}
	s := ss.shape()
	w := s.NewFilter()
	fillInts(w, sp.Seed)
	layers := []nn.Layer{
		&nn.ConvUnit{LayerName: "conv1", Shape: s, Weights: w, ReLU: sp.ReLU},
	}
	if sp.Separable {
		// Integer weights and an exact-identity BN (Eps = 0) keep the
		// block bit-exact on every rung, fused or not, like conv1.
		dw := conv.Shape{N: 1, C: s.K, H: s.P(), W: s.Q(), K: s.K, R: 3, S: 3, Str: 1, Pad: 1}
		dwW := tensor.New(dw.C, dw.R, dw.S)
		fillInts(dwW, sp.Seed+1)
		bn := &nn.BNParams{
			Gamma: make([]float32, dw.C),
			Beta:  make([]float32, dw.C),
			Mean:  make([]float32, dw.C),
			Var:   make([]float32, dw.C),
		}
		for i := range bn.Gamma {
			bn.Gamma[i] = 1
			bn.Var[i] = 1
		}
		pw := conv.Shape{N: 1, C: dw.C, H: dw.P(), W: dw.Q(), K: 2 * dw.C, R: 1, S: 1, Str: 1, Pad: 0}
		pwW := pw.NewFilter()
		fillInts(pwW, sp.Seed+2)
		layers = append(layers, &nn.DepthwiseSeparable{
			LayerName: "dwsep",
			DWShape:   dw,
			DWFilter:  dwW,
			DWBN:      bn,
			PW:        &nn.ConvUnit{LayerName: "dwsep_pw", Shape: pw, Weights: pwW, ReLU: true},
		})
	}
	return &nn.Network{Name: name, Layers: layers}, s
}

func parseClass(s string) (serve.QoSClass, error) {
	switch strings.ToLower(s) {
	case "batch":
		return serve.ClassBatch, nil
	case "standard", "":
		return serve.ClassStandard, nil
	case "premium":
		return serve.ClassPremium, nil
	}
	return 0, fmt.Errorf("unknown QoS class %q (want batch|standard|premium)", s)
}

// server owns the registry and remembers each model's input shape so
// seed-only inference requests can synthesise their input.
type server struct {
	reg *serve.Registry

	mu     sync.Mutex
	shapes map[string]conv.Shape // tenant\x00model → input shape
}

func httpStatus(err error) int {
	switch {
	case errors.Is(err, serve.ErrUnknownModel):
		return http.StatusNotFound
	case errors.Is(err, serve.ErrModelExists):
		return http.StatusConflict
	case errors.Is(err, core.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, core.ErrBadOptions), errors.Is(err, conv.ErrBadShape), errors.Is(err, conv.ErrDimMismatch):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func writeErr(w http.ResponseWriter, err error) {
	http.Error(w, err.Error(), httpStatus(err))
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (s *server) handlePutTenant(w http.ResponseWriter, r *http.Request) {
	var spec tenantSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		http.Error(w, "bad tenant spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	class, err := parseClass(spec.Class)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.reg.SetTenant(r.PathValue("tenant"), serve.TenantConfig{
		Class:          class,
		MaxOutstanding: spec.MaxOutstanding,
	})
	w.WriteHeader(http.StatusNoContent)
}

func (s *server) handleRegister(w http.ResponseWriter, r *http.Request) {
	tenant, model := r.PathValue("tenant"), r.PathValue("model")
	var spec modelSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil && err != io.EOF {
		http.Error(w, "bad model spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	net, shape := buildNet(tenant+"/"+model, spec)
	if err := s.reg.Register(tenant, model, net); err != nil {
		writeErr(w, err)
		return
	}
	s.mu.Lock()
	s.shapes[tenant+"\x00"+model] = shape
	s.mu.Unlock()
	w.WriteHeader(http.StatusCreated)
}

func (s *server) handleUnregister(w http.ResponseWriter, r *http.Request) {
	tenant, model := r.PathValue("tenant"), r.PathValue("model")
	if err := s.reg.Unregister(tenant, model); err != nil {
		writeErr(w, err)
		return
	}
	s.mu.Lock()
	delete(s.shapes, tenant+"\x00"+model)
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// handleInfer looks the model up, reads its body (at most
// maxInferBody bytes, else 413) into a pooled buffer, takes the input
// tensor from it and answers with the output from the same buffer.
func (s *server) handleInfer(w http.ResponseWriter, r *http.Request) {
	tenant, model := r.PathValue("tenant"), r.PathValue("model")
	s.mu.Lock()
	shape, ok := s.shapes[tenant+"\x00"+model]
	s.mu.Unlock()
	if !ok {
		writeErr(w, fmt.Errorf("%w: %s/%s", serve.ErrUnknownModel, tenant, model))
		return
	}
	limit := maxInferBody(shape)
	bp := wireBufs.Get().(*[]byte)
	defer putWireBuf(bp)
	buf := bytes.NewBuffer((*bp)[:0])
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	*bp = buf.Bytes()
	if errors.As(err, new(*http.MaxBytesError)) {
		http.Error(w, fmt.Sprintf("infer request body over %d bytes, the cap for this model's input", limit),
			http.StatusRequestEntityTooLarge)
		return
	}
	if err != nil {
		http.Error(w, "bad infer request: "+err.Error(), http.StatusBadRequest)
		return
	}
	x, err := inferInput(*bp, shape)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	out, err := s.reg.Infer(r.Context(), tenant, model, x)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeInferResponse(w, bp, out.Dims, out.Data)
}

// inferInput is the input tensor body asks for on a model whose input
// has shape: decodeInferRequest's for a canonical body, inferInputJSON's
// for any other.
func inferInput(body []byte, shape conv.Shape) (*tensor.Tensor, error) {
	x, seed, ok := decodeInferRequest(body)
	if !ok {
		return inferInputJSON(body, shape)
	}
	if x == nil {
		x = shape.NewInput()
		fillInts(x, seed)
	}
	return x, nil
}

// inferInputJSON decodes body with encoding/json. Every error it returns
// is the client's (a 400), its text the body of the answer.
func inferInputJSON(body []byte, shape conv.Shape) (*tensor.Tensor, error) {
	var req inferRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil && err != io.EOF {
		return nil, fmt.Errorf("bad infer request: %w", err)
	}
	switch {
	case req.Seed != nil:
		x := shape.NewInput()
		fillInts(x, *req.Seed)
		return x, nil
	case len(req.Dims) == 4 && len(req.Data) > 0:
		// Check every dim before multiplying, so a negative pair or an
		// overflowing product can never match len(data) and reach
		// tensor.New.
		n := int64(1)
		for _, d := range req.Dims {
			if d < 1 || d > conv.MaxDim || n > conv.MaxElems/int64(d) {
				return nil, fmt.Errorf("dims %v: each dim must be in [1, %d] and their product at most %d",
					req.Dims, conv.MaxDim, int64(conv.MaxElems))
			}
			n *= int64(d)
		}
		if n != int64(len(req.Data)) {
			return nil, fmt.Errorf("dims %v need %d elements, got %d", req.Dims, n, len(req.Data))
		}
		return tensor.FromSlice(req.Data, req.Dims...), nil
	}
	return nil, errors.New(`infer request needs "seed" or "dims"+"data"`)
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.reg.Stats())
}

// healthResponse is the GET /healthz body. A load balancer keys on the
// HTTP status alone (200 ok, 503 degraded); the fields tell an
// operator why: how much capacity is under integrity quarantine and
// what the defense layers have caught so far.
type healthResponse struct {
	Status             string `json:"status"`     // "ok" or "degraded"
	KernelISA          string `json:"kernel_isa"` // what the kernel families are bound to: "avx512", "avx2" or "go"
	KernelsQuarantined int    `json:"kernels_quarantined"`
	ModelsQuarantined  int    `json:"models_quarantined"`
	SentinelProbes     uint64 `json:"sentinel_probes"`
	IntegrityFailures  uint64 `json:"integrity_failures"`
	CanaryTrips        uint64 `json:"canary_trips"` // scratch guard words found overwritten
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	st := s.reg.Stats()
	h := healthResponse{
		Status:             "ok",
		KernelISA:          core.KernelISA(),
		KernelsQuarantined: core.KernelDispatchStats().Quarantined,
		ModelsQuarantined:  st.QuarantinedNow,
		SentinelProbes:     st.Runtime.SentinelProbes,
		IntegrityFailures:  st.Runtime.IntegrityFailures,
		CanaryTrips:        st.Runtime.Integrity.ScratchCanaryTrips,
	}
	if h.KernelsQuarantined > 0 || h.ModelsQuarantined > 0 {
		h.Status = "degraded"
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(h)
		return
	}
	writeJSON(w, h)
}

func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /v1/tenants/{tenant}", s.handlePutTenant)
	mux.HandleFunc("POST /v1/models/{tenant}/{model}", s.handleRegister)
	mux.HandleFunc("DELETE /v1/models/{tenant}/{model}", s.handleUnregister)
	mux.HandleFunc("POST /v1/infer/{tenant}/{model}", s.handleInfer)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	threads := flag.Int("threads", 2, "worker threads per convolution")
	inFlight := flag.Int("inflight", 8, "admission in-flight limit")
	queue := flag.Int("queue", 16, "admission queue length (class-graduated)")
	weightKB := flag.Int64("weight-kb", 0, "packed-weight residency budget in KiB (0 = unlimited)")
	quarThreshold := flag.Int("quar-threshold", 3, "consecutive faults before a model is quarantined")
	quarCooldown := flag.Duration("quar-cooldown", 30*time.Second, "quarantine cooldown before a probe")
	batchWindow := flag.Duration("batch-window", 0, "Deprecated: ignored; kept until benchmark/ stops setting it")
	flag.Int("batch-max", 0, "Deprecated: ignored; kept until benchmark/ stops setting it")
	sentinel := flag.Duration("sentinel", time.Second, "integrity sentinel probe interval (0 = disabled); probes run only while the tenant admission gate is idle")
	selftest := flag.Bool("selftest", false, "run the scripted multi-tenant exercise against a loopback server and exit")
	flag.Parse()

	if *batchWindow > 0 {
		fmt.Printf("ndserve: -batch-window %v ignored: every request runs as its own execution\n", *batchWindow)
	}
	if *selftest {
		// The integrity drill waits on the sentinel's quarantine and
		// restore; probe fast so the selftest finishes in seconds.
		*sentinel = 2 * time.Millisecond
	}
	rt := serve.New(serve.Config{
		SentinelInterval: *sentinel,
		Options:          core.Options{Threads: *threads},
	})
	defer rt.Close()
	s := &server{
		reg: serve.NewRegistry(serve.RegistryConfig{
			Runtime:             rt,
			MaxInFlight:         *inFlight,
			MaxQueue:            *queue,
			WeightLimitBytes:    *weightKB << 10,
			QuarantineThreshold: *quarThreshold,
			QuarantineCooldown:  *quarCooldown,
		}),
		shapes: map[string]conv.Shape{},
	}

	if *selftest {
		if err := runSelftest(s); err != nil {
			fmt.Fprintln(os.Stderr, "ndserve selftest: FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("ndserve selftest: OK")
		return
	}

	fmt.Printf("ndserve: kernel families %v bound to ISA %q\n", core.KernelFamilyNames(), core.KernelISA())
	fmt.Printf("ndserve: listening on %s (%d in-flight, queue %d, weight budget %d KiB)\n",
		*addr, *inFlight, *queue, *weightKB)
	srv := &http.Server{Addr: *addr, Handler: s.mux(), ReadHeaderTimeout: 5 * time.Second}
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "ndserve:", err)
		os.Exit(1)
	}
}

// runSelftest exercises the full multi-tenant lifecycle over real HTTP
// against an in-process loopback server: tenant QoS setup, model
// registration for two tenants, concurrent bit-exact inference, a
// forced weight-eviction storm (bit-exact re-packs under traffic),
// drain, unregister, and the weight budget back to its zero baseline.
func runSelftest(s *server) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: s.mux()}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Shutdown(context.Background())
	base := "http://" + ln.Addr().String()

	do := func(method, path string, body any, wantStatus int, out any) error {
		var rd io.Reader
		if body != nil {
			b, err := json.Marshal(body)
			if err != nil {
				return err
			}
			rd = bytes.NewReader(b)
		}
		req, err := http.NewRequest(method, base+path, rd)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			msg, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("%s %s: status %d (want %d): %s", method, path, resp.StatusCode, wantStatus, strings.TrimSpace(string(msg)))
		}
		if out != nil {
			return json.NewDecoder(resp.Body).Decode(out)
		}
		return nil
	}

	// Tenants: alice premium, bob batch (bob sheds first under load).
	if err := do("PUT", "/v1/tenants/alice", tenantSpec{Class: "premium", MaxOutstanding: 8}, http.StatusNoContent, nil); err != nil {
		return err
	}
	if err := do("PUT", "/v1/tenants/bob", tenantSpec{Class: "batch", MaxOutstanding: 8}, http.StatusNoContent, nil); err != nil {
		return err
	}

	// Register one model per tenant and compute local bit-exact oracles
	// (same deterministic builder the server uses).
	specs := map[string]modelSpec{"alice": {Seed: 11, ReLU: true}, "bob": {Seed: 22, ReLU: true}}
	oracles := map[string]*tensor.Tensor{}
	const inputSeed = 99
	for tn, spec := range specs {
		if err := do("POST", "/v1/models/"+tn+"/m", spec, http.StatusCreated, nil); err != nil {
			return err
		}
		net, shape := buildNet(tn+"/m", spec)
		x := shape.NewInput()
		fillInts(x, inputSeed)
		want, err := net.TryForward(&nn.Engine{Algo: nn.AlgoNDirect, Threads: 1}, x)
		if err != nil {
			return fmt.Errorf("oracle forward: %w", err)
		}
		oracles[tn] = want
	}
	// Duplicate registration is a typed conflict.
	if err := do("POST", "/v1/models/alice/m", specs["alice"], http.StatusConflict, nil); err != nil {
		return err
	}

	seed := uint64(inputSeed)
	inferModel := func(tn, model string, want *tensor.Tensor) error {
		var got inferResponse
		if err := do("POST", "/v1/infer/"+tn+"/"+model, inferRequest{Seed: &seed}, http.StatusOK, &got); err != nil {
			return err
		}
		if len(got.Data) != len(want.Data) {
			return fmt.Errorf("tenant %s/%s: got %d elements, want %d", tn, model, len(got.Data), len(want.Data))
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				return fmt.Errorf("tenant %s/%s: output differs at element %d: %g != %g", tn, model, i, got.Data[i], want.Data[i])
			}
		}
		return nil
	}
	inferOnce := func(tn string) error { return inferModel(tn, "m", oracles[tn]) }

	// Concurrent multi-tenant traffic, every response bit-exact.
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for _, tn := range []string{"alice", "bob"} {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(tn string) {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					if err := inferOnce(tn); err != nil {
						errCh <- err
						return
					}
				}
			}(tn)
		}
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
	}

	// Forced weight-eviction storm: every request drops the model's
	// packed residency and re-packs — responses must stay bit-exact.
	faultinject.ArmN(faultinject.WeightEvict, -1, -1)
	for i := 0; i < 5; i++ {
		if err := inferOnce("alice"); err != nil {
			faultinject.Reset()
			return fmt.Errorf("under eviction storm: %w", err)
		}
	}
	faultinject.Reset()

	var st serve.RegistryStats
	if err := do("GET", "/v1/stats", nil, http.StatusOK, &st); err != nil {
		return err
	}
	if st.ForcedEvictions < 5 {
		return fmt.Errorf("forced evictions = %d, want >= 5", st.ForcedEvictions)
	}
	if st.WeightInUse <= 0 {
		return fmt.Errorf("no packed weights resident after traffic (WeightInUse=%d)", st.WeightInUse)
	}

	// Concurrent burst: a volley of 16 same-geometry inferences, each its
	// own execution on the shared plans and packed weights, every
	// response bit-exact against the solo oracle. Lift alice's
	// outstanding cap first, so the burst queues at the gate instead of
	// tripping the tenant cap.
	if err := do("PUT", "/v1/tenants/alice", tenantSpec{Class: "premium", MaxOutstanding: 32}, http.StatusNoContent, nil); err != nil {
		return err
	}
	var bwg sync.WaitGroup
	burstErr := make(chan error, 16)
	for g := 0; g < 16; g++ {
		bwg.Add(1)
		go func() {
			defer bwg.Done()
			if err := inferOnce("alice"); err != nil {
				burstErr <- err
			}
		}()
	}
	bwg.Wait()
	select {
	case err := <-burstErr:
		return fmt.Errorf("concurrent burst: %w", err)
	default:
	}

	// Depthwise-separable serving: a MobileNet-class model (conv1 →
	// dw 3×3 → 1×1 expansion) runs its block through the fused
	// separable executor on the registry's per-model nDirect engine.
	// After the first request the block is fully warm — separable plan
	// memo, packed depthwise and pointwise filters — so five more
	// requests must not construct a single plan (the shared plan
	// cache's miss counter stays frozen) while every response stays
	// bit-exact against the local unfused oracle.
	sepSpec := modelSpec{Seed: 44, ReLU: true, Separable: true}
	if err := do("POST", "/v1/models/alice/sep", sepSpec, http.StatusCreated, nil); err != nil {
		return err
	}
	sepNet, sepShape := buildNet("alice/sep", sepSpec)
	sx := sepShape.NewInput()
	fillInts(sx, inputSeed)
	sepWant, err := sepNet.TryForward(&nn.Engine{Algo: nn.AlgoNDirect, Threads: 1}, sx)
	if err != nil {
		return fmt.Errorf("separable oracle forward: %w", err)
	}
	if err := inferModel("alice", "sep", sepWant); err != nil {
		return fmt.Errorf("separable first request: %w", err)
	}
	// The always-on selftest sentinel builds the new model's reference-
	// probe plans through the shared cache on its first visit — probe
	// startup cost, not serving cost. Wait for the miss counter to go
	// quiet before asserting the serving loop itself is plan-silent.
	settleDeadline := time.Now().Add(5 * time.Second)
	preSep := s.reg.Stats().Runtime.PlanCache
	for quiet := time.Now(); time.Since(quiet) < 100*time.Millisecond; {
		if time.Now().After(settleDeadline) {
			return fmt.Errorf("plan-cache misses never settled after separable registration (at %d)", preSep.Misses)
		}
		time.Sleep(5 * time.Millisecond)
		if st := s.reg.Stats().Runtime.PlanCache; st.Misses != preSep.Misses {
			preSep, quiet = st, time.Now()
		}
	}
	for i := 0; i < 5; i++ {
		if err := inferModel("alice", "sep", sepWant); err != nil {
			return fmt.Errorf("separable warm serving: %w", err)
		}
	}
	if postSep := s.reg.Stats().Runtime.PlanCache; postSep.Misses != preSep.Misses {
		return fmt.Errorf("separable model still constructed plans while serving warm: plan-cache misses %d -> %d",
			preSep.Misses, postSep.Misses)
	}
	if err := do("DELETE", "/v1/models/alice/sep", nil, http.StatusNoContent, nil); err != nil {
		return err
	}

	// Integrity drill: /healthz must report ok now; arming an unlimited
	// kernel-miscompute makes the always-on selftest sentinel quarantine
	// a kernel family, flipping /healthz to 503 degraded; clearing the
	// fault lets the sentinel's clean probes restore the family and
	// /healthz return to 200 ok — the whole detect→quarantine→restore
	// loop observed through the operator endpoint, with serving still
	// bit-exact afterwards.
	getHealth := func() (int, healthResponse, error) {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return 0, healthResponse{}, err
		}
		defer resp.Body.Close()
		var h healthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			return 0, healthResponse{}, fmt.Errorf("decoding /healthz: %w", err)
		}
		return resp.StatusCode, h, nil
	}
	waitHealth := func(wantCode int, wantStatus string) error {
		deadline := time.Now().Add(15 * time.Second)
		for {
			code, h, err := getHealth()
			if err != nil {
				return err
			}
			if code == wantCode && h.Status == wantStatus {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("healthz stuck at %d %q (kernels=%d models=%d), want %d %q",
					code, h.Status, h.KernelsQuarantined, h.ModelsQuarantined, wantCode, wantStatus)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if code, h, err := getHealth(); err != nil || code != http.StatusOK || h.Status != "ok" || h.KernelISA != core.KernelISA() {
		return fmt.Errorf("healthz before the drill: %d %q kernel_isa=%q err=%v, want 200 ok kernel_isa=%q",
			code, h.Status, h.KernelISA, err, core.KernelISA())
	}
	faultinject.ArmN(faultinject.KernelMiscompute, -1, -1)
	if err := waitHealth(http.StatusServiceUnavailable, "degraded"); err != nil {
		faultinject.Reset()
		return fmt.Errorf("integrity drill (quarantine): %w", err)
	}
	faultinject.Reset()
	if err := waitHealth(http.StatusOK, "ok"); err != nil {
		return fmt.Errorf("integrity drill (restore): %w", err)
	}
	if err := inferOnce("alice"); err != nil {
		return fmt.Errorf("after the integrity drill: %w", err)
	}

	// Unregister everything: the weight budget returns to baseline, and
	// the models are gone (404).
	for _, tn := range []string{"alice", "bob"} {
		if err := do("DELETE", "/v1/models/"+tn+"/m", nil, http.StatusNoContent, nil); err != nil {
			return err
		}
	}
	if err := do("POST", "/v1/infer/alice/m", inferRequest{Seed: &seed}, http.StatusNotFound, nil); err != nil {
		return err
	}
	if err := do("GET", "/v1/stats", nil, http.StatusOK, &st); err != nil {
		return err
	}
	if st.WeightInUse != 0 {
		return fmt.Errorf("weight budget %d after unregistering everything, want 0", st.WeightInUse)
	}
	if st.Models != 0 || st.Gate.InFlight != 0 {
		return fmt.Errorf("registry not drained: models=%d inflight=%d", st.Models, st.Gate.InFlight)
	}
	return nil
}
