package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"ndirect/internal/conv"
	"ndirect/internal/core"
	"ndirect/internal/nn"
	"ndirect/internal/serve"
	"ndirect/internal/tensor"
)

// reply is what a test reads back from one request.
type reply struct {
	code   int
	header http.Header
	body   []byte
}

// newTestServer serves a fresh registry over httptest and returns a
// helper that POSTs a body to a path on it: a []byte as it is, an
// io.Reader as it reads (chunked, with no Content-Length), anything
// else as json.Marshal writes it.
func newTestServer(t *testing.T) func(t *testing.T, path string, body any) reply {
	t.Helper()
	s := &server{reg: serve.NewRegistry(serve.RegistryConfig{}), shapes: map[string]conv.Shape{}}
	ts := httptest.NewServer(s.mux())
	t.Cleanup(ts.Close)
	return func(t *testing.T, path string, body any) reply {
		t.Helper()
		var rd io.Reader
		switch b := body.(type) {
		case []byte:
			rd = bytes.NewReader(b)
		case io.Reader:
			rd = b
		default:
			raw, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(raw)
		}
		resp, err := http.Post(ts.URL+path, "application/json", rd)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var msg bytes.Buffer
		if _, err := msg.ReadFrom(resp.Body); err != nil {
			t.Fatalf("POST %s: reading the body: %v", path, err)
		}
		return reply{resp.StatusCode, resp.Header, msg.Bytes()}
	}
}

// TestInferRejectsBadInputWith400: a raw-tensor infer request whose
// dims are out of range, or whose shape does not fit the model, is the
// client's error — 400 with a body, never a dropped connection or a
// 500.
func TestInferRejectsBadInputWith400(t *testing.T) {
	post := newTestServer(t)
	spec := modelSpec{Seed: 5, ReLU: true, Shape: &shapeSpec{C: 8, H: 8, W: 8, K: 8, R: 3, S: 3, Stride: 1, Pad: 1}}
	if r := post(t, "/v1/models/acme/m", spec); r.code != http.StatusCreated {
		t.Fatalf("register: %d %s", r.code, r.body)
	}

	for _, tc := range []struct {
		name string
		dims []int
		want int
	}{
		{"fits the model", []int{1, 8, 8, 8}, http.StatusOK},
		{"negative dims with a matching product", []int{-1, -8, 8, 8}, http.StatusBadRequest},
		{"zero dim", []int{0, 8, 8, 8}, http.StatusBadRequest},
		{"dim past conv.MaxDim", []int{conv.MaxDim + 1, 1, 1, 1}, http.StatusBadRequest},
		{"wrong shape for the model", []int{1, 4, 8, 16}, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := make([]float32, 512)
			if r := post(t, "/v1/infer/acme/m", inferRequest{Dims: tc.dims, Data: data}); r.code != tc.want {
				t.Fatalf("dims %v: status %d (%s), want %d", tc.dims, r.code, r.body, tc.want)
			}
		})
	}
}

// TestInferNonFiniteOutput: an input that overflows float32 inside the
// convolution gives an output JSON cannot carry. The answer is 422 with
// a body naming the first non-finite element — not 200 with an empty
// body, which is what dropping the encoder's error gave.
func TestInferNonFiniteOutput(t *testing.T) {
	post := newTestServer(t)
	spec := modelSpec{Seed: 5, Shape: &shapeSpec{C: 8, H: 8, W: 8, K: 8, R: 3, S: 3, Stride: 1, Pad: 1}}
	if r := post(t, "/v1/models/acme/m", spec); r.code != http.StatusCreated {
		t.Fatalf("register: %d %s", r.code, r.body)
	}
	data := make([]float32, 8*8*8)
	for i := range data {
		data[i] = 3e38
	}
	r := post(t, "/v1/infer/acme/m", inferRequest{Dims: []int{1, 8, 8, 8}, Data: data})
	if r.code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d (%q), want %d", r.code, r.body, http.StatusUnprocessableEntity)
	}
	// The same forward in process says which element comes first.
	net, s := buildNet("acme/m", spec)
	x := s.NewInput()
	copy(x.Data, data)
	out, err := net.TryForward(&nn.Engine{Algo: nn.AlgoNDirect, Threads: 1}, x)
	if err != nil {
		t.Fatal(err)
	}
	first := -1
	for i, v := range out.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			first = i
			break
		}
	}
	if first < 0 {
		t.Fatal("the in-process forward is finite: the input no longer overflows")
	}
	if want := fmt.Sprintf("element %d ", first); !strings.Contains(string(r.body), want) {
		t.Fatalf("body %q does not name the first non-finite element (%q)", r.body, want)
	}
}

// TestInferResponseOverHTTP: /v1/infer answers with exactly the bytes
// json.NewEncoder writes for its output tensor, in one body whose
// Content-Length is set — for a seed request (integral output, the
// fast path) and for a raw request with fractional input (the general
// path).
func TestInferResponseOverHTTP(t *testing.T) {
	post := newTestServer(t)
	shape := shapeSpec{C: 8, H: 8, W: 8, K: 8, R: 3, S: 3, Stride: 1, Pad: 1}
	spec := modelSpec{Seed: 5, Shape: &shape}
	if r := post(t, "/v1/models/acme/m", spec); r.code != http.StatusCreated {
		t.Fatalf("register: %d %s", r.code, r.body)
	}
	seed := uint64(7)
	// The seed request's output is integral, so the in-process forward
	// matches it bit for bit, and its encoding/json bytes are the answer.
	net, s := buildNet("acme/m", spec)
	x := s.NewInput()
	fillInts(x, seed)
	y, err := net.TryForward(&nn.Engine{Algo: nn.AlgoNDirect, Threads: 1}, x)
	if err != nil {
		t.Fatal(err)
	}
	var seedWant bytes.Buffer
	if err := json.NewEncoder(&seedWant).Encode(inferResponse{Dims: y.Dims, Data: y.Data}); err != nil {
		t.Fatal(err)
	}
	raw := make([]float32, 8*8*8)
	for i := range raw {
		raw[i] = float32(i%13)*0.37 - 2.1
	}
	for _, tc := range []struct {
		name         string
		req          inferRequest
		wantIntegral bool
		oracle       []byte // the expected body, when known in advance
	}{
		{"seed", inferRequest{Seed: &seed}, true, seedWant.Bytes()},
		{"raw fractional", inferRequest{Dims: []int{1, 8, 8, 8}, Data: raw}, false, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := post(t, "/v1/infer/acme/m", tc.req)
			if r.code != http.StatusOK {
				t.Fatalf("status %d (%s)", r.code, r.body)
			}
			if got, want := r.header.Get("Content-Length"), strconv.Itoa(len(r.body)); got != want {
				t.Fatalf("Content-Length %q, want %q", got, want)
			}
			if ct := r.header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q, want application/json", ct)
			}
			if tc.oracle != nil && !bytes.Equal(r.body, tc.oracle) {
				t.Fatalf("body differs from the in-process oracle's encoding/json bytes:\n got %.200s\nwant %.200s", r.body, tc.oracle)
			}
			var got inferResponse
			if err := json.Unmarshal(r.body, &got); err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(r.body, want.Bytes()) {
				t.Fatalf("body differs from encoding/json's bytes for the same tensor:\n got %.200s\nwant %.200s", r.body, want.Bytes())
			}
			integral := true
			for _, v := range got.Data {
				integral = integral && v == float32(math.Trunc(float64(v)))
			}
			if integral != tc.wantIntegral {
				t.Fatalf("output integral = %v, want %v: the case misses the path it names", integral, tc.wantIntegral)
			}
			if len(got.Data) != 8*8*8 || fmt.Sprint(got.Dims) != "[1 8 8 8]" {
				t.Fatalf("dims %v with %d elements, want [1 8 8 8] with 512", got.Dims, len(got.Data))
			}
		})
	}
}

// TestInferRequestOverHTTP: raw /v1/infer bodies — the canonical forms
// the decoder takes and variants it hands to encoding/json — get the
// status and the bytes of an oracle that decodes with encoding/json and
// runs the forward in process: the answer body on 200, the error text
// otherwise.
func TestInferRequestOverHTTP(t *testing.T) {
	post := newTestServer(t)
	shape := shapeSpec{C: 8, H: 8, W: 8, K: 8, R: 3, S: 3, Stride: 1, Pad: 1}
	spec := modelSpec{Seed: 5, ReLU: true, Shape: &shape}
	if r := post(t, "/v1/models/acme/m", spec); r.code != http.StatusCreated {
		t.Fatalf("register: %d %s", r.code, r.body)
	}
	net, s := buildNet("acme/m", spec)
	// Integral input keeps every output exact, so the in-process forward
	// is the served one bit for bit.
	x := s.NewInput()
	fillInts(x, 3)
	elems := make([]string, len(x.Data))
	for i, v := range x.Data {
		elems[i] = strconv.Itoa(int(v))
	}
	data := func(first string) string { return "[" + first + "," + strings.Join(elems[1:], ",") + "]" }
	const dims = "[1,8,8,8]"
	canonical := `{"dims":` + dims + `,"data":` + data(elems[0]) + `}`
	for _, tc := range []struct {
		name string
		body string
		fast bool // the decoder takes it
	}{
		{"canonical", canonical, true},
		{"encoder's trailing newline", canonical + "\n", true},
		{"seed", `{"seed":7}`, true},
		{"extra whitespace", " {\n\t\"dims\" : [ 1 , 8 ,8, 8 ] ,\r\n \"data\":\t" + strings.ReplaceAll(data(elems[0]), ",", " ,\n ") + " }\n ", true},
		{"-0", `{"dims":` + dims + `,"data":` + data("-0") + `}`, true},
		{"reordered keys", `{"data":` + data(elems[0]) + `,"dims":` + dims + `}`, false},
		{"DIMS", `{"DIMS":` + dims + `,"data":` + data(elems[0]) + `}`, false},
		{"duplicate key, the last wins", `{"dims":[2,2,2,2],"dims":` + dims + `,"data":` + data(elems[0]) + `}`, false},
		{"trailing bytes", canonical + `garbage`, false},
		{"1e39", `{"dims":` + dims + `,"data":` + data("1e39") + `}`, false},
		{"negative seed", `{"seed":-7}`, false},
		{"shape the model does not take", `{"dims":[1,8,4,16],"data":` + data(elems[0]) + `}`, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := []byte(tc.body)
			if _, _, ok := decodeInferRequest(body); ok != tc.fast {
				t.Fatalf("decoder accepted = %v, want %v: the case misses the path it names", ok, tc.fast)
			}
			wantCode, want := http.StatusOK, []byte(nil)
			in, err := inferInputJSON(body, s)
			if err == nil {
				var y *tensor.Tensor
				if y, err = net.TryForward(&nn.Engine{Algo: nn.AlgoNDirect, Threads: 1}, in); err != nil && !errors.Is(err, conv.ErrDimMismatch) {
					t.Fatal(err)
				}
				if err == nil {
					var buf bytes.Buffer
					if err := json.NewEncoder(&buf).Encode(inferResponse{Dims: y.Dims, Data: y.Data}); err != nil {
						t.Fatal(err)
					}
					want = buf.Bytes()
				}
			}
			if err != nil {
				// The answer to a refused body is its status and text;
				// Registry.Infer words a shape mismatch its own way.
				wantCode = http.StatusBadRequest
				if !errors.Is(err, conv.ErrDimMismatch) {
					want = []byte(err.Error() + "\n")
				}
			}
			r := post(t, "/v1/infer/acme/m", body)
			if r.code != wantCode {
				t.Fatalf("status %d (%.200s), want %d", r.code, r.body, wantCode)
			}
			if want != nil && !bytes.Equal(r.body, want) {
				t.Fatalf("body differs from the encoding/json oracle's:\n got %.200q\nwant %.200q", r.body, want)
			}
		})
	}
}

// TestInferBodyCap: /v1/infer reads a body only for a registered model
// (404 unread otherwise) and only up to maxInferBody of its input shape:
// a canonical body padded with whitespace to the cap is served, one byte
// more is 413, whether it declares its length or is sent chunked.
func TestInferBodyCap(t *testing.T) {
	post := newTestServer(t)
	shape := shapeSpec{C: 8, H: 8, W: 8, K: 8, R: 3, S: 3, Stride: 1, Pad: 1}
	spec := modelSpec{Seed: 5, Shape: &shape}
	if r := post(t, "/v1/models/acme/m", spec); r.code != http.StatusCreated {
		t.Fatalf("register: %d %s", r.code, r.body)
	}
	if r := post(t, "/v1/infer/acme/nosuch", []byte("not json")); r.code != http.StatusNotFound {
		t.Fatalf("unknown model: status %d (%s), want 404", r.code, r.body)
	}
	limit := maxInferBody(shape.shape())
	canonical, err := json.Marshal(inferRequest{Dims: []int{1, 8, 8, 8}, Data: make([]float32, 8*8*8)})
	if err != nil {
		t.Fatal(err)
	}
	padded := func(n int64) []byte {
		return append(canonical, bytes.Repeat([]byte(" "), int(n)-len(canonical))...)
	}
	for _, tc := range []struct {
		name string
		body any
		want int
	}{
		{"at the cap", padded(limit), http.StatusOK},
		{"at the cap, chunked", io.MultiReader(bytes.NewReader(padded(limit))), http.StatusOK},
		{"past the cap", padded(limit + 1), http.StatusRequestEntityTooLarge},
		{"past the cap, chunked", io.MultiReader(bytes.NewReader(padded(limit + 1))), http.StatusRequestEntityTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if r := post(t, "/v1/infer/acme/m", tc.body); r.code != tc.want {
				t.Fatalf("status %d (%.200s), want %d", r.code, r.body, tc.want)
			}
		})
	}
}

// fillIntsSerial is fillInts' stream in its defining serial form, the
// one cmd/ndsoak and the benchmark's oracle run.
func fillIntsSerial(t *tensor.Tensor, seed uint64) {
	x := seed*2654435761 + 12345
	for i := range t.Data {
		x = x*6364136223846793005 + 1442695040888963407
		t.Data[i] = float32(int64(x>>33)%7 - 3)
	}
}

// TestFillIntsMatchesSerial: the interleaved fillInts writes the serial
// stream's values, for every length the four chains and their tail can
// split into and for an http_mid input.
func TestFillIntsMatchesSerial(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 32 * 28 * 28}
	for seed := uint64(0); seed < 50; seed++ {
		for _, n := range lengths {
			got, want := tensor.New(n), tensor.New(n)
			fillInts(got, seed*0x9e3779b97f4a7c15)
			fillIntsSerial(want, seed*0x9e3779b97f4a7c15)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("seed %d, length %d: element %d = %g, serial stream %g", seed*0x9e3779b97f4a7c15, n, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// BenchmarkFillInts is fillInts on an http_mid input, with the serial
// form beside it.
func BenchmarkFillInts(b *testing.B) {
	for _, f := range []struct {
		name string
		fill func(*tensor.Tensor, uint64)
	}{{"interleaved", fillInts}, {"serial", fillIntsSerial}} {
		b.Run(f.name, func(b *testing.B) {
			x := tensor.New(1, 32, 28, 28)
			for i := 0; i < b.N; i++ {
				f.fill(x, uint64(i))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(x.Data)), "ns/elem")
		})
	}
}

// midSpec is http_mid's model: 32 channels of 28×28 through a 3×3
// conv with ReLU.
var midSpec = modelSpec{Seed: 13, ReLU: true, Shape: &shapeSpec{C: 32, H: 28, W: 28, K: 32, R: 3, S: 3, Stride: 1, Pad: 1}}

// BenchmarkRegistryInferFunc is handleInfer's work for a {"seed":n}
// request on http_mid's model, without the HTTP: the input drawn from
// inputPools and filled by fillInts, the forward through
// Registry.InferFunc with the output encoded inside use, and the input
// put back. At steady state both tensors are recycled, so what is
// allocated per request is small change (scripts/bench_smoke.sh gates
// it at 1 KiB/op). BenchmarkRegistryInfer is the same request through
// Registry.Infer, whose output is the caller's to keep.
func BenchmarkRegistryInferFunc(b *testing.B) { benchmarkRegistry(b, true) }

func BenchmarkRegistryInfer(b *testing.B) { benchmarkRegistry(b, false) }

func benchmarkRegistry(b *testing.B, recycle bool) {
	rt := serve.New(serve.Config{Options: core.Options{Threads: 2}})
	defer rt.Close()
	reg := serve.NewRegistry(serve.RegistryConfig{Runtime: rt})
	net, shape := buildNet("bench/mid", midSpec)
	if err := reg.Register("bench", "mid", net); err != nil {
		b.Fatal(err)
	}
	var body []byte
	var encErr error
	request := func(seed uint64) error {
		x := seededInput(shape, seed)
		if !recycle {
			out, err := reg.Infer(context.Background(), "bench", "mid", x)
			if err != nil {
				return err
			}
			body, err = appendInferResponse(body[:0], out.Dims, out.Data)
			return err
		}
		err := reg.InferFunc(context.Background(), "bench", "mid", x, func(out *tensor.Tensor) {
			body, encErr = appendInferResponse(body[:0], out.Dims, out.Data)
		})
		if err != nil {
			return err
		}
		putInput(x)
		return encErr
	}
	for i := 0; i < 3; i++ { // plans, packed weights, pools
		if err := request(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := request(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	sinkBytes = body
}
