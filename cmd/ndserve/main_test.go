package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"ndirect/internal/conv"
	"ndirect/internal/nn"
	"ndirect/internal/serve"
)

// reply is what a test reads back from one request.
type reply struct {
	code   int
	header http.Header
	body   []byte
}

// newTestServer serves a fresh registry over httptest and returns a
// helper that POSTs a JSON body to a path on it.
func newTestServer(t *testing.T) func(t *testing.T, path string, body any) reply {
	t.Helper()
	s := &server{reg: serve.NewRegistry(serve.RegistryConfig{}), shapes: map[string]conv.Shape{}}
	ts := httptest.NewServer(s.mux())
	t.Cleanup(ts.Close)
	return func(t *testing.T, path string, body any) reply {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
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
