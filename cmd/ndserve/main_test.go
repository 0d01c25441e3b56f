package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"ndirect/internal/conv"
	"ndirect/internal/serve"
)

// TestInferRejectsBadInputWith400: a raw-tensor infer request whose
// dims are out of range, or whose shape does not fit the model, is the
// client's error — 400 with a body, never a dropped connection or a
// 500.
func TestInferRejectsBadInputWith400(t *testing.T) {
	s := &server{reg: serve.NewRegistry(serve.RegistryConfig{}), shapes: map[string]conv.Shape{}}
	ts := httptest.NewServer(s.mux())
	defer ts.Close()

	post := func(t *testing.T, path string, body any) (int, string) {
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
		msg.ReadFrom(resp.Body)
		return resp.StatusCode, msg.String()
	}

	spec := modelSpec{Seed: 5, ReLU: true, Shape: &shapeSpec{C: 8, H: 8, W: 8, K: 8, R: 3, S: 3, Stride: 1, Pad: 1}}
	if code, msg := post(t, "/v1/models/acme/m", spec); code != http.StatusCreated {
		t.Fatalf("register: %d %s", code, msg)
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
			if code, msg := post(t, "/v1/infer/acme/m", inferRequest{Dims: tc.dims, Data: data}); code != tc.want {
				t.Fatalf("dims %v: status %d (%s), want %d", tc.dims, code, msg, tc.want)
			}
		})
	}
}
