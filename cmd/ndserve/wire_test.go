package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// encodeStdlib is what encoding/json writes for the response.
func encodeStdlib(dims []int, data []float32) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(inferResponse{Dims: dims, Data: data})
	return buf.Bytes(), err
}

// firstNonFinite is the index of data's first NaN or ±Inf, or -1.
func firstNonFinite(data []float32) int {
	for i, v := range data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return i
		}
	}
	return -1
}

// checkMatchesStdlib fails t unless appendInferResponse writes exactly
// encoding/json's bytes for (dims, data), or, where encoding/json
// refuses the value, fails with an error naming the first non-finite
// element.
func checkMatchesStdlib(t testing.TB, dims []int, data []float32) {
	t.Helper()
	prefix := []byte("kept")
	got, err := appendInferResponse(append([]byte(nil), prefix...), dims, data)
	want, wantErr := encodeStdlib(dims, data)
	if wantErr != nil {
		i := firstNonFinite(data)
		if i < 0 {
			t.Fatalf("encoding/json refused finite data: %v", wantErr)
		}
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("element %d ", i)) {
			t.Fatalf("encoding/json refused element %d (%v); appender error = %v", i, data[i], err)
		}
		return
	}
	if err != nil {
		t.Fatalf("appender refused what encoding/json writes: %v", err)
	}
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("appender overwrote the bytes it was handed: %.20q", got)
	}
	if got = got[len(prefix):]; bytes.Equal(got, want) {
		return
	}
	// Name the first element whose bytes differ.
	for i, v := range data {
		g, _ := appendInferResponse(nil, nil, []float32{v})
		w, _ := encodeStdlib(nil, []float32{v})
		if !bytes.Equal(g, w) {
			t.Fatalf("element %d (%v, bits %#08x): appender %q, encoding/json %q", i, v, math.Float32bits(v), g, w)
		}
	}
	t.Fatalf("dims %v: appender %.200q, encoding/json %.200q", dims, got, want)
}

// TestInferResponseMatchesEncodingJSON: the appender's bytes are
// encoding/json's on the edges of both format thresholds and of the
// integral fast path, on every integral float32 the fast path takes,
// and on random bit patterns.
func TestInferResponseMatchesEncodingJSON(t *testing.T) {
	bits := math.Float32frombits
	next := math.Nextafter32
	const p24 = 1 << 24
	edges := []float32{
		0, bits(1 << 31), // -0 takes the general path and is written "-0"
		1, -1, 0.5, -2.5, 0.1, 1.0 / 3,
		p24, -p24, p24 - 1, -(p24 - 1), p24 + 2, -(p24 + 2), p24 + 4, 987654336, -987654336,
		1e-6, next(1e-6, 0), next(1e-6, 1), -1e-6, -next(1e-6, 0), -next(1e-6, 1),
		1e-7, 1.5e-7, -1e-7, 1e-10, 1e-38,
		1e21, next(1e21, 0), next(1e21, 2e21), -1e21, -next(1e21, 0), -next(1e21, 2e21),
		1e22, 1e38, -1e38,
		bits(1), bits(0x007fffff), bits(0x00800000), -bits(1), -bits(0x007fffff),
		math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32,
	}
	t.Run("edges", func(t *testing.T) {
		for _, v := range edges {
			checkMatchesStdlib(t, []int{1}, []float32{v})
		}
		checkMatchesStdlib(t, []int{1, len(edges)}, edges)
		checkMatchesStdlib(t, []int{-1, 0, math.MaxInt, math.MinInt}, edges)
		for _, dims := range [][]int{nil, {}} {
			for _, data := range [][]float32{nil, {}} {
				checkMatchesStdlib(t, dims, data)
			}
		}
	})
	t.Run("non-finite", func(t *testing.T) {
		inf := float32(math.Inf(1))
		for _, data := range [][]float32{
			{float32(math.NaN())}, {inf}, {-inf},
			{1, 2.5, bits(1 << 31), inf, float32(math.NaN())},
			{0.25, float32(math.NaN()), -inf},
		} {
			checkMatchesStdlib(t, []int{len(data)}, data)
		}
	})
	t.Run("every integral value in [-2^24, 2^24]", func(t *testing.T) {
		if raceBuild {
			t.Skip("2^25 encoding/json calls take minutes under -race; the plain test run sweeps them")
		}
		// Four quarters, run in parallel.
		for lo := -p24; lo < p24; lo += p24 / 2 {
			hi := lo + p24/2
			if hi == p24 {
				hi++ // the last quarter takes 2^24 itself
			}
			t.Run(fmt.Sprintf("from %d", lo), func(t *testing.T) {
				t.Parallel()
				chunk := make([]float32, 0, 1<<16)
				for v := lo; v < hi; v++ {
					chunk = append(chunk, float32(v))
					if len(chunk) == cap(chunk) || v == hi-1 {
						checkMatchesStdlib(t, nil, chunk)
						chunk = chunk[:0]
					}
				}
			})
		}
	})
	t.Run("random bit patterns", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		data := make([]float32, 1<<12)
		for round := 0; round < 64; round++ {
			for i := range data {
				// Keep the patterns finite so the whole slice is compared.
				data[i] = float32(math.Inf(1))
				for firstNonFinite(data[i:i+1]) == 0 {
					data[i] = bits(rng.Uint32())
				}
			}
			checkMatchesStdlib(t, []int{len(data)}, data)
		}
	})
}

// FuzzInferResponse: any float32 bit pattern, on its own and next to
// an integral neighbour, is written as encoding/json writes it or, when
// non-finite, refused with its index.
func FuzzInferResponse(f *testing.F) {
	for _, b := range []uint32{0, 1 << 31, 0x4b800000, 0x4b800001, 0x358637bd, 0x7f7fffff, 0x7f800000, 0x7fc00000, 1} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b uint32) {
		v := math.Float32frombits(b)
		checkMatchesStdlib(t, []int{1}, []float32{v})
		checkMatchesStdlib(t, []int{2}, []float32{3, v})
	})
}

// responseData is an http_mid-sized output (32 channels of 28×28):
// integral values as the served integer-weight models give, or
// fractional ones as float weights would.
func responseData(integral bool) []float32 {
	rng := rand.New(rand.NewSource(1))
	data := make([]float32, 32*28*28)
	for i := range data {
		if integral {
			data[i] = float32(rng.Intn(401) - 200)
		} else {
			data[i] = float32(rng.NormFloat64() * 50)
		}
	}
	return data
}

var sinkBytes []byte

// raceBuild is set when the tests are built with -race.
var raceBuild bool

// BenchmarkInferResponse is the appender on an http_mid-sized response,
// per response and per element; BenchmarkInferResponseEncodingJSON is
// encoding/json on the same data. check.sh's bench smoke gates the
// appender at 0 allocs/op.
func BenchmarkInferResponse(b *testing.B) {
	for _, integral := range []bool{true, false} {
		data := responseData(integral)
		b.Run(dataName(integral), func(b *testing.B) {
			buf, err := appendInferResponse(nil, []int{1, 32, 28, 28}, data)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _ = appendInferResponse(buf[:0], []int{1, 32, 28, 28}, data)
			}
			sinkBytes = buf
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(data)), "ns/elem")
		})
	}
}

func BenchmarkInferResponseEncodingJSON(b *testing.B) {
	for _, integral := range []bool{true, false} {
		resp := inferResponse{Dims: []int{1, 32, 28, 28}, Data: responseData(integral)}
		b.Run(dataName(integral), func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := json.NewEncoder(&buf).Encode(resp); err != nil {
					b.Fatal(err)
				}
			}
			sinkBytes = buf.Bytes()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(resp.Data)), "ns/elem")
		})
	}
}

func dataName(integral bool) string {
	if integral {
		return "integral"
	}
	return "nonintegral"
}
