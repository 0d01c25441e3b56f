package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"ndirect/internal/conv"
	"ndirect/internal/tensor"
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

// TestInferResponseSmallInts: every integer around the smallInts table,
// each on its own, all in one response and each after a value the
// general path writes, with the values on either side of the table's
// admission test (-0, the 2^24 edges, 1e21, a fraction), gives
// encoding/json's bytes; a NaN or ±Inf after table values is still
// refused with its own index.
func TestInferResponseSmallInts(t *testing.T) {
	const p24 = 1 << 24
	var all []float32
	for n := -1000; n <= 1000; n++ {
		v := float32(n)
		checkMatchesStdlib(t, []int{1}, []float32{v})
		checkMatchesStdlib(t, []int{2}, []float32{0.5, v})
		all = append(all, v)
	}
	others := []float32{math.Float32frombits(1 << 31), p24, -p24, p24 + 1, 1e21, -1e21, 0.25, -999.5, 1000.5}
	for _, v := range others {
		checkMatchesStdlib(t, []int{1}, []float32{v})
		checkMatchesStdlib(t, []int{3}, []float32{7, v, -7})
	}
	checkMatchesStdlib(t, []int{len(all)}, all)
	mixed := append(append([]float32(nil), others...), all...)
	checkMatchesStdlib(t, []int{len(mixed)}, mixed)
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		data := []float32{1, -999, 0, 999, bad, 2}
		_, err := appendInferResponse(nil, nil, data)
		if err == nil || !strings.Contains(err.Error(), "element 4 ") {
			t.Fatalf("%v at element 4 after table values: error %v, want one naming element 4", bad, err)
		}
		checkMatchesStdlib(t, []int{len(data)}, data)
	}
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

// The kinds of http_mid-sized data the benchmarks run on: integral
// values as the served integer-weight models give, relu as their ReLU
// output does (half zeros, the rest in [1, 300], shuffled), and
// nonintegral ones as float weights would give.
var dataKinds = []string{"integral", "relu", "nonintegral"}

// responseData is an http_mid-sized output (32 channels of 28×28) of
// the given kind.
func responseData(kind string) []float32 {
	rng := rand.New(rand.NewSource(1))
	data := make([]float32, 32*28*28)
	for i := range data {
		switch kind {
		case "integral":
			data[i] = float32(rng.Intn(401) - 200)
		case "relu":
			if rng.Intn(2) == 1 {
				data[i] = float32(1 + rng.Intn(300))
			}
		default:
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
	for _, kind := range dataKinds {
		data := responseData(kind)
		b.Run(kind, func(b *testing.B) {
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
	for _, kind := range dataKinds {
		resp := inferResponse{Dims: []int{1, 32, 28, 28}, Data: responseData(kind)}
		b.Run(kind, func(b *testing.B) {
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

// decodeShape is the model input the request tests decode against: the
// seed form fills it, and a dims+data body that does not fit it still
// decodes (Registry.Infer refuses it later).
var decodeShape = conv.Shape{N: 1, C: 2, H: 3, W: 3, K: 1, R: 1, S: 1, Str: 1}

// checkDecodeMatchesStdlib fails t unless decodeInferRequest agrees
// with encoding/json on body: when the decoder accepts, json.NewDecoder
// accepts too, with the same seed, the same dims and the same data bits;
// and inferInput, decoder first and encoding/json for what it declines,
// gives the tensor or the error text inferInputJSON gives. It reports
// whether the decoder accepted.
func checkDecodeMatchesStdlib(t testing.TB, body []byte) bool {
	t.Helper()
	x, seed, ok := decodeInferRequest(body)
	if ok {
		var req inferRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("decoder accepted %.200q, encoding/json refuses it: %v", body, err)
		}
		switch {
		case x == nil:
			if req.Seed == nil || *req.Seed != seed || req.Dims != nil || req.Data != nil {
				t.Fatalf("%.200q: decoder seed %d, encoding/json %+v", body, seed, req)
			}
		case req.Seed != nil || fmt.Sprint(req.Dims) != fmt.Sprint(x.Dims):
			t.Fatalf("%.200q: decoder dims %v, encoding/json seed %v dims %v", body, x.Dims, req.Seed, req.Dims)
		default:
			checkSameBits(t, body, x.Data, req.Data)
		}
	}
	got, gotErr := inferInput(body, decodeShape)
	want, wantErr := inferInputJSON(body, decodeShape)
	switch {
	case gotErr != nil || wantErr != nil:
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%.200q: error %v, encoding/json's %v", body, gotErr, wantErr)
		}
	case fmt.Sprint(got.Dims) != fmt.Sprint(want.Dims):
		t.Fatalf("%.200q: dims %v, encoding/json's %v", body, got.Dims, want.Dims)
	default:
		checkSameBits(t, body, got.Data, want.Data)
	}
	return ok
}

func checkSameBits(t testing.TB, body []byte, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%.200q: %d elements, encoding/json %d", body, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%.200q: element %d bits %#08x, encoding/json %#08x", body, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// requestCases are bodies on every edge of decodeInferRequest's grammar,
// with whether it takes them (the rest go to encoding/json) and, where
// it does, the data bits it must read.
var requestCases = []struct {
	name   string
	body   string
	accept bool
	bits   []uint32
}{
	{"canonical", `{"dims":[1,1,1,2],"data":[1,-2.5]}`, true, []uint32{0x3f800000, 0xc0200000}},
	{"encoder's trailing newline", `{"dims":[1,1,1,1],"data":[3]}` + "\n", true, []uint32{0x40400000}},
	{"whitespace everywhere", " \t\r\n{ \"dims\" :\n[ 1 ,1, 1 , 2 ] ,\t\"data\" : [ 1 , 2 ] } \n", true, []uint32{0x3f800000, 0x40000000}},
	{"-0", `{"dims":[1,1,1,1],"data":[-0]}`, true, []uint32{0x80000000}},
	{"-0.0", `{"dims":[1,1,1,1],"data":[-0.0]}`, true, []uint32{0x80000000}},
	{"2^24+1 rounds to even", `{"dims":[1,1,1,1],"data":[16777217]}`, true, []uint32{0x4b800000}},
	{"seven-digit integer", `{"dims":[1,1,1,1],"data":[-9999999]}`, true, []uint32{0xcb18967f}},
	{"underflow to +0", `{"dims":[1,1,1,1],"data":[1e-50]}`, true, []uint32{0}},
	{"underflow to -0", `{"dims":[1,1,1,1],"data":[-1e-50]}`, true, []uint32{0x80000000}},
	{"exponent forms", `{"dims":[1,1,1,3],"data":[1E2,2e+1,5e-1]}`, true, []uint32{0x42c80000, 0x41a00000, 0x3f000000}},
	{"largest float32", `{"dims":[1,1,1,1],"data":[3.4028234663852886e38]}`, true, []uint32{0x7f7fffff}},
	{"seed", `{"seed":7}`, true, nil},
	{"seed 0", ` { "seed" : 0 } `, true, nil},
	{"largest seed", `{"seed":18446744073709551615}`, true, nil},

	{"1e39 overflows float32", `{"dims":[1,1,1,1],"data":[1e39]}`, false, nil},
	{"leading zero", `{"dims":[1,1,1,1],"data":[01]}`, false, nil},
	{"bare point", `{"dims":[1,1,1,1],"data":[1.]}`, false, nil},
	{"no integer part", `{"dims":[1,1,1,1],"data":[.5]}`, false, nil},
	{"plus sign", `{"dims":[1,1,1,1],"data":[+1]}`, false, nil},
	{"lone minus", `{"dims":[1,1,1,1],"data":[-]}`, false, nil},
	{"bare exponent", `{"dims":[1,1,1,1],"data":[1e]}`, false, nil},
	{"hex", `{"dims":[1,1,1,1],"data":[0x10]}`, false, nil},
	{"string element", `{"dims":[1,1,1,1],"data":["1"]}`, false, nil},
	{"non-integral dim", `{"dims":[1.0,1,1,1],"data":[1]}`, false, nil},
	{"zero dim", `{"dims":[0,1,1,1],"data":[1]}`, false, nil},
	{"negative dims", `{"dims":[-1,-1,1,1],"data":[1]}`, false, nil},
	{"dim past MaxDim", `{"dims":[16777217,1,1,1],"data":[1]}`, false, nil},
	{"three dims", `{"dims":[1,1,1],"data":[1]}`, false, nil},
	{"five dims", `{"dims":[1,1,1,1,1],"data":[1]}`, false, nil},
	{"too few elements", `{"dims":[1,1,1,2],"data":[1]}`, false, nil},
	{"too many elements", `{"dims":[1,1,1,1],"data":[1,2]}`, false, nil},
	{"product past the body", `{"dims":[1,1,100,100],"data":[1]}`, false, nil},
	{"empty data", `{"dims":[1,1,1,1],"data":[]}`, false, nil},
	{"negative seed", `{"seed":-1}`, false, nil},
	{"seed overflows uint64", `{"seed":18446744073709551616}`, false, nil},
	{"fractional seed", `{"seed":1.5}`, false, nil},
	{"seed with exponent", `{"seed":1e3}`, false, nil},
	{"key in another case", `{"DIMS":[1,1,1,1],"data":[1]}`, false, nil},
	{"seed key in another case", `{"Seed":3}`, false, nil},
	{"escaped key", `{"d\u0069ms":[1,1,1,1],"data":[1]}`, false, nil},
	{"key in another Unicode case", `{"\u017feed":4}`, false, nil},
	{"duplicate dims, the last wins", `{"dims":[2,2,2,2],"dims":[1,1,1,1],"data":[1]}`, false, nil},
	{"duplicate seed", `{"seed":1,"seed":2}`, false, nil},
	{"unknown key", `{"seed":1,"x":2}`, false, nil},
	{"seed beside dims", `{"seed":1,"dims":[1,1,1,1],"data":[1]}`, false, nil},
	{"null seed", `{"seed":null}`, false, nil},
	{"null data", `{"dims":[1,1,1,1],"data":null}`, false, nil},
	{"null body", `null`, false, nil},
	{"data before dims", `{"data":[1],"dims":[1,1,1,1]}`, false, nil},
	{"key without its colon, then another key", `{"seed" "dims":[1,1,1,1],"data":[1]}`, false, nil},
	{"trailing bytes", `{"seed":1}x`, false, nil},
	{"trailing object", `{"dims":[1,1,1,1],"data":[1]}{}`, false, nil},
	{"unterminated", `{"dims":[1,1,1,1],"data":[1]`, false, nil},
	{"empty body", ``, false, nil},
	{"whitespace only", " \n", false, nil},
}

// TestDecodeInferRequestEdges: the decoder takes exactly the bodies
// marked accept, reads the bits given for them, and agrees with
// encoding/json on every body.
func TestDecodeInferRequestEdges(t *testing.T) {
	for _, tc := range requestCases {
		t.Run(tc.name, func(t *testing.T) {
			body := []byte(tc.body)
			if ok := checkDecodeMatchesStdlib(t, body); ok != tc.accept {
				t.Fatalf("decoder accepted = %v, want %v", ok, tc.accept)
			}
			if tc.bits == nil {
				return
			}
			x, _, _ := decodeInferRequest(body)
			want := make([]float32, len(tc.bits))
			for i, b := range tc.bits {
				want[i] = math.Float32frombits(b)
			}
			checkSameBits(t, body, x.Data, want)
		})
	}
}

// TestDecodeIntegersMatchParseFloat: every integer of at most seven
// digits, either sign, which float32 converts without ParseFloat, reads
// to ParseFloat's bits (-0 included).
func TestDecodeIntegersMatchParseFloat(t *testing.T) {
	for name, sign := range map[string]string{"non-negative": "", "negative": "-"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			buf := []byte(sign)
			for n := int64(0); n < 10_000_000; n++ {
				b := strconv.AppendInt(buf, n, 10)
				d := reqDecoder{b: b}
				got, ok := d.float32()
				want, err := strconv.ParseFloat(string(b), 32)
				if !ok || err != nil || d.i != len(b) || math.Float32bits(got) != math.Float32bits(float32(want)) {
					t.Fatalf("%s: decoder %v (bits %#08x, ok %v), ParseFloat %v (bits %#08x, err %v)",
						b, got, math.Float32bits(got), ok, want, math.Float32bits(float32(want)), err)
				}
			}
		})
	}
}

// FuzzInferRequest: on any body the decoder agrees with encoding/json
// (checkDecodeMatchesStdlib): what it accepts, encoding/json reads to
// the same values, and what it declines gets encoding/json's answer.
func FuzzInferRequest(f *testing.F) {
	for _, tc := range requestCases {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeMatchesStdlib(t, body)
	})
}

// requestBody is an http_mid-sized input in the canonical form, as
// json.Marshal writes it.
func requestBody(kind string) []byte {
	b, err := json.Marshal(inferRequest{Dims: []int{1, 32, 28, 28}, Data: responseData(kind)})
	if err != nil {
		panic(err)
	}
	return b
}

var sinkTensor *tensor.Tensor

// BenchmarkInferRequest is the decoder on an http_mid-sized canonical
// body, per request and per element; BenchmarkInferRequestEncodingJSON
// is the encoding/json path on the same body. The decoder draws the
// input tensor from inputPools, which gets it back as handleInfer gives
// it back after a successful inference, and allocates nothing else:
// scripts/bench_smoke.sh gates it at 0 allocations.
func BenchmarkInferRequest(b *testing.B) {
	for _, kind := range []string{"integral", "nonintegral"} {
		body := requestBody(kind)
		b.Run(kind, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x, _, ok := decodeInferRequest(body)
				if !ok {
					b.Fatal("decoder declined a canonical body")
				}
				putInput(x) // as handleInfer does once the inference succeeds
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(32*28*28), "ns/elem")
		})
	}
}

func BenchmarkInferRequestEncodingJSON(b *testing.B) {
	for _, kind := range []string{"integral", "nonintegral"} {
		body := requestBody(kind)
		b.Run(kind, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x, err := inferInputJSON(body, decodeShape)
				if err != nil {
					b.Fatal(err)
				}
				sinkTensor = x
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(32*28*28), "ns/elem")
		})
	}
}
