package main

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// respBufMax is the largest response buffer returned to respBufs. A
// rarer, larger response leaves its buffer to the collector instead of
// pinning it in the pool for every later request.
const respBufMax = 1 << 20

// respBufs recycles /v1/infer response buffers across requests.
var respBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeInferResponse answers an inference with its output tensor,
// written straight from dims and data in one Write with Content-Length
// set. An output holding NaN or ±Inf has no JSON form: the request is
// answered 422 with the index of the first such element.
func writeInferResponse(w http.ResponseWriter, dims []int, data []float32) {
	bp := respBufs.Get().(*[]byte)
	b, err := appendInferResponse((*bp)[:0], dims, data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
	} else {
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(b)))
		_, _ = w.Write(b) // a failed write means the client is gone; there is no one to tell
	}
	if cap(b) <= respBufMax {
		*bp = b
		respBufs.Put(bp)
	}
}

// appendInferResponse appends the JSON form of inferResponse{dims, data}
// to b. The bytes are exactly what json.NewEncoder(w).Encode writes for
// that value, trailing newline included: null for a nil slice, [] for
// an empty one, and each element by encoding/json's float32 rule. A NaN
// or ±Inf element, which encoding/json refuses too, is an error naming
// its index.
func appendInferResponse(b []byte, dims []int, data []float32) ([]byte, error) {
	b = append(b, `{"dims":`...)
	if dims == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, d := range dims {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(d), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"data":`...)
	if data == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, v := range data {
			if i > 0 {
				b = append(b, ',')
			}
			// Integral fast path: every integer of magnitude up to 2^24
			// is a float32, and its shortest decimal form is the integer
			// itself. Above 2^24 it is not (987654336 is written
			// 987654340), and -0 is written "-0".
			if v >= -(1<<24) && v <= 1<<24 {
				if n := int32(v); float32(n) == v && (n != 0 || math.Float32bits(v) == 0) {
					b = strconv.AppendInt(b, int64(n), 10)
					continue
				}
			}
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return b, fmt.Errorf("output element %d is %v, which JSON cannot represent", i, v)
			}
			b = appendFloat32(b, v)
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...), nil
}

// appendFloat32 appends finite v by encoding/json's float32 rule: the
// shortest decimal that reads back as v, in %f form unless |v| is below
// 1e-6 or at least 1e21, and then in %e form with a one-digit negative
// exponent unpadded (e-7, not e-07).
func appendFloat32(b []byte, v float32) []byte {
	format := byte('f')
	if a := float32(math.Abs(float64(v))); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, float64(v), format, -1, 32)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
