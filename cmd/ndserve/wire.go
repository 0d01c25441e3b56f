package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"ndirect/internal/conv"
	"ndirect/internal/tensor"
)

// wireBufMax is the largest wire buffer returned to wireBufs. A rarer,
// larger body leaves its buffer to the collector instead of pinning it
// in the pool for every later request.
const wireBufMax = 1 << 20

// wireBufs recycles /v1/infer buffers across requests: one buffer holds
// a request's body until it is decoded, then its response.
var wireBufs = sync.Pool{New: func() any { return new([]byte) }}

// putWireBuf returns bp to wireBufs unless it has grown past wireBufMax.
func putWireBuf(bp *[]byte) {
	if cap(*bp) <= wireBufMax {
		wireBufs.Put(bp)
	}
}

// inputPools recycles /v1/infer input tensors: element count → a
// *sync.Pool of *tensor.Tensor with that many elements. Only the input
// of a successful inference is put back, so the counts are those of
// the registered models' inputs (and the batches of them the body cap
// admits), never one a client picks: the map stays small. A body the
// decoder declines leaves its tensor to the collector.
var inputPools sync.Map

// getInput returns a tensor of the given dims from inputPools, or a
// fresh one when none is parked. A pooled tensor still holds a dead
// request's values: the caller writes every element.
func getInput(dims [4]int) *tensor.Tensor {
	n := dims[0] * dims[1] * dims[2] * dims[3]
	if p, ok := inputPools.Load(n); ok {
		if x, _ := p.(*sync.Pool).Get().(*tensor.Tensor); x != nil {
			x.Dims = append(x.Dims[:0], dims[:]...)
			return x
		}
	}
	return &tensor.Tensor{Dims: append(make([]int, 0, 4), dims[:]...), Data: make([]float32, n)}
}

// putInput parks x in inputPools for a later getInput. The caller must
// hold the only reference: not after a failed inference, whose
// abandoned workers may still read x.
func putInput(x *tensor.Tensor) {
	p, ok := inputPools.Load(len(x.Data))
	if !ok {
		p, _ = inputPools.LoadOrStore(len(x.Data), new(sync.Pool))
	}
	p.(*sync.Pool).Put(x)
}

// The /v1/infer body cap: bodyBytesPerElem bytes per element of the
// model's input plus bodyAllowance for the dims, the keys and
// whitespace. encoding/json writes no float32 in more than 22 bytes
// (-1.2345679e20 is "-123456790000000000000"), so a canonical body is
// inside it; the handler reads the body through http.MaxBytesReader and
// answers a longer one 413.
const (
	bodyBytesPerElem = 32
	bodyAllowance    = 4 << 10
)

// maxInferBody is the largest /v1/infer body accepted for a model whose
// input has shape s.
func maxInferBody(s conv.Shape) int64 {
	return bodyBytesPerElem*int64(s.N)*int64(s.C)*int64(s.H)*int64(s.W) + bodyAllowance
}

// writeInferResponse answers an inference with body, the output
// tensor as appendInferResponse wrote it, in one Write with
// Content-Length set; or, when the appender failed with err (an output
// holding NaN or ±Inf has no JSON form), 422 with err's text, which
// names the first such element.
func writeInferResponse(w http.ResponseWriter, body []byte, err error) {
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body) // a failed write means the client is gone; there is no one to tell
}

// decodeInferRequest parses a /v1/infer body in one of its two
// canonical forms, {"dims":[4 ints],"data":[numbers]} or {"seed":n},
// with JSON whitespace anywhere: the first straight into an input tensor
// x from getInput, the second into seed (x nil). It accepts only bodies that
// json.NewDecoder decodes into inferRequest with the same values: exact
// lowercase unescaped keys, each once, dims before data, nothing but
// whitespace after the object, numbers by the JSON grammar and read by
// strconv.ParseFloat(s, 32) as encoding/json reads them, every dim in
// [1, conv.MaxDim] and as many data elements as their product. ok is
// false for any other body, which the caller hands to encoding/json.
//
// No tensor is drawn before the dims' product is bounded by
// len(body)/2: every element takes at least two bytes of body, a digit
// and a separator.
func decodeInferRequest(body []byte) (x *tensor.Tensor, seed uint64, ok bool) {
	d := reqDecoder{b: body}
	if !d.byte('{') {
		return nil, 0, false
	}
	switch {
	case d.key(`"seed"`):
		if seed, ok = d.uint(); !ok {
			return nil, 0, false
		}
	case d.key(`"dims"`):
		if x, ok = d.tensor(); !ok {
			return nil, 0, false
		}
	default:
		return nil, 0, false
	}
	if !d.byte('}') {
		return nil, 0, false
	}
	if d.ws(); d.i != len(d.b) {
		return nil, 0, false
	}
	return x, seed, true
}

// reqDecoder is decodeInferRequest's cursor over a body.
type reqDecoder struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (d *reqDecoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// byte skips whitespace and then c, reporting whether c was there.
func (d *reqDecoder) byte(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// key skips whitespace, the quoted key q and the colon after it,
// reporting whether they were there. On false the cursor stays put, so
// the caller can try another key at the same place.
func (d *reqDecoder) key(q string) bool {
	start := d.i
	d.ws()
	if len(d.b)-d.i >= len(q) && string(d.b[d.i:d.i+len(q)]) == q {
		d.i += len(q)
		if d.byte(':') {
			return true
		}
	}
	d.i = start
	return false
}

// skipDigits advances *i past a run of decimal digits in d.b,
// reporting whether there was at least one.
func (d *reqDecoder) skipDigits(i *int) bool {
	start := *i
	for *i < len(d.b) && d.b[*i]-'0' <= 9 {
		*i++
	}
	return *i > start
}

// uint reads a JSON integer without sign, fraction or exponent that
// fits a uint64, as strconv.ParseUint reads it.
func (d *reqDecoder) uint() (uint64, bool) {
	d.ws()
	start := d.i
	if !d.skipDigits(&d.i) || d.i-start > 1 && d.b[start] == '0' {
		return 0, false
	}
	var v uint64
	for _, c := range d.b[start:d.i] {
		c -= '0'
		if v > (math.MaxUint64-uint64(c))/10 {
			return 0, false
		}
		v = v*10 + uint64(c)
	}
	return v, true
}

// tensor reads the dims array, the "data" key and the data array into a
// tensor from getInput. The dims must be four integers in [1,
// conv.MaxDim] whose product is at most len(body)/2, checked before the
// tensor is drawn.
func (d *reqDecoder) tensor() (*tensor.Tensor, bool) {
	if !d.byte('[') {
		return nil, false
	}
	var dims [4]int
	limit := int64(len(d.b) / 2)
	n := int64(1)
	for i := range dims {
		if i > 0 && !d.byte(',') {
			return nil, false
		}
		v, ok := d.uint()
		if !ok || v < 1 || v > conv.MaxDim || n > limit/int64(v) {
			return nil, false
		}
		dims[i] = int(v)
		n *= int64(v)
	}
	if !d.byte(']') || !d.byte(',') || !d.key(`"data"`) || !d.byte('[') {
		return nil, false
	}
	x := getInput(dims)
	for i := range x.Data {
		if i > 0 && !d.byte(',') {
			return nil, false
		}
		v, ok := d.float32()
		if !ok {
			return nil, false
		}
		x.Data[i] = v
	}
	return x, d.byte(']')
}

// float32 reads a JSON number as encoding/json reads it into a float32:
// strconv.ParseFloat(s, 32), refusing what it refuses (a magnitude past
// math.MaxFloat32). The grammar is JSON's, not ParseFloat's, which also
// takes "+1", ".5", "1.", "Inf" and hex. An integer of at most seven
// digits is below 2^24, so exact in float32, and is converted without
// ParseFloat, which takes about three times as long on the short
// integers of a typical body (EXPERIMENTS.md, "Request decoder");
// negating it makes -0 negative zero, as ParseFloat does.
// TestDecodeIntegersMatchParseFloat holds it to ParseFloat on every such
// integer.
func (d *reqDecoder) float32() (float32, bool) {
	d.ws()
	b, i := d.b, d.i
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	// The integer part, accumulated as it is scanned (v wraps past
	// seven digits, where it is not used).
	intStart := i
	var v uint32
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		v = v*10 + uint32(b[i]-'0')
	}
	nInt := i - intStart
	if nInt == 0 || nInt > 1 && b[intStart] == '0' {
		return 0, false
	}
	exact := nInt <= 7
	if i < len(b) && b[i] == '.' {
		i++
		if !d.skipDigits(&i) {
			return 0, false
		}
		exact = false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !d.skipDigits(&i) {
			return 0, false
		}
		exact = false
	}
	d.i = i
	if exact {
		f := float32(v)
		if neg {
			f = -f
		}
		return f, true
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 32)
	return float32(f), err == nil
}

// appendInferResponse appends the JSON form of inferResponse{dims, data}
// to b. The bytes are exactly what json.NewEncoder(w).Encode writes for
// that value, trailing newline included: null for a nil slice, [] for
// an empty one, and each element by encoding/json's float32 rule. A NaN
// or ±Inf element, which encoding/json refuses too, is an error naming
// its index.
//
// Every element is written with a leading comma, and the first comma
// then becomes the '['. An integer in [smallIntMin, smallIntMax] —
// nearly every element of an integer-weight model's output, half of
// them the ReLU's zeros — is one 8-byte store from smallInts and an
// advance by its length, with no branch on its value; every other value
// takes appendElem. The store may write past the new length, so room
// for one more such store is kept behind the last element.
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
	switch {
	case data == nil:
		b = append(b, "null"...)
	case len(data) == 0:
		b = append(b, "[]"...)
	default:
		open := len(b)
		b = slices.Grow(b, smallIntRoom*len(data)+8)
		for i, v := range data {
			// int32(v) is implementation-defined for NaN, ±Inf and
			// out-of-range v, but whatever it yields, only an integral v
			// converts back to its own bits; -0 does not (int32 0 is +0).
			n := int32(v)
			if math.Float32bits(float32(n)) == math.Float32bits(v) && uint32(n-smallIntMin) <= smallIntMax-smallIntMin {
				e := smallInts[n-smallIntMin]
				l := len(b)
				binary.LittleEndian.PutUint64(b[l:l+8], e)
				b = b[:l+int(e>>56)]
				continue
			}
			var err error
			if b, err = appendElem(b, i, v); err != nil {
				return b, err
			}
			b = slices.Grow(b, smallIntRoom*(len(data)-1-i)+8)
		}
		b[open] = '['
		b = append(b, ']')
	}
	return append(b, "}\n"...), nil
}

// The integers smallInts holds, and the most bytes one of them takes
// with its comma (",-1000").
const (
	smallIntMin  = -1000
	smallIntMax  = 999
	smallIntRoom = 6
)

// smallInts holds, for each integer n in [smallIntMin, smallIntMax] at
// index n-smallIntMin, ',' and n's decimal digits as little-endian bytes
// with their count in the top byte: 16 KB, which stays in L1 while a
// response is written.
var smallInts = func() (t [smallIntMax - smallIntMin + 1]uint64) {
	for i := range t {
		s := strconv.AppendInt([]byte{','}, int64(i+smallIntMin), 10)
		var buf [8]byte
		copy(buf[:], s)
		buf[7] = byte(len(s))
		t[i] = binary.LittleEndian.Uint64(buf[:])
	}
	return t
}()

// appendElem appends ',' and element i of the data, v, outside the
// smallInts range: any other integer, a fraction, -0, or a NaN or ±Inf,
// which is an error naming i.
func appendElem(b []byte, i int, v float32) ([]byte, error) {
	// Integral fast path: every integer of magnitude up to 2^24 is a
	// float32, and its shortest decimal form is the integer itself.
	// Above 2^24 it is not (987654336 is written 987654340), and -0 is
	// written "-0".
	b = append(b, ',')
	if v >= -(1<<24) && v <= 1<<24 {
		if n := int32(v); float32(n) == v && (n != 0 || math.Float32bits(v) == 0) {
			return strconv.AppendInt(b, int64(n), 10), nil
		}
	}
	if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
		return b, fmt.Errorf("output element %d is %v, which JSON cannot represent", i, v)
	}
	return appendFloat32(b, v), nil
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
