package core

import (
	"math"

	"ndirect/internal/simd"
)

// The numeric contract of every accumulating body (DESIGN.md §11): each
// output is the chain acc = fma32(w, x, acc) from +0, one rounding per
// tap. The vector bodies issue VFMADD231PS/SS; fma32 is the same
// operation in portable Go, which is what the looped oracles run.

// fma32 returns a·b + c rounded once to float32 (round to nearest even),
// the result of one VFMADD231SS. float32(math.FMA(a, b, c)) would round
// twice — to float64, then to float32 — and is wrong on rare inputs.
// Instead: the product of two float32 values is exact in float64 (24+24
// significand bits), the float64 sum is corrected to round-to-odd with
// its TwoSum error term, and a round-to-odd value with 53 ≥ 24+2 bits
// rounds to float32 exactly as the exact sum would (Boldo and
// Melquiond). The explicit float64 conversion of the product keeps a
// compiler that fuses (GOAMD64=v3) from rounding the sum differently.
func fma32(a, b, c float32) float32 {
	p := float64(float64(a) * float64(b))
	cc := float64(c)
	s := p + cc
	if math.IsInf(s, 0) || math.IsNaN(s) {
		// Only a non-finite operand gets here: a float32 product and sum
		// cannot overflow float64.
		return float32(s)
	}
	z := s - p
	if e := (p - (s - z)) + (cc - z); e != 0 {
		// s + e is the exact sum and s ≠ 0 (a sum that rounds to zero is
		// exact). Round to odd: an even s moves one ulp toward the exact
		// sum, an odd s is already the truncation with its sticky bit.
		if bits := math.Float64bits(s); bits&1 == 0 {
			if (e > 0) == (s > 0) {
				bits++
			} else {
				bits--
			}
			s = math.Float64frombits(bits)
		}
	}
	return float32(s)
}

// fmaLanes returns acc + f·x lane-wise with one rounding per lane: the
// oracle's step for one accumulator of the V_k=8 file.
func fmaLanes(acc, f simd.Vec4, x float32) simd.Vec4 {
	return simd.Vec4{fma32(f[0], x, acc[0]), fma32(f[1], x, acc[1]), fma32(f[2], x, acc[2]), fma32(f[3], x, acc[3])}
}
