package core

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// fmaExact is a·b + c computed exactly in math/big and rounded once to
// float32: the definition fma32 must meet. Only finite operands.
func fmaExact(a, b, c float32) float32 {
	const prec = 1024 // a·b + c of float32s spans < 500 bits
	x := new(big.Float).SetPrec(prec).SetFloat64(float64(a))
	y := new(big.Float).SetPrec(prec).SetFloat64(float64(b))
	z := new(big.Float).SetPrec(prec).SetFloat64(float64(c))
	r := new(big.Float).SetPrec(prec).Mul(x, y)
	r.Add(r, z)
	if r.Sign() == 0 {
		// An exact zero: IEEE's sign rule (−0 only when both addends are
		// −0), which big.Float does not keep for a product.
		return float32(float64(a)*float64(b)) + c
	}
	f, _ := r.Float32()
	return f
}

func sameFloat32(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

// fma32 is the exactly rounded fused multiply-add on random triples over
// the whole exponent range, on near-cancelling ones, where the sum loses
// most of its bits, and on sums next to a float32 tie, where a double
// rounding shows.
func TestFMA32MatchesBigFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	anyFloat := func() float32 {
		for {
			if f := math.Float32frombits(rng.Uint32()); !math.IsInf(float64(f), 0) && f == f {
				return f
			}
		}
	}
	unit := func() float32 { return (rng.Float32()*2 - 1) * float32(math.Ldexp(1, rng.Intn(40)-20)) }
	n := 200000
	if testing.Short() {
		n = 20000
	}
	mismatches := 0
	for i := 0; i < n; i++ {
		var a, b, c float32
		switch i % 4 {
		case 0:
			a, b, c = anyFloat(), anyFloat(), anyFloat()
		case 1:
			a, b, c = unit(), unit(), unit()
		case 2:
			// c ≈ −a·b: the product's low bits decide the result.
			a, b = unit(), unit()
			c = -float32(float64(a)*float64(b)) * (1 + float32(rng.Intn(5)-2)*0x1p-23)
		default:
			// a·b ≈ half an ulp of c, off by a few 2⁻²³ and 2⁻⁴⁶ relative
			// steps: the sum lands on, or a hair off, a float32 tie, where
			// rounding to float64 first decides the tie wrongly.
			c = unit()
			half := float32(math.Ldexp(1, math.Ilogb(float64(c))-24))
			a = half * (1 + float32(rng.Intn(7)-3)*0x1p-23)
			b = 1 - float32(rng.Intn(7)-3)*0x1p-23
		}
		got, want := fma32(a, b, c), fmaExact(a, b, c)
		if !sameFloat32(got, want) {
			if mismatches++; mismatches <= 5 {
				t.Errorf("fma32(%x, %x, %x) = %x, exact %x", math.Float32bits(a), math.Float32bits(b), math.Float32bits(c),
					math.Float32bits(got), math.Float32bits(want))
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d of %d triples differ from the exactly rounded result", mismatches, n)
	}
}

// The constructed double-rounding case: a·b + c = 1 + 2⁻²³ + 2⁻²⁴ −
// 2⁻⁷⁰, just under the float32 tie between 0x3f800001 and 0x3f800002.
// Rounding to float64 first lands on the tie and then rounds to even.
func TestFMA32DoubleRoundingCase(t *testing.T) {
	a := float32(0x1p-12 * (1 + 0x1p-23))
	b := float32(0x1p-12 * (1 - 0x1p-23))
	c := float32(1 + 0x1p-23)
	if got := math.Float32bits(fma32(a, b, c)); got != 0x3f800001 {
		t.Fatalf("fma32 = %#x, want 0x3f800001", got)
	}
	if got := math.Float32bits(fmaExact(a, b, c)); got != 0x3f800001 {
		t.Fatalf("the math/big oracle gives %#x, want 0x3f800001", got)
	}
	if naive := math.Float32bits(float32(math.FMA(float64(a), float64(b), float64(c)))); naive != 0x3f800002 {
		t.Fatalf("the naive float32(math.FMA) gives %#x; the case no longer separates it from fma32", naive)
	}
}

// Non-finite operands, overflow and subnormal results: what IEEE 754
// (and VFMADD231SS) returns.
func TestFMA32Specials(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	const max = math.MaxFloat32
	tiny := float32(math.SmallestNonzeroFloat32)
	for _, c := range []struct {
		name    string
		a, b, c float32
		want    float32
	}{
		{"Inf·0 is NaN", inf, 0, 1, nan},
		{"Inf−Inf is NaN", inf, 1, -inf, nan},
		{"NaN propagates", 1, 2, nan, nan},
		{"Inf·x + finite", inf, -2, 1e30, -inf},
		{"finite + Inf", 3, 4, inf, inf},
		{"overflow to Inf", max, 2, 0, inf},
		{"overflow past the half-ulp tie", max, 1, 0x1p103, inf},
		{"just under the tie stays finite", max, 1, 0x1p103 - 0x1p80, max},
		{"cancellation back into range", max, 2, -max, max},
		{"subnormal result", 0x1p-74, 0x1p-75, 0, tiny},
		{"subnormal sum", tiny, 0.5, tiny, tiny * 2},
		{"halfway below the smallest subnormal rounds to 0", tiny, 0.5, 0, 0},
		{"just past halfway rounds up", tiny, 0.5 + 0x1p-20, 0, tiny},
		{"−0·x + −0 is −0", negZero, 3, negZero, negZero},
		{"exact cancellation is +0", 3, 4, -12, 0},
	} {
		got := fma32(c.a, c.b, c.c)
		if !sameFloat32(got, c.want) {
			t.Errorf("%s: fma32(%g, %g, %g) = %g (%#x), want %g (%#x)", c.name, c.a, c.b, c.c,
				got, math.Float32bits(got), c.want, math.Float32bits(c.want))
		}
		if finite := !math.IsInf(float64(c.a), 0) && !math.IsInf(float64(c.b), 0) && !math.IsInf(float64(c.c), 0) &&
			c.a == c.a && c.b == c.b && c.c == c.c; finite {
			if exact := fmaExact(c.a, c.b, c.c); !sameFloat32(got, exact) {
				t.Errorf("%s: fma32 = %#x, math/big %#x", c.name, math.Float32bits(got), math.Float32bits(exact))
			}
		}
	}
}
