package core

import "testing"

// The binding decision is a pure function of the CPUID/XGETBV words: a
// vector body is bound only where every instruction it issues — VFMADD
// included — runs and the OS saves the registers it uses.
func TestDetectVectorISA(t *testing.T) {
	const (
		fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
		avx2, avx512f     = 1 << 5, 1 << 16
		leaf1             = fma | osxsave | avx
		xcr0YMM, xcr0ZMM  = 0x07, 0xE7 // x87+XMM+YMM; plus opmask, ZMM0–15 high, ZMM16–31
	)
	for _, c := range []struct {
		name         string
		w            cpuidWords
		vector, pair bool
	}{
		{"AVX-512 host", cpuidWords{maxLeaf: 0xd, leaf1ECX: leaf1, leaf7EBX: avx2 | avx512f, xcr0: xcr0ZMM}, true, true},
		{"AVX2 and FMA3 host", cpuidWords{maxLeaf: 0xd, leaf1ECX: leaf1, leaf7EBX: avx2, xcr0: xcr0YMM}, true, false},
		{"AVX2 without FMA3", cpuidWords{maxLeaf: 0xd, leaf1ECX: osxsave | avx, leaf7EBX: avx2 | avx512f, xcr0: xcr0ZMM}, false, false},
		{"no OSXSAVE", cpuidWords{maxLeaf: 0xd, leaf1ECX: fma | avx, leaf7EBX: avx2, xcr0: xcr0YMM}, false, false},
		{"no AVX", cpuidWords{maxLeaf: 0xd, leaf1ECX: fma | osxsave, leaf7EBX: avx2, xcr0: xcr0YMM}, false, false},
		{"OS does not save YMM", cpuidWords{maxLeaf: 0xd, leaf1ECX: leaf1, leaf7EBX: avx2, xcr0: 0x03}, false, false},
		{"no leaf 7", cpuidWords{maxLeaf: 6, leaf1ECX: leaf1, leaf7EBX: avx2 | avx512f, xcr0: xcr0ZMM}, false, false},
		{"no AVX2", cpuidWords{maxLeaf: 0xd, leaf1ECX: leaf1, leaf7EBX: avx512f, xcr0: xcr0ZMM}, false, false},
		{"AVX512F, OS saves no ZMM state", cpuidWords{maxLeaf: 0xd, leaf1ECX: leaf1, leaf7EBX: avx2 | avx512f, xcr0: xcr0YMM}, true, false},
		{"AVX512F, no opmask state", cpuidWords{maxLeaf: 0xd, leaf1ECX: leaf1, leaf7EBX: avx2 | avx512f, xcr0: 0xC7}, true, false},
	} {
		if vector, pair := detectVectorISA(c.w); vector != c.vector || pair != c.pair {
			t.Errorf("%s: detectVectorISA = (%v, %v), want (%v, %v)", c.name, vector, pair, c.vector, c.pair)
		}
	}
	if vector, pair := detectVectorISA(readCPUID()); vector != hasVectorBody || pair != hasPairBody {
		t.Fatalf("this CPU: detectVectorISA = (%v, %v), bound (%v, %v)", vector, pair, hasVectorBody, hasPairBody)
	}
}
