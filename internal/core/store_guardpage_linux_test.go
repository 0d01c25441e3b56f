//go:build linux

package core

import (
	"math"
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guardedFloats returns n floats whose last element is the last word
// before an inaccessible page: any access past the slice faults.
func guardedFloats(t *testing.T, n int) []float32 {
	t.Helper()
	page := syscall.Getpagesize()
	data := (4*n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, data+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // test memory: nothing to do about a failed unmap
	if err := syscall.Mprotect(mem[data:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[data-4*n])), n)
}

// The vector store touches nothing past the tile's last element even
// when that is the last word of the mapping: the masked row tails of a
// ragged NCHW tile and the last column of an NHWC one end at a PROT_NONE
// page, for the output and for the residual operand.
func TestVectorStoreStopsAtGuardPage(t *testing.T) {
	if !hasVectorBody {
		t.Skip("no vector store on this host")
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	rng := rand.New(rand.NewSource(7))
	var acc accFile8
	for i := range acc {
		for l := range acc[i] {
			acc[i][l] = rng.Float32() - 0.5
		}
	}
	ep := &epilogue{residual: true, relu: true}
	for _, nchw := range []bool{true, false} {
		for vwEff := 1; vwEff <= maxVw; vwEff++ {
			stride := 8
			last := (vwEff-1)*stride + 7
			if nchw {
				stride = vwEff // rows back to back: the last row's tail is the mapping's
				last = 7*stride + vwEff - 1
			}
			dst, res := guardedFloats(t, last+1), guardedFloats(t, last+1)
			want, resCopy := make([]float32, last+1), make([]float32, last+1)
			for i := range dst {
				dst[i], res[i] = rng.Float32()-0.5, rng.Float32()-0.5
				want[i], resCopy[i] = dst[i], res[i]
			}
			storeTile(acc[:], 2, want, resCopy, ep, 0, 8, stride, vwEff, nchw, true)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("nchw=%v vwEff=%d: the vector store faulted past the tile: %v", nchw, vwEff, r)
					}
				}()
				vectorStore(&acc, dst, res, ep, 0, stride, vwEff, nchw, true)
			}()
			for i := range dst {
				if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
					t.Fatalf("nchw=%v vwEff=%d: element %d = %g, the Go store writes %g", nchw, vwEff, i, dst[i], want[i])
				}
			}
		}
	}
}
