//go:build linux

package core

import (
	"math"
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"

	"ndirect/internal/conv"
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
			storeTile(&acc, want, resCopy, ep, 0, 8, stride, vwEff, nchw, true)
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

// guardedFloatsAfter returns n floats whose first element is the first
// word after an inaccessible page: any access before the slice faults.
func guardedFloatsAfter(t *testing.T, n int) []float32 {
	t.Helper()
	page := syscall.Getpagesize()
	data := (4*n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, page+data, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // test memory: nothing to do about a failed unmap
	if err := syscall.Mprotect(mem[:page], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[page])), n)
}

// The vector depthwise body touches nothing outside the input plane and
// the destination rows: with the plane's first word right after a
// PROT_NONE page, or its last right before one, and the destination
// ending at one, every stride, pad and width — halo columns, ragged
// last blocks, edge rows — stores the oracle's bits without a fault.
func TestVectorDepthwiseStaysInPlane(t *testing.T) {
	if !hasVectorBody {
		t.Skip("no vector depthwise body on this host")
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	rng := rand.New(rand.NewSource(9))
	filter := []float32{0.5, -1, 2, 0.25, 1, -0.5, 1.5, -2, 0.75}
	for _, str := range []int{1, 2} {
		for pad := 0; pad <= 2; pad++ {
			for _, w := range []int{3, 8, 9, 10, 17, 26, 33} {
				for _, h := range []int{3, 10} {
					s := conv.Shape{N: 1, C: 1, H: h, W: w, K: 1, R: 3, S: 3, Str: str, Pad: pad}
					n := s.P() * s.Q()
					want := make([]float32, n)
					for _, in := range [][]float32{guardedFloats(t, h*w), guardedFloatsAfter(t, h*w)} {
						for i := range in {
							in[i] = rng.Float32() - 0.5
						}
						depthwisePlaneRange(s, in, filter, want, 0, s.P())
						dst := guardedFloats(t, n)
						func() {
							defer func() {
								if r := recover(); r != nil {
									t.Fatalf("%v: the vector depthwise body faulted outside its operands: %v", s, r)
								}
							}()
							vectorDepthwise3x3(s, in, filter, dst, 0, s.P())
						}()
						for i := range dst {
							if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
								t.Fatalf("%v: output %d = %g, depthwisePlaneRange stores %g", s, i, dst[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// The pointwise body touches nothing past its operands even when each
// ends at the last word of its mapping: the masked loads of a ragged
// pixel tile, the masked rows of its stores and residual reads, and a
// ragged K-block's missing rows, against a PROT_NONE page — every pixel
// count of a tile, raw and with the whole epilogue.
func TestVectorPixelStopsAtGuardPage(t *testing.T) {
	if !hasPairBody {
		t.Skip("no pointwise body on this host")
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	rng := rand.New(rand.NewSource(11))
	full := &epilogue{bias: make([]float32, 8), scale: make([]float32, 8), shift: make([]float32, 8), residual: true, relu: true}
	for i := range full.bias {
		full.bias[i], full.scale[i], full.shift[i] = rng.Float32()-0.5, rng.Float32()+0.5, rng.Float32()-0.5
	}
	const rows = 3
	for npx := 1; npx <= pxTile; npx++ {
		for _, nk := range []int{8, 5} {
			for _, ep := range []*epilogue{nil, full} {
				// Rows back to back: the last channel's (row's) tail is the
				// mapping's.
				in, tf := guardedFloats(t, (rows-1)*npx+npx), guardedFloats(t, rows*8)
				last := (nk-1)*npx + npx - 1
				dst, res := guardedFloats(t, last+1), guardedFloats(t, last+1)
				want, resCopy := make([]float32, last+1), make([]float32, last+1)
				for _, op := range [][]float32{in, tf} {
					for i := range op {
						op[i] = rng.Float32() - 0.5
					}
				}
				for i := range dst {
					dst[i], res[i] = rng.Float32()-0.5, rng.Float32()-0.5
					want[i], resCopy[i] = dst[i], res[i]
				}
				var resArg []float32
				if ep != nil {
					resArg = res
				}
				pixelTile(want, resCopy, in, tf, ep, 0, nk, rows, npx, npx, npx, ep != nil)
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("npx=%d nk=%d epilogue=%v: the pointwise body faulted past its operands: %v", npx, nk, ep != nil, r)
						}
					}()
					vectorPixel(dst, resArg, in, tf, ep, 0, nk, rows, npx, npx, npx, ep != nil)
				}()
				for i := range dst {
					if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
						t.Fatalf("npx=%d nk=%d epilogue=%v: element %d = %g, pixelTile stores %g", npx, nk, ep != nil, i, dst[i], want[i])
					}
				}
			}
		}
	}
}
