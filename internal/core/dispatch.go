package core

// Kernel-family dispatch (DESIGN.md §11). A kernel family is one body
// the integrity sentinel probes and quarantines as a unit (DESIGN.md
// §12). The standard family serves every standard plan, whatever its
// (R, S, stride): the 12×8 vector body (kernel_amd64.s) takes S and the
// stride as arguments and walks R as rows, so one body — with its
// AVX-512 four-block and paired twins, which run four and two K-blocks
// per call where the host has them (bodies.span), and the AVX2 store
// epilogue (store_amd64.s) — is the whole standard micro-kernel. The two
// depthwise families are the AVX2 depthwise body (dwkernel_amd64.s),
// which runs a different block per stride, so each stride is its own
// probe target. On a host without the vector bodies the standard family
// runs the looped kernel12x8 with the portable Go store (store.go), and
// the depthwise families the depthwisePlaneRange oracle. The choice is
// made once, at init, from what the CPU reports. A plan binds its family
// once, at construction — no registration, no per-shape table — and this
// file is the only place that decides which body an execution runs: the
// family's, unless the integrity sentinel has quarantined it, in which
// case the bit-identical looped fallback (kernel12x8, depthwisePlaneRange)
// runs instead, with the Go store. The quarantine flag is read once per
// execution, so quarantine and restore reach every live plan — cached,
// memoised or held by a caller — without re-planning. Every body keeps
// kernel12x8's per-accumulator operation sequence (row ascending, s
// ascending, one fused multiply-add per tap) and every store storeTile's
// per-element one, so either choice stores the same bits.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ndirect/internal/conv"
	"ndirect/internal/faultinject"
	"ndirect/internal/tensor"
)

// tileStore is the calling convention of a V_k=8 tile store: the
// accumulator file goes to dst, which starts at the tile's first element
// (channel kBase, column qt0) — channel k's row at dst[(k-kBase)*stride:]
// when nchw, column ow's eight channels at dst[ow*stride:] otherwise.
// accumulate adds what dst holds first (a later channel tile); ep, nil
// off the last channel tile, is the fused epilogue, whose residual
// operand res is laid out like dst. A tileStore takes full K-blocks only:
// channels kBase..kBase+7 all exist.
type tileStore func(acc *accFile8, dst, res []float32, ep *epilogue, kBase, stride, vwEff int, nchw, accumulate bool)

// kernelFamily is one probe and quarantine target. The standard
// family's body holds the V_k=8 bodies and tile store, bound at init
// (kernel12x8 and no store on a host without the vector bodies; a nil
// quad or pair leaves its blocks to the narrower bodies); its s and str
// stay unset, since each plan supplies its own. A depthwise family
// serves one (R, S, stride), and its dwKern is the vector depthwise body,
// or the depthwisePlaneRange oracle on a host without it.
type kernelFamily struct {
	name      string
	depthwise bool
	r, s, str int // a depthwise family's filter and stride
	body      bodies
	dwKern    depthwiseKernel

	// quarantined is set while the family's probe output diverges from
	// the reference oracle; every plan bound to the family then runs the
	// looped fallback.
	quarantined atomic.Bool

	probe *familyProbe // built by the first VerifyKernelFamily; guarded by probeMu
}

// standardFamily serves every standard plan: TryNewPlan puts each on
// the V_w=12, V_k=8 register file, and the bodies take S and the stride
// as arguments and R as rows.
var standardFamily = &kernelFamily{name: "12x8.vec", body: bodies{kern: kernel12x8}}

// kernelFamilies is the whole dispatch table, in the order the
// integrity sentinel probes it.
var kernelFamilies = []*kernelFamily{
	standardFamily,
	{name: "dw.r3s3.s1", r: 3, s: 3, str: 1, depthwise: true, dwKern: depthwisePlaneRange},
	{name: "dw.r3s3.s2", r: 3, s: 3, str: 2, depthwise: true, dwKern: depthwisePlaneRange},
}

// On a host with the vector body the standard family runs it and stores
// its tiles with the vector store — running four or two K-blocks per
// call on the AVX-512 bodies where the host has them; both depthwise
// families run the vector depthwise body.
func init() {
	if !hasVectorBody {
		return
	}
	standardFamily.body.kern = vector12x8
	standardFamily.body.vst = vectorStore
	if hasPairBody {
		standardFamily.body.pair = vector12x16
		standardFamily.body.quad = vector12x32
	}
	for _, f := range kernelFamilies {
		if f.depthwise {
			f.dwKern = vectorDepthwise3x3
		}
	}
}

// KernelISA names the instruction set the kernel families run in this
// process: "avx512" when the standard family runs four or two K-blocks
// per call on the AVX-512 bodies (an odd last block, and the depthwise
// families, stay on AVX2), "avx2" for the vector bodies, "go" for the
// looped Go kernel and the depthwise oracle. Family names do not change
// with it.
func KernelISA() string {
	switch {
	case hasPairBody:
		return "avx512"
	case hasVectorBody:
		return "avx2"
	}
	return "go"
}

// dispatchHits counts standard plan constructions, each of which binds
// the standard family.
var dispatchHits atomic.Uint64

// dwFamilyFor returns the depthwise family written for a depthwise
// shape's (R, S, stride), or nil when there is none. (Every standard
// shape binds standardFamily.)
func dwFamilyFor(s conv.Shape) *kernelFamily {
	for _, f := range kernelFamilies {
		if f.depthwise && f.r == s.R && f.s == s.S && f.str == s.Str {
			return f
		}
	}
	return nil
}

func familyByName(name string) *kernelFamily {
	for _, f := range kernelFamilies {
		if f.name == name {
			return f
		}
	}
	return nil
}

// live reports whether a plan bound to f (nil = no family) runs f's
// body right now: the one read of the quarantine flag.
func (f *kernelFamily) live() bool { return f != nil && !f.quarantined.Load() }

// bodies is one execution's V_k=8 micro-kernel: the single-block body,
// the paired and four-block bodies (nil: none), the tile store (nil: the
// Go store) and the plan's filter width and stride, which every body
// call passes on.
type bodies struct {
	kern   func(acc *accFile8, buf, tf []float32, rows, s, str, vwEff, pitch int)
	pair   func(acc *accTile, buf, tf []float32, tfOff, rows, s, str, vwEff, pitch int) // two K-blocks per call
	quad   func(acc *accTile, buf, tf []float32, tfOff, rows, s, str, vwEff, pitch int) // four K-blocks per call
	vst    tileStore
	s, str int
}

// body resolves the V_k=8 bodies and tile store for one execution: the
// bound family's, or the looped kernel12x8, no multi-block body and the
// Go store when the family is quarantined — so a quarantine takes the
// multi-block bodies out of service with the single-block one.
// Every V_k=8 consumer — the k-block loop, the pack-fused first block,
// the separable pointwise stage — runs what this returned, through
// span and run, and nothing else.
func (p *Plan) body() bodies {
	b := bodies{kern: kernel12x8}
	if f := p.family; f.live() {
		b = f.body
	}
	b.s, b.str = p.Shape.S, p.Shape.Str
	return b
}

// span is how many K-blocks, from block kb of n, the next body call
// covers: four where a four-block body is bound and four blocks remain,
// two where a paired body is bound and two or three remain, one
// otherwise — so seven blocks run as 4+2+1 and an odd last block runs
// the single-block body.
func (b *bodies) span(kb, n int) int {
	switch left := n - kb; {
	case b.quad != nil && left >= 4:
		return 4
	case b.pair != nil && left >= 2:
		return 2
	}
	return 1
}

// run is the body call of every V_k=8 consumer: nb (span's answer)
// blocks of one register tile, block b's filter vectors at tf[b*tfOff:]
// into acc[b].
func (b *bodies) run(acc *accTile, nb int, buf, tf []float32, tfOff, rows, vwEff, pitch int) {
	switch nb {
	case 4:
		b.quad(acc, buf, tf, tfOff, rows, b.s, b.str, vwEff, pitch)
	case 2:
		b.pair(acc, buf, tf, tfOff, rows, b.s, b.str, vwEff, pitch)
	default:
		b.kern(&acc[0], buf, tf, rows, b.s, b.str, vwEff, pitch)
	}
}

// dwBody is body's depthwise twin; the fallback (no family, or family
// quarantined) is the depthwisePlaneRange oracle loop.
func dwBody(f *kernelFamily) depthwiseKernel {
	if f.live() {
		return f.dwKern
	}
	return depthwisePlaneRange
}

// dwKernelName names what dwBody would run.
func dwKernelName(f *kernelFamily) string {
	if f.live() {
		return f.name
	}
	return "dw.generic"
}

// KernelName reports which main micro-kernel the plan's next execution
// runs: its family's name, or "12x8" for the looped kernel (family
// quarantined).
func (p *Plan) KernelName() string {
	if p.family.live() {
		return p.family.name
	}
	return "12x8"
}

// DispatchStats is a point-in-time snapshot of the kernel dispatch
// counters.
type DispatchStats struct {
	Quarantined int    // kernel families under integrity quarantine
	Hits        uint64 // standard plan constructions, each binding the standard family

	// Deprecated: every standard shape binds the standard family, so
	// Misses is always 0. It stays so existing readers of the hit ratio
	// keep compiling.
	Misses uint64
}

// KernelDispatchStats snapshots the dispatch counters.
func KernelDispatchStats() DispatchStats {
	st := DispatchStats{Hits: dispatchHits.Load()}
	for _, f := range kernelFamilies {
		if f.quarantined.Load() {
			st.Quarantined++
		}
	}
	return st
}

// KernelFamilyNames returns the family names — standard then depthwise
// — in a fixed order: the probe target list the integrity sentinel
// walks.
func KernelFamilyNames() []string {
	names := make([]string, len(kernelFamilies))
	for i, f := range kernelFamilies {
		names[i] = f.name
	}
	return names
}

// KernelFamilyQuarantined reports whether the named family is under
// integrity quarantine.
func KernelFamilyQuarantined(name string) bool {
	f := familyByName(name)
	return f != nil && f.quarantined.Load()
}

// QuarantineKernelFamily pulls the named family out of service: from
// the next execution on, every plan bound to it — whenever it was
// built — runs the bit-identical looped fallback. Idempotent; returns
// false only for an unknown family name.
func QuarantineKernelFamily(name string) bool {
	f := familyByName(name)
	if f != nil {
		f.quarantined.Store(true)
	}
	return f != nil
}

// RestoreKernelFamily lifts the named family's quarantine; plans bound
// to it run its body again from their next execution. Idempotent;
// returns false only for an unknown family name.
func RestoreKernelFamily(name string) bool {
	f := familyByName(name)
	if f != nil {
		f.quarantined.Store(false)
	}
	return f != nil
}

// probeCopy returns a private copy of the family whose quarantine flag
// is never set: a probe plan bound to it drives the family's own body
// whatever the live flag says, which is what makes the probe usable as
// the restore check.
func (f *kernelFamily) probeCopy() *kernelFamily {
	return &kernelFamily{name: f.name, depthwise: f.depthwise, r: f.r, s: f.s, str: f.str,
		body: f.body, dwKern: f.dwKern}
}

// familyProbe is one family's golden-probe state — a plan bound to a
// probeCopy of the family, integer-valued operands and the oracle
// output, built on the first probe — so a steady-state sentinel probe
// costs one plan execution plus a compare, with zero heap allocations:
// a background sentinel must not pollute the serving process's
// allocation profile.
type familyProbe struct {
	shape     conv.Shape
	exec      func() error // one execution of the probe plan into out
	out, want *tensor.Tensor
}

// probeMu guards every family's probe field and serialises probe runs
// (a probe's output buffer is shared state; probes are microseconds and
// the sentinel runs one per tick).
var probeMu sync.Mutex

// newStandardProbe builds the golden probe for the standard family:
// small enough to cost microseconds, with ragged C and K edges (neither
// divides the tile sizes) so the body's edge handling is exercised,
// padded so the boundary row/column paths run too. The filter is 3×5 at
// stride 2, so the body's S and stride arguments both matter and R ≠ S.
// K=53 is seven K-blocks, so every bound body runs — four-block, paired
// and single, as 4+2+1 — and Q is 13: one full 12-column tile and a
// ragged one. Integer-valued operands make conv.Reference exact.
func newStandardProbe(f *kernelFamily) (*familyProbe, error) {
	s := conv.Shape{N: 1, C: 5, H: 11, W: 27, K: 53, R: 3, S: 5, Str: 2, Pad: 1}
	p, err := TryNewPlan(s, Options{Threads: 1})
	if err != nil {
		return nil, err
	}
	p.family = f.probeCopy()
	in, filter := s.NewInput(), s.NewFilter()
	fillProbe(in.Data, 0xA11CE)
	fillProbe(filter.Data, 0xB0B)
	kp := &familyProbe{shape: s, out: s.NewOutput(), want: conv.Reference(s, in, filter)}
	kp.exec = func() error { return p.TryExecute(in, filter, kp.out) }
	return kp, nil
}

// VerifyKernelFamily runs the named family's body and tile store over
// a golden integer-valued probe shape and compares the output
// bit-for-bit against the oracle (conv.Reference, or the
// depthwisePlaneRange loop for a depthwise family). A standard probe has
// seven K-blocks, so on an AVX-512 host it runs the four-block, paired
// and single-block bodies and checks each against the oracle's sums. A
// divergence returns an error wrapping ErrIntegrity; the caller (the
// serve-layer integrity sentinel) then quarantines the family. The probe
// drives the family's own body whether or not it is quarantined, so it
// also serves as the restore probe. An unknown name fails typed with
// ErrBadOptions.
func VerifyKernelFamily(name string) error {
	f := familyByName(name)
	if f == nil {
		return fmt.Errorf("%w: unknown kernel family %q", ErrBadOptions, name)
	}
	probeMu.Lock()
	defer probeMu.Unlock()
	kp := f.probe
	if kp == nil {
		build := newStandardProbe
		if f.depthwise {
			build = newDepthwiseProbe
		}
		var err error
		if kp, err = build(f); err != nil {
			return err
		}
		f.probe = kp
	}
	if err := kp.exec(); err != nil {
		return err
	}
	if _, ok := faultinject.Take(faultinject.KernelMiscompute); ok && len(kp.out.Data) > 0 {
		// A plausible silent miscompute: finite, small, wrong — the
		// bit-exact comparison below is the only thing that can see it.
		kp.out.Data[0]++
	}
	for i := range kp.out.Data {
		if kp.out.Data[i] != kp.want.Data[i] {
			return fmt.Errorf("%w: kernel family %s diverges from its oracle at element %d on probe %v: got %g, want %g",
				ErrIntegrity, name, i, kp.shape, kp.out.Data[i], kp.want.Data[i])
		}
	}
	return nil
}
