package core

// Kernel-family dispatch (DESIGN.md §11). The paper's micro-kernel is
// specialised by kernel width and stride only (Algorithm 3, Eq. 3–4),
// so the bodies are keyed the same way: one static table of (R, S,
// stride) families, five for the standard 12×8 register file and two
// for depthwise (dwkernel.go). A standard family's body is the AVX2
// vector body (kernel_amd64.s) and its tile store the AVX2 store
// epilogue (store_amd64.s) where the host has them — plus the AVX-512
// four-block and paired bodies, which run four and two K-blocks per
// call, where the host has those too (bodies.span) — and a depthwise
// family's the AVX2 depthwise body
// (dwkernel_amd64.s); everywhere else the family has no body of its own
// and its plans run the looped Go kernel bound to their (S, stride) with
// the portable Go store (store.go), or the depthwisePlaneRange oracle.
// The choice is made once, at init, from what the CPU reports. A plan binds
// its family once, at construction, from its own loop constants — no
// registration, no per-shape table — and this file is the only place
// that decides which body an execution runs: the family's, unless the
// integrity sentinel has quarantined it (DESIGN.md §12), in which case
// the bit-identical looped fallback (kernel12x8, depthwisePlaneRange)
// runs instead, with the Go store. The quarantine flag is read once per
// execution, so quarantine and restore reach every live plan — cached,
// memoised or held by a caller — without re-planning. Every body keeps
// kernel12x8's per-accumulator operation sequence (row ascending, s
// ascending, one fused multiply-add per tap) and every store
// storeTile's per-element one, so either choice stores the same bits.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ndirect/internal/conv"
	"ndirect/internal/faultinject"
	"ndirect/internal/tensor"
)

// specializedKernel is the calling convention of a V_k=8 main
// micro-kernel body with S and stride bound into the function, so only
// the runtime-variable extents cross the call: rows = tc·R (cv, r)
// coordinates, row i read at buf[i*pitch:] against the S filter vectors
// at tf[i*S*8:] (kernel12x8's operand layout).
type specializedKernel func(acc *accFile8, buf, tf []float32, rows, vwEff, pitch int)

// multiKernel is specializedKernel over several adjacent K-blocks in one
// call (two for the paired body, four for the four-block body): block
// b's filter vectors at tf[b*tfOff:] into acc[b], all against the same
// input rows.
type multiKernel func(acc *accTile, buf, tf []float32, tfOff, rows, vwEff, pitch int)

// tileStore is the calling convention of a V_k=8 tile store: the
// accumulator file goes to dst, which starts at the tile's first element
// (channel kBase, column qt0) — channel k's row at dst[(k-kBase)*stride:]
// when nchw, column ow's eight channels at dst[ow*stride:] otherwise.
// accumulate adds what dst holds first (a later channel tile); ep, nil
// off the last channel tile, is the fused epilogue, whose residual
// operand res is laid out like dst. A tileStore takes full K-blocks only:
// channels kBase..kBase+7 all exist.
type tileStore func(acc *accFile8, dst, res []float32, ep *epilogue, kBase, stride, vwEff int, nchw, accumulate bool)

// kernelFamily is one body and the (R, S, stride) it serves. A standard
// 12×8 family's kern, pair, quad and store, and a depthwise family's
// dwKern, are the vector routines, bound at init, or nil on a host
// without them (the plan's looped kernel12x8 and the portable Go store
// run, or depthwisePlaneRange; a nil quad or pair leaves its blocks to
// the narrower bodies).
type kernelFamily struct {
	name      string
	r, s, str int
	depthwise bool
	kern      specializedKernel
	pair      multiKernel // two K-blocks per call
	quad      multiKernel // four K-blocks per call
	store     tileStore
	dwKern    depthwiseKernel

	// quarantined is set while the family's probe output diverges from
	// the reference oracle; every plan bound to the family then runs the
	// looped fallback.
	quarantined atomic.Bool

	probe *familyProbe // built by the first VerifyKernelFamily; guarded by probeMu
}

// kernelFamilies is the whole dispatch table, in the order the
// integrity sentinel probes it. Every standard plan is on the V_w=12,
// V_k=8 register file (TryNewPlan), so a standard family is keyed by
// (R, S, stride) alone.
var kernelFamilies = []*kernelFamily{
	{name: "12x8.r3s3.s1", r: 3, s: 3, str: 1},
	{name: "12x8.r3s3.s2", r: 3, s: 3, str: 2},
	{name: "12x8.r1s1.s1", r: 1, s: 1, str: 1},
	{name: "12x8.r1s1.s2", r: 1, s: 1, str: 2},
	{name: "12x8.r7s7.s2", r: 7, s: 7, str: 2},
	{name: "dw.r3s3.s1", r: 3, s: 3, str: 1, depthwise: true},
	{name: "dw.r3s3.s2", r: 3, s: 3, str: 2, depthwise: true},
}

// On a host with the vector body every standard family runs it, bound
// to the family's (S, stride), and stores its tiles with the vector
// store — running four or two K-blocks per call on the AVX-512 bodies
// where the host has them; both depthwise families run the vector
// depthwise body.
func init() {
	if !hasVectorBody {
		return
	}
	for _, f := range kernelFamilies {
		if f.depthwise {
			f.dwKern = vectorDepthwise3x3
		} else {
			f.kern = vectorKernel(f.s, f.str)
			f.store = vectorStore
			if hasPairBody {
				f.pair = multiBlockKernel(vector12x16, f.s, f.str)
				f.quad = multiBlockKernel(vector12x32, f.s, f.str)
			}
		}
	}
}

// vectorKernel binds the vector body to one (S, stride).
func vectorKernel(s, str int) specializedKernel {
	return func(acc *accFile8, buf, tf []float32, rows, vwEff, pitch int) {
		vector12x8(acc, buf, tf, rows, s, str, vwEff, pitch)
	}
}

// multiBlockKernel binds an AVX-512 multi-block body to one (S, stride).
func multiBlockKernel(body func(acc *accTile, buf, tf []float32, tfOff, rows, s, str, vwEff, pitch int), s, str int) multiKernel {
	return func(acc *accTile, buf, tf []float32, tfOff, rows, vwEff, pitch int) {
		body(acc, buf, tf, tfOff, rows, s, str, vwEff, pitch)
	}
}

// KernelISA names the instruction set the kernel families run in this
// process: "avx512" when the standard families run four or two K-blocks
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

// dispatchHits/dispatchMisses count standard plan constructions that
// did / did not find a family.
var dispatchHits, dispatchMisses atomic.Uint64

// familyFor returns the family for a shape's loop constants, nil when
// none is written for them.
func familyFor(s conv.Shape, depthwise bool) *kernelFamily {
	for _, f := range kernelFamilies {
		if f.depthwise == depthwise && f.r == s.R && f.s == s.S && f.str == s.Str {
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

// countStandardBinding records the outcome of TryNewPlan's family
// lookup, so the hit ratio measures family coverage of the standard
// traffic.
func countStandardBinding(f *kernelFamily) {
	if f != nil {
		dispatchHits.Add(1)
	} else {
		dispatchMisses.Add(1)
	}
}

// live reports whether a plan bound to f (nil = no family) runs f's
// body right now: the one read of the quarantine flag.
func (f *kernelFamily) live() bool { return f != nil && !f.quarantined.Load() }

// bodies is one execution's V_k=8 micro-kernel: the single-block body,
// the paired and four-block bodies (nil: none) and the tile store (nil:
// the Go store).
type bodies struct {
	kern specializedKernel
	pair multiKernel
	quad multiKernel
	vst  tileStore
}

// body resolves the V_k=8 bodies and tile store for one execution: the
// bound family's, or the looped kernel12x8, no multi-block body and the
// Go store when the plan has no family, the family is quarantined, or
// the host has no vector body for it — so a quarantine takes the
// multi-block bodies out of service with the single-block one.
// Every V_k=8 consumer — the k-block loop, the pack-fused first block,
// the separable pointwise stage — runs what this returned, through
// span and run, and nothing else.
func (p *Plan) body() bodies {
	if f := p.family; f.live() && f.kern != nil {
		return bodies{kern: f.kern, pair: f.pair, quad: f.quad, vst: f.store}
	}
	return bodies{kern: p.looped}
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
		b.quad(acc, buf, tf, tfOff, rows, vwEff, pitch)
	case 2:
		b.pair(acc, buf, tf, tfOff, rows, vwEff, pitch)
	default:
		b.kern(&acc[0], buf, tf, rows, vwEff, pitch)
	}
}

// dwBody is body's depthwise twin; the fallback is the
// depthwisePlaneRange oracle loop.
func dwBody(f *kernelFamily) depthwiseKernel {
	if f.live() && f.dwKern != nil {
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
// runs: its family's name, or "12x8" for the looped kernel (no family,
// or family quarantined).
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
	Hits        uint64 // eligible plan constructions that bound a family
	Misses      uint64 // eligible constructions with no family
}

// KernelDispatchStats snapshots the dispatch counters.
func KernelDispatchStats() DispatchStats {
	st := DispatchStats{Hits: dispatchHits.Load(), Misses: dispatchMisses.Load()}
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
	return &kernelFamily{name: f.name, r: f.r, s: f.s, str: f.str, depthwise: f.depthwise,
		kern: f.kern, pair: f.pair, quad: f.quad, store: f.store, dwKern: f.dwKern}
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

// newStandardProbe builds the golden probe for a 12×8 family: small
// enough to cost microseconds, with ragged C and K edges (neither
// divides the tile sizes) so the body's edge handling is exercised,
// padded so the boundary row/column paths run too. K=53 is seven
// K-blocks, so every bound body runs — four-block, paired and single, as
// 4+2+1 — and Q is 13 or 14: one full 12-column tile and a ragged one.
// Integer-valued operands make conv.Reference exact.
func newStandardProbe(f *kernelFamily) (*familyProbe, error) {
	w := 12*f.str + f.s - 2 + 1 // Q = (W+2-S)/str + 1 ≥ 13 at Pad 1
	s := conv.Shape{N: 1, C: 5, H: 11, W: w, K: 53, R: f.r, S: f.s, Str: f.str, Pad: 1}
	p, err := TryNewPlan(s, Options{Threads: 1})
	if err != nil {
		return nil, err
	}
	if p.family != f {
		return nil, fmt.Errorf("%w: kernel family %s does not bind its own probe shape %v", ErrBadOptions, f.name, s)
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
// divergence
// returns an error wrapping ErrIntegrity; the caller (the serve-layer
// integrity sentinel) then quarantines the family. The probe drives the
// family's own body whether or not it is quarantined, so it also serves
// as the restore probe. An unknown name fails typed with ErrBadOptions.
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
