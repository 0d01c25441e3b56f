package core

// Silent-data-corruption defense (DESIGN.md §12). The bit-exactness
// contract the rest of the library is built on — packed filters
// re-pack bit-identically, dispatch variants match the looped kernel
// with MaxAbsDiff==0 — is enforced here at runtime by three layers:
// CRC32-C checksums over packed weight artifacts (verified on re-pack
// and on a sampled schedule), canary words around every worker's
// scratch buffers (checked when a run's grid joins), and the
// kernel-family probe VerifyKernelFamily (dispatch.go) that compares a
// variant's output bit-for-bit against the reference oracle. Each
// detection surfaces as a typed ErrIntegrity and is counted in the
// package-level IntegrityStats.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sync/atomic"

	"ndirect/internal/tensor"
)

// castagnoli is the CRC32-C polynomial table; Castagnoli is the SSE4/
// ARMv8-hardware-accelerated polynomial, and hash/crc32 uses the
// CRC32C instructions when the CPU has them, so checksumming a packed
// filter costs well under the transform that built it.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcFloats computes the CRC32-C over the float32 bit patterns of
// data. It stages through a stack buffer so the steady-state verify
// path allocates nothing.
func crcFloats(data []float32) uint32 {
	var buf [1024]byte
	var crc uint32
	i := 0
	for i < len(data) {
		n := 0
		for n < len(buf) && i < len(data) {
			binary.LittleEndian.PutUint32(buf[n:], math.Float32bits(data[i]))
			n += 4
			i++
		}
		crc = crc32.Update(crc, castagnoli, buf[:n])
	}
	return crc
}

// Scratch-canary constants: every worker scratch buffer is allocated
// with canaryWords guard words past its logical end, stamped with a
// bit pattern no kernel computes (a fixed quiet negative float), and
// checked when the run's grid joins. In pure Go an overrun past a
// slice length panics before it reaches the guard; the canaries exist
// for the faultinject.ScratchOverrun drill and for future assembly
// kernels, whose stores bypass bounds checks entirely.
const (
	canaryBits  = 0xDEADBEEF // not NaN/Inf (exponent 0xBD): survives any scan
	canaryWords = 4
)

// newGuarded allocates an n-element scratch buffer followed by
// canaryWords stamped guard words; the caller keeps the full slice for
// checking and hands out full[:n] for use.
func newGuarded(n int) []float32 {
	full := make([]float32, n+canaryWords)
	for i := n; i < len(full); i++ {
		full[i] = math.Float32frombits(canaryBits)
	}
	return full
}

// canariesIntact reports whether the guard words past element n still
// hold their stamp.
func canariesIntact(full []float32, n int) bool {
	for i := n; i < len(full); i++ {
		if math.Float32bits(full[i]) != canaryBits {
			return false
		}
	}
	return true
}

// DefaultPackedVerifyInterval is the sampled-verification period: one
// in this many packed executions re-checksums the weights it is about
// to consume. The period amortises the CRC cost to noise on the hot
// path while still bounding how long a resident bit flip can serve
// before detection.
const DefaultPackedVerifyInterval = 1024

var packedVerifyInterval atomic.Int64

func init() { packedVerifyInterval.Store(DefaultPackedVerifyInterval) }

// SetPackedVerifyInterval sets the sampled-verification period for
// packed executions (1 = verify every run, n <= 0 = sampling off;
// explicit Verify calls and the eviction/re-pack path are unaffected).
// It returns the previous value so tests and harnesses can restore it.
func SetPackedVerifyInterval(n int) int {
	return int(packedVerifyInterval.Swap(int64(n)))
}

// PackedVerifyInterval returns the current sampled-verification
// period.
func PackedVerifyInterval() int { return int(packedVerifyInterval.Load()) }

var (
	packedVerifies       atomic.Uint64
	packedVerifyFailures atomic.Uint64
	scratchCanaryTrips   atomic.Uint64
)

// IntegrityStats is a point-in-time snapshot of the package-level
// corruption-defense counters.
type IntegrityStats struct {
	PackedVerifies       uint64 `json:"packed_verifies"`        // checksum verifications run (sampled + explicit)
	PackedVerifyFailures uint64 `json:"packed_verify_failures"` // verifications that found a mismatch
	ScratchCanaryTrips   uint64 `json:"scratch_canary_trips"`   // runs quarantined for an overwritten guard word
}

// IntegritySnapshot snapshots the corruption-defense counters.
func IntegritySnapshot() IntegrityStats {
	return IntegrityStats{
		PackedVerifies:       packedVerifies.Load(),
		PackedVerifyFailures: packedVerifyFailures.Load(),
		ScratchCanaryTrips:   scratchCanaryTrips.Load(),
	}
}

// packedCore is the resident-weights handle every packed operand is
// built on — PackedFilter and PackedDepthwiseFilter embed it and add
// only their geometry check. It owns what the robustness layer needs of
// a packed artifact whatever its layout: the immutable buffer, the
// framework-layout source the oracle recomputes from (and re-packs
// read), the pack-time CRC32-C with its sampled verification schedule,
// and the released flag a residency manager flips on eviction.
//
// The buffer is immutable after seal and garbage-collected, never
// recycled: executions that validated before a Release keep reading
// valid memory, so an eviction racing in-flight traffic yields a
// stale-but-correct result or a typed error, never a read of reused
// memory. The source must not be mutated while the handle is in use.
type packedCore struct {
	what      string         // artifact and geometry, for errors ("packed filter K64 C64 R3 S3 Vk8")
	src       *tensor.Tensor // framework-layout source weights
	data      []float32
	crc       uint32        // CRC32-C of data, computed at pack time
	released  atomic.Bool   // set by Release; checked by usable
	verifySeq atomic.Uint64 // execution counter driving sampled verification
}

// seal binds a freshly packed buffer to the handle and stamps its
// checksum.
func (pc *packedCore) seal(what string, src *tensor.Tensor, data []float32) {
	pc.what, pc.src, pc.data, pc.crc = what, src, data, crcFloats(data)
}

// Checksum returns the CRC32-C computed over the packed buffer at pack
// time. Packing is deterministic, so re-packing the same source always
// reproduces it — the property the eviction/re-pack path's verification
// rests on.
func (pc *packedCore) Checksum() uint32 { return pc.crc }

// Verify re-checksums the packed buffer against the pack-time CRC32-C,
// returning an error wrapping ErrIntegrity on mismatch. A mismatch
// means the resident bytes were corrupted after packing (a DRAM bit
// flip, a stray store); the owner must drop the handle and re-pack
// from the retained source rather than keep serving from it. Safe for
// concurrent use with executions — the buffer is read-only.
func (pc *packedCore) Verify() error { return pc.verifyConsumed(pc.data) }

// verifyConsumed checks the buffer an execution is about to consume
// (the resident data, or a run-private copy under fault injection)
// against the pack-time checksum, counting the verification and any
// failure.
func (pc *packedCore) verifyConsumed(data []float32) error {
	packedVerifies.Add(1)
	if crcFloats(data) != pc.crc {
		packedVerifyFailures.Add(1)
		return fmt.Errorf("%w: %s fails its pack-time CRC32-C; re-pack from the source", ErrIntegrity, pc.what)
	}
	return nil
}

// shouldVerify implements the sampled verification schedule: every
// PackedVerifyInterval-th execution consuming this handle re-checksums
// the weights first.
func (pc *packedCore) shouldVerify() bool {
	iv := packedVerifyInterval.Load()
	if iv <= 0 {
		return false
	}
	return pc.verifySeq.Add(1)%uint64(iv) == 0
}

// Bytes returns the packed allocation size (weight-budget accounting).
func (pc *packedCore) Bytes() int64 { return 4 * int64(len(pc.data)) }

// Source returns the framework-layout tensor the handle was packed
// from.
func (pc *packedCore) Source() *tensor.Tensor { return pc.src }

// Release retires the packed weights: subsequent executions fail typed
// with ErrWeightsReleased until the owner re-packs. It reports whether
// this call performed the release (false when already released), which
// gives residency accountants exactly-once charge-return semantics
// even when eviction, replacement and unregistration race.
func (pc *packedCore) Release() bool { return !pc.released.Swap(true) }

// Released reports whether the packed weights have been retired.
func (pc *packedCore) Released() bool { return pc.released.Load() }

// usable fails typed once the handle is released.
func (pc *packedCore) usable() error {
	if pc.Released() {
		return fmt.Errorf("%w: %s was evicted; re-pack before executing", ErrWeightsReleased, pc.what)
	}
	return nil
}

// FillProbe fills data with small integers in [-3, 3] from a
// deterministic stream — the library-wide convention for bit-exact
// oracles: integer-valued float32 operands make the optimised float32
// paths and the float64 reference produce identical bits, so a probe
// can demand MaxAbsDiff == 0. Exported for the serving layer's
// integrity sentinel, which builds golden model inputs the same way.
func FillProbe(data []float32, seed uint64) { fillProbe(data, seed) }

func fillProbe(data []float32, seed uint64) {
	x := seed*2654435761 + 12345
	for i := range data {
		x = x*6364136223846793005 + 1442695040888963407
		data[i] = float32(int64(x>>33)%7 - 3)
	}
}
