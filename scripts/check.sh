#!/bin/sh
# Full verification gate: build, vet, race-enabled tests, and a short
# fuzz smoke of the checked API's never-panic property. Run from the
# repository root (or via `make check`).
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

# The vector micro-kernel body and the vector tile store are amd64
# assembly; every other architecture compiles the stubs
# (internal/core/kernel_other.go, store_other.go) and keeps the portable
# Go bodies and store. Prove both a 64-bit and a 32-bit one build and vet
# clean.
for arch in arm64 386; do
    echo "==> GOARCH=$arch go build ./... && go vet ./..."
    GOARCH=$arch go build ./...
    GOARCH=$arch go vet ./...
done

# The numeric contract (DESIGN.md §11) has two halves, fenced apart.
# Every accumulating body rounds once per tap — acc = fma(w, x, acc),
# VFMADD231PS/SS, the chain the looped oracles compute with fma32 — so
# the kernel* and vector* routines must hold no separate multiply: a
# VMULPS/VMULSS there is the first half of a two-rounding VMULPS→VADDPS
# (VMULSS→VADDSS) accumulation. The assembler's -S listing names every
# instruction it encodes, so that fence reads the listing; its positive
# control assembles a kernel routine with a mul+add pair and must flag
# it, and the real listing must show the bodies' VFMADD231PS.
# The store epilogue keeps its separate roundings (bias, then v·scale,
# then + shift), so the store* symbols hold no fused multiply-add, in
# the assembly or from the compiler. `go tool objdump` does not decode
# VEX instructions, so that check reads the bytes it prints: every FMA3
# instruction is C4 [RXB.00010] [W.vvvv.L.01] followed by an opcode in
# 96-9F, A6-AF or B6-BF, and every EVEX-encoded one is 62 [RXBR'.0.010]
# [W.vvvv.1.01] [P2] followed by the same opcodes. Each pattern has its
# positive control: VFMADD231PS Y0,Y0,Y0 and VFMADD231PS Z0,Z0,Z0.
# Both scans select symbols by name, so every assembly routine of
# internal/core but the two CPUID helpers must carry one of their
# prefixes: a routine named outside them would never be scanned.
if [ "$(go env GOARCH)" = amd64 ]; then
    for sym in $(sed -n 's/^TEXT ·\([A-Za-z0-9_]*\)(SB).*/\1/p' internal/core/*.s); do
        case $sym in
        cpuid | xgetbv | kernel* | vector* | store*) ;;
        *) echo "FAIL: assembly routine $sym is outside the contract scans' kernel|vector|store names" >&2; exit 1 ;;
        esac
    done

    echo "==> one rounding per tap: no separate multiply in the kernel and vector routines of internal/core"
    ASMDIR=$(mktemp -d "${TMPDIR:-/tmp}/ndirect-asm.XXXXXX")
    # bodyOps prints "symbol mnemonic" for every instruction of the
    # kernel* and vector* routines the given assembly files encode.
    bodyOps() {
        for f in "$@"; do
            go tool asm -I "$(go env GOROOT)/pkg/include" -p ndirect/internal/core \
                -D "GOOS_$(go env GOOS)" -D GOARCH_amd64 -S -o "$ASMDIR/out.o" "$f"
        done | awk '/ STEXT/ { sym = $1 } $1 ~ /^0x/ { print sym, $4 }' | grep -E '\.(kernel|vector)[^ ]* '
    }
    SEPMUL=' (VMULPS|VMULSS)$'
    printf '#include "textflag.h"\nTEXT ·kernelControl(SB), NOSPLIT, $0\n\tVMULPS Y12, Y13, Y13\n\tVADDPS Y13, Y0, Y0\n\tRET\n' \
        >"$ASMDIR/control_amd64.s"
    bodyOps "$ASMDIR/control_amd64.s" | grep -Eq "$SEPMUL" ||
        { rm -rf "$ASMDIR"; echo "FAIL: the separate-multiply scan misses a VMULPS→VADDPS accumulation" >&2; exit 1; }
    OPS=$(bodyOps internal/core/*.s)
    rm -rf "$ASMDIR"
    echo "$OPS" | grep -q ' VFMADD231PS$' || { echo "FAIL: the listing shows no VFMADD231PS in the kernel routines" >&2; exit 1; }
    if echo "$OPS" | grep -E "$SEPMUL"; then
        echo "FAIL: a separate multiply in internal/core's kernel or vector routines (the contract is one fused multiply-add per tap)" >&2
        exit 1
    fi

    echo "==> no fused multiply-add in the store symbols of internal/core"
    FMA3='c4 [02468ace]2 [0-9a-f][159d] (9[6-9a-f]|a[6-9a-f]|b[6-9a-f])'
    echo "c4 e2 7d b8 c0" | grep -Eq "$FMA3" || { echo "FAIL: the FMA3 pattern misses VFMADD231PS" >&2; exit 1; }
    EVEXFMA='62 [0-9a-f][2a] [0-9a-f][5d] [0-9a-f]{2} (9[6-9a-f]|a[6-9a-f]|b[6-9a-f])'
    echo "62 f2 7d 48 b8 c0" | grep -Eq "$EVEXFMA" || { echo "FAIL: the EVEX pattern misses VFMADD231PS Z0,Z0,Z0" >&2; exit 1; }
    COREBIN=$(mktemp "${TMPDIR:-/tmp}/ndirect-core.XXXXXX.test")
    go test -c -o "$COREBIN" ./internal/core
    CODE=$(go tool objdump -s 'internal/core\.store' "$COREBIN" |
        awk '$2 ~ /^0x/ { print $3 }' | tr -d '\n' | sed 's/../& /g')
    rm -f "$COREBIN"
    [ -n "$CODE" ] || { echo "FAIL: objdump found no store symbol" >&2; exit 1; }
    if echo "$CODE" | grep -Eq "$FMA3|$EVEXFMA"; then
        echo "FAIL: a fused multiply-add instruction in internal/core's store code" >&2
        exit 1
    fi

    # A compiler that fuses (GOAMD64=v3 may contract x*y + z) must not
    # change a stored bit: the Go store, the fma32 oracle and every
    # bit-exact test of internal/core run once more built that way.
    echo "==> GOAMD64=v3 go test ./internal/core"
    GOAMD64=v3 go test -count=1 ./internal/core
fi

# The governance around the kernels — the fault/deadline ladder, the
# grid join and the packed-weights CRC verify — is written once
# (internal/core/govern.go, integrity.go). Each of these lines is the
# signature of one copy; a second non-test file holding one means a
# hand-copied ladder came back.
echo "==> written once: drill points, the grid join and the CRC verify in internal/core"
for pat in 'faultinject.Take(faultinject.WeightBitflip' 'faultinject.Take(faultinject.PackedCorrupt' \
    'faultinject.Take(faultinject.NaNPoison' '.WaitCtx(' 'crcFloats(' 'packedVerifies.Add'; do
    files=$(ls internal/core/*.go | grep -v _test.go | xargs grep -lF -- "$pat" || true)
    if [ "$(echo "$files" | grep -c .)" -ne 1 ]; then
        echo "FAIL: '$pat' must appear in exactly one non-test file of internal/core, found in: $(echo $files)" >&2
        exit 1
    fi
done

# Every entry point in internal/core — the grouped and 3-D ones
# included — executes through that ladder. Only the two parked precision
# paths (conv64.go, convint16.go) keep a loop of their own with a
# recovery shell and a fallback classifier; either in any other file is
# a new entry point with a hand-written ladder.
echo "==> written once: .Protect( and fallbackCtx( only in govern.go, conv64.go and convint16.go"
for pat in '.Protect(' 'fallbackCtx('; do
    extra=$(ls internal/core/*.go | grep -v _test.go | xargs grep -lF -- "$pat" |
        grep -vxF -e internal/core/govern.go -e internal/core/conv64.go -e internal/core/convint16.go || true)
    if [ -n "$extra" ]; then
        echo "FAIL: '$pat' outside govern.go, conv64.go and convint16.go of internal/core: $(echo $extra)" >&2
        exit 1
    fi
done

# One deadline: the caller's context. The core, nn and serve layers
# take it as given and never start a timer of their own; a context
# timer in a non-test file of theirs is a second deadline.
echo "==> one deadline: no context.WithTimeout/WithDeadline/WithoutCancel in internal/core, internal/nn or internal/serve"
for pat in 'context.WithTimeout(' 'context.WithDeadline(' 'context.WithoutCancel('; do
    files=$(ls internal/core/*.go internal/nn/*.go internal/serve/*.go | grep -v _test.go | xargs grep -lF -- "$pat" || true)
    if [ -n "$files" ]; then
        echo "FAIL: '$pat' in a non-test file of internal/core, internal/nn or internal/serve: $(echo $files)" >&2
        exit 1
    fi
done

# One numeric contract: fault recovery, the reference engine and the
# golden probes all replay a plan on its own looped fused-multiply-add
# body (DESIGN.md §5, §11). conv.Reference accumulates in float64 and
# matches that only on integer data, so a call of it in a non-test file
# of these layers is a second oracle.
echo "==> one numeric contract: no conv.Reference( in internal/core, internal/nn or internal/serve"
files=$(ls internal/core/*.go internal/nn/*.go internal/serve/*.go | grep -v _test.go | xargs grep -lF -- 'conv.Reference(' || true)
if [ -n "$files" ]; then
    echo "FAIL: 'conv.Reference(' in a non-test file of internal/core, internal/nn or internal/serve: $(echo $files)" >&2
    exit 1
fi

echo "==> go test -race ./..."
go test -race ./...

# An arg-less spec arms index -1: every element-addressed drill must
# clamp it (a hand-copied ladder once did not, and panicked).
echo "==> governed ladder under NDIRECT_FAULTS=nan-poison (arg-less, -race)"
NDIRECT_FAULTS=nan-poison go test -race -count=1 -run 'TestGovernedLadder' ./internal/core

echo "==> fuzz smoke: FuzzTryConv2D (10s)"
go test -run='^$' -fuzz=FuzzTryConv2D -fuzztime=10s ./internal/core

echo "==> fuzz smoke: FuzzVectorBody (10s, every micro-kernel body vs the looped kernel)"
go test -run='^$' -fuzz=FuzzVectorBody -fuzztime=10s ./internal/core

echo "==> fuzz smoke: FuzzVectorStore (10s, the vector tile store vs the Go store)"
go test -run='^$' -fuzz=FuzzVectorStore -fuzztime=10s ./internal/core

echo "==> fuzz smoke: FuzzDepthwiseBody (10s, the vector depthwise body vs depthwisePlaneRange)"
go test -run='^$' -fuzz=FuzzDepthwiseBody -fuzztime=10s ./internal/core

echo "==> fuzz smoke: FuzzInferResponse (10s, ndserve's /v1/infer response appender vs encoding/json)"
go test -run='^$' -fuzz=FuzzInferResponse -fuzztime=10s ./cmd/ndserve

echo "==> fuzz smoke: FuzzInferRequest (10s, ndserve's /v1/infer request decoder vs encoding/json)"
go test -run='^$' -fuzz=FuzzInferRequest -fuzztime=10s ./cmd/ndserve

echo "==> ndserve selftest (multi-tenant HTTP lifecycle + concurrent burst)"
go run ./cmd/ndserve -selftest

echo "==> ndtune smoke (schedule search vs nDirect on one layer; a usage error exits 2)"
NDTUNE_DIR=$(mktemp -d "${TMPDIR:-/tmp}/ndtune.XXXXXX")
trap 'rm -rf "$NDTUNE_DIR"' EXIT
go build -o "$NDTUNE_DIR/ndtune" ./cmd/ndtune
"$NDTUNE_DIR/ndtune" -shape 8,16,16,16,3,3,1,1 -trials 6 -population 4 -generations 2 \
    -threads 2 -seed 1
status=0
"$NDTUNE_DIR/ndtune" -shape bad 2>/dev/null || status=$?
if [ "$status" -ne 2 ]; then
    echo "FAIL: ndtune -shape bad exited $status, want 2 (usage error)"
    exit 1
fi

echo "==> ndsoak integrity smoke (8s registry soak: fault storm, silent-corruption drills, sentinel loop)"
go run ./cmd/ndsoak -duration 8s -integrity -storm -clients 8

echo "OK: all checks passed"
