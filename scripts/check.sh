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

# The vector micro-kernel body is amd64 assembly; every other
# architecture compiles the stub (internal/core/kernel_other.go) and
# keeps the portable Go bodies. Prove both a 64-bit and a 32-bit one
# build and vet clean.
for arch in arm64 386; do
    echo "==> GOARCH=$arch go build ./... && go vet ./..."
    GOARCH=$arch go build ./...
    GOARCH=$arch go vet ./...
done

echo "==> go test -race ./..."
go test -race ./...

echo "==> fuzz smoke: FuzzTryConv2D (10s)"
go test -run='^$' -fuzz=FuzzTryConv2D -fuzztime=10s ./internal/core

echo "==> fuzz smoke: FuzzVectorBody (10s, every micro-kernel body vs the looped kernel)"
go test -run='^$' -fuzz=FuzzVectorBody -fuzztime=10s ./internal/core

echo "==> ndserve selftest (multi-tenant HTTP lifecycle + batching burst)"
go run ./cmd/ndserve -selftest

echo "==> warm-start round trip (ndtune -manifest -> ndserve -selftest -manifest)"
MANIFEST=$(mktemp /tmp/ndtune-manifest.XXXXXX.json)
trap 'rm -f "$MANIFEST"' EXIT
go run ./cmd/ndtune -shape 8,16,16,16,3,3,1,1 -trials 6 -population 4 -generations 2 \
    -threads 2 -seed 1 -manifest "$MANIFEST"
go run ./cmd/ndserve -selftest -manifest "$MANIFEST"

echo "==> ndsoak batching smoke (8s, coalesced serving invariants)"
go run ./cmd/ndsoak -duration 8s -batch -clients 8

echo "==> ndsoak integrity smoke (8s, silent-corruption drills + sentinel loop)"
go run ./cmd/ndsoak -duration 8s -integrity -storm -clients 8

echo "OK: all checks passed"
