#!/bin/sh
# CI bench smoke: one timed iteration of the steady-state serving
# benchmarks, gating on the PR's allocation claim — the packed-pooled
# engine path (with and without the integrity sentinel + sampled
# checksum verification running) and the small-shape steady path must
# report exactly 0 allocs/op (the deterministic counterpart assertion
# is core.TestSteadyStateZeroAllocs, run first), and so must ndserve's
# /v1/infer response appender; its request decoder may allocate the
# input tensor and nothing else. A regression that
# makes the hot loop allocate fails this script even when it is too
# small to move wall-clock benchmarks.
set -eu

cd "$(dirname "$0")/.."

echo "==> TestSteadyStateZeroAllocs (+ depthwise/separable packed paths)"
go test -run 'TestSteadyStateZeroAllocs|TestDepthwisePackedZeroAllocs|TestSeparablePackedZeroAllocs' -count=1 ./internal/core/

# 100 iterations (~0.1 s for the slowest bench) rather than 1: the
# sentinel variant runs background probes whose one-time warmup (pool
# caches on the prober goroutine) lands inside the timed window; a
# single iteration cannot amortise that fixed cost, 100 prove the
# per-op hot path allocation-free.
echo "==> bench smoke (warmup + 100 measured iterations, allocs gate)"
go test -run '^$' -bench 'EngineSteadyState/packed-pooled|SmallConvServing/steady|SeparableSteadyState/fused' -benchtime=100x . >/dev/null # warmup (discarded)
out=$(go test -run '^$' -bench 'EngineSteadyState/packed-pooled|SmallConvServing/steady|SeparableSteadyState/fused' -benchtime=100x .)
echo "$out"

# The /v1/infer response appender writes into a caller's buffer: with
# the buffer grown once, an integral and a fractional response both
# append without allocating.
echo "==> /v1/infer response appender (100 measured iterations, allocs gate)"
wire=$(go test -run '^$' -bench 'InferResponse$' -benchtime=100x ./cmd/ndserve)
echo "$wire"
out="$out
$wire"

# The -[0-9]+ alternative covers the GOMAXPROCS>1 name suffix; the
# bare-name alternative covers single-proc runs. Anchoring on the
# following whitespace keeps packed-pooled from matching its
# -sentinel sibling.
for bench in packed-pooled packed-pooled-sentinel SmallConvServing/steady SeparableSteadyState/fused \
    InferResponse/integral InferResponse/nonintegral; do
    line=$(echo "$out" | grep -E "$bench(-[0-9]+)?[[:space:]]" || true)
    if [ -z "$line" ]; then
        echo "FAIL: benchmark $bench did not run" >&2
        exit 1
    fi
    case "$line" in
    *" 0 allocs/op"*) ;;
    *)
        echo "FAIL: $bench allocates at steady state: $line" >&2
        exit 1
        ;;
    esac
done

# The /v1/infer request decoder allocates the input tensor it decodes
# into, which is the Tensor, its Dims and its Data: 3 allocations, and
# not one more, on an integral and a fractional body alike.
echo "==> /v1/infer request decoder (100 measured iterations, allocs gate: the input tensor's 3)"
req=$(go test -run '^$' -bench 'InferRequest$' -benchtime=100x ./cmd/ndserve)
echo "$req"
for bench in InferRequest/integral InferRequest/nonintegral; do
    line=$(echo "$req" | grep -E "$bench(-[0-9]+)?[[:space:]]" || true)
    if [ -z "$line" ]; then
        echo "FAIL: benchmark $bench did not run" >&2
        exit 1
    fi
    allocs=$(echo "$line" | sed -n 's/.* \([0-9][0-9]*\) allocs\/op.*/\1/p')
    if [ -z "$allocs" ] || [ "$allocs" -gt 3 ]; then
        echo "FAIL: $bench allocates more than the input tensor: $line" >&2
        exit 1
    fi
done

echo "OK: steady-state paths and the response appender allocation-free, the request decoder at the input tensor's 3 allocations"
