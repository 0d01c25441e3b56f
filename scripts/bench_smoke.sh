#!/bin/sh
# CI bench smoke: one timed iteration of the steady-state serving
# benchmarks, gating on the PR's allocation claim — the packed-pooled
# engine path (with and without the integrity sentinel + sampled
# checksum verification running), the small-shape steady path, a packed
# 1×1 plan (the pointwise body on an AVX-512 host) and the fused
# separable block must report exactly 0 allocs/op (the deterministic
# counterpart assertion is core.TestSteadyStateZeroAllocs, run first),
# and so must ndserve's /v1/infer response appender, its request
# decoder, which draws the input tensor from a pool, and a whole seeded
# request through Registry.InferFunc, input and output recycled. A
# regression that
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
go test -run '^$' -bench 'EngineSteadyState/packed-pooled|SmallConvServing/(pointwise-)?steady|SeparableSteadyState/fused' -benchtime=100x . >/dev/null # warmup (discarded)
out=$(go test -run '^$' -bench 'EngineSteadyState/packed-pooled|SmallConvServing/(pointwise-)?steady|SeparableSteadyState/fused' -benchtime=100x .)
echo "$out"

# The /v1/infer response appender writes into a caller's buffer: with
# the buffer grown once, an integral, a ReLU-shaped (half zeros) and a
# fractional response all append without allocating. The request
# decoder draws the input tensor from ndserve's input pool, which the
# benchmark refills as the handler does after a successful inference:
# 0 allocations too, on an integral and a fractional body alike. A
# seeded /v1/infer request on http_mid's model without the HTTP —
# pooled input, Registry.InferFunc, the output encoded inside use and
# recycled — allocates nothing either: both 100 KB tensors come back to
# their pools, headers and all, and the admission slot is taken and
# returned without a release closure (Registry.Infer on the same
# request allocates ~213 KB).
echo "==> /v1/infer response appender, request decoder and Registry.InferFunc request (warmup + 100 measured iterations, allocs gate)"
go test -run '^$' -bench 'RegistryInferFunc$' -benchtime=100x ./cmd/ndserve >/dev/null # warmup (discarded)
wire=$(go test -run '^$' -bench 'InferResponse$|InferRequest$|RegistryInferFunc$' -benchtime=100x ./cmd/ndserve)
echo "$wire"
out="$out
$wire"

# The -[0-9]+ alternative covers the GOMAXPROCS>1 name suffix; the
# bare-name alternative covers single-proc runs. Anchoring on the
# following whitespace keeps packed-pooled from matching its
# -sentinel sibling.
for bench in packed-pooled packed-pooled-sentinel SmallConvServing/steady SmallConvServing/pointwise-steady \
    SeparableSteadyState/fused InferResponse/integral InferResponse/relu InferResponse/nonintegral \
    InferRequest/integral InferRequest/nonintegral RegistryInferFunc; do
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

echo "OK: steady-state paths, the response appender, the request decoder and a recycled request allocation-free"
