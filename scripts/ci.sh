#!/usr/bin/env bash
# ci.sh — the repo's full verification gate in one command.
#
#   scripts/ci.sh          # gofmt, vet, build, test
#   RACE=1 scripts/ci.sh   # additionally run the race-detector pass
#
# Run from anywhere; the script cds to the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== obs no-op overhead guard =="
# A nil *obs.Collector must cost the engine pipeline nothing: the guard
# test asserts 0 allocs/op across every nil-receiver method.
go test ./internal/obs -run 'TestNilCollectorZeroAllocs|TestNilRegistry' -count=1

echo "== distance oracle guards =="
# The precomputed all-pairs matrix must keep Dist zero-alloc (and the
# warm lock-free tree cache too); the parallel-Dist benchmark must at
# least compile and run (1 iteration smoke — perf is checked manually
# with -cpu 1,4,8 -benchtime).
go test ./internal/graph -run 'TestPrecomputedDistZeroAlloc|TestWarmTreeDistZeroAlloc' -count=1
go test ./internal/graph -run '^$' -bench 'BenchmarkDistParallel' -benchtime 1x -count=1 >/dev/null

echo "== conflict-graph layer guards =="
# Warm CSR queries (Weight/Degree/Neighbors/CheckColoring) must stay
# zero-alloc, and the parallel build must produce byte-identical CSR
# storage at every worker count; the build benchmark must at least
# compile and run (1 iteration smoke — the ≥2× speedup vs the map-based
# reference builder is checked manually with -benchtime).
go test ./internal/depgraph -run 'TestWarmCSRQueriesZeroAlloc|TestBuildDeterministicAcrossWorkers' -count=1
go test . -run '^$' -bench 'BenchmarkDepGraphBuild' -benchtime 1x -count=1 >/dev/null

echo "== lower-bound oracle guards =="
# Warm oracle lookups and warm walk brackets must stay zero-alloc (a
# published bound is a pointer load; brackets run on the solver's
# scratch), ComputeOpts must produce byte-identical bounds at every
# worker count on both the witness and the pruned scalar path, the
# scalar path must match the witness path's scalars, concurrent first
# queries must compute the bound exactly once under the race detector,
# and the cost-tier benchmark must at least compile and run (1 iteration
# smoke — the Measure-stage speedup is checked with perfbench).
go test ./internal/lower -run 'TestOracleWarmLookupZeroAllocs|TestComputeOptsWorkerDeterminism|TestComputeOptsMatchesCompute|TestComputeOptsWitnessFree|TestScalarBoundMatchesWitness' -count=1
go test ./internal/tsp -run 'TestWalkBracketZeroAlloc|TestWalkBracketBracketsOptimumProperty' -count=1
go test -race ./internal/lower -run 'TestOracleConcurrentFirstQuery|TestComputeOptsWorkerDeterminism' -count=1
go test . -run '^$' -bench 'BenchmarkLowerCompute' -benchtime 1x -count=1 >/dev/null

echo "== scalar bound fuzz =="
# Decoded instances on every topology family: the scalar path's Value and
# MaxWalkLB equal the witness path's, Value ≥ ℓ, and Value never exceeds
# a simulated greedy schedule's makespan. The seed corpus lives in
# internal/lower/testdata/fuzz and runs in every plain go test.
fuzz_out=$(go test ./internal/lower -run '^$' -fuzz '^FuzzScalarBound$' -fuzztime 10s -parallel 2 2>&1) || {
    echo "$fuzz_out" >&2
    exit 1
}

echo "== fault layer guards =="
# RunFaulty with a nil/empty plan must stay on Run's allocation budget
# (the fault machinery is free when unused), fault plans must be
# seed-deterministic, and the 3-rate × 2-topology fault matrix must
# recover deterministically under the race detector.
go test ./internal/sim -run 'TestRunFaultyEmptyPlanZeroAlloc' -count=1
go test -race ./internal/faults -run 'TestPlanSeedDeterminism' -count=1
go test -race ./internal/sim -run 'TestFaultMatrixSmoke' -count=1

echo "== obs/v2 ledger + exposition guards =="
# The Prometheus exposition must stay byte-deterministic (golden file),
# registry updates must stay zero-alloc while a scrape is in flight, the
# regression gate must flag a synthetic 2× slowdown and count drift in
# either direction and pass identical ledgers (self-test at both the
# library and CLI layers), judge counts but not times across
# environments, read schema-1 ledgers, and pick up a new registry
# counter with no schema edit; nil ledger/profiler hooks must keep the
# engine hot path allocation-free.
go test ./internal/obs -run 'TestPromGolden|TestPromDeterministic|TestPromParseable|TestRegistryUpdateZeroAllocDuringScrape' -count=1
go test ./internal/obs -run 'TestCompareGateSelfTest|TestCompareAcrossEnvironments|TestMetricClassBySuffix|TestNewCounterReachesGate|TestMeasureDelta|TestReadLedgerV1|TestMergeHistDeterminism|TestLedgerRoundTrip|TestNilLedgerProfilerZeroAllocs' -count=1
go test ./internal/engine -run 'TestLedgerHook|TestProfilerHook' -count=1
go test ./cmd/dtmsched -run 'TestBenchGate|TestBenchRecordSmoke' -count=1
go test ./cmd/dtmbench -run 'TestPublishPrefix|TestLedgerRecordFromPipeline' -count=1
# Cross-environment gate: quick-sweep ledgers recorded with 1 worker at
# GOMAXPROCS=1 and 2 workers at GOMAXPROCS=2 must match in every
# fingerprint group (workers is not a fingerprint input), judge their
# counts (identical at every worker count) and pass, and report their
# times as not comparable.
gate_tmp=$(mktemp -d)
go build -o "$gate_tmp/dtmbench" ./cmd/dtmbench
GOMAXPROCS=1 "$gate_tmp/dtmbench" -quick -parallel 1 -ledger "$gate_tmp/w1.jsonl" >/dev/null
GOMAXPROCS=2 "$gate_tmp/dtmbench" -quick -parallel 2 -ledger "$gate_tmp/w2.jsonl" >/dev/null
groups=$(wc -l < "$gate_tmp/w1.jsonl")
gate_out=$(go run ./cmd/dtmsched bench gate "$gate_tmp/w1.jsonl" "$gate_tmp/w2.jsonl") || {
    echo "$gate_out" >&2
    echo "gate: 1-worker vs 2-worker quick-sweep ledgers failed" >&2
    exit 1
}
if ! grep -q "^PASS: $groups fingerprint groups" <<<"$gate_out" || grep -q 'only in' <<<"$gate_out" ||
   ! grep -q 'time metrics not comparable, counts judged' <<<"$gate_out"; then
    echo "$gate_out" >&2
    echo "gate: want all $groups groups matched, counts judged, times not comparable" >&2
    exit 1
fi
rm -rf "$gate_tmp"

echo "== online loop guards =="
# The online executor's steady-state tick must not allocate per step
# (buffers are hoisted once per run), and the corrected Poisson sampler
# must realize its nominal rate.
go test ./internal/online -run 'TestRunSteadyStateAllocs|TestPoissonRealizedRate|TestRandomNilRngError' -count=1
go test ./internal/xrand -run 'TestGeometricGap' -count=1

echo "== streaming service guards =="
# Serving is deterministic per seed (digest-pinned, verify-mode
# invariant), backpressure is exercised in both policies, the
# cross-window schedule.Chain check accepts both windows.Run modes and
# rejects corrupted schedules, and the cutter/executor overlap is
# race-clean. One check per served window: the cost Chain.Check returns
# equals Schedule.CommCost and the simulator's on every topology family,
# and every change to a served window that Validate on its shadow
# instance rejects, the cross-window chain check rejects too. The
# serve-clean benchmark must at least compile and run (1 iteration
# smoke), and FuzzServe runs a fixed budget over decoded configs (its
# seed corpus in internal/stream/testdata/fuzz runs in every go test).
go test ./internal/schedule -run 'TestChain' -count=1
go test ./internal/stream -run 'TestChainCheckSubsumesShadowValidate' -count=1
go test -race ./internal/stream -count=1
go test ./internal/stream -run '^$' -bench 'BenchmarkServeClean' -benchmem -benchtime 1x -count=1 >/dev/null
fuzz_out=$(go test ./internal/stream -run '^$' -fuzz '^FuzzServe$' -fuzztime 15s -parallel 2 2>&1) || {
    echo "$fuzz_out" >&2
    exit 1
}

echo "== serve-mode smoke =="
# Drain a fixed seeded stream through the CLI twice: counts must be
# deterministic, everything admitted must commit (reject policy), the
# backpressure counters must reach the Prometheus exposition, and the
# ledger it writes must self-gate clean.
go test ./cmd/dtmsched -run 'TestServeSmoke' -count=1
serve_tmp=$(mktemp -d)
serve_args=(serve -topo line -n 16 -rate 0.8 -txns 200 -window 4 -queue 8 -policy reject -seed 11)
go run ./cmd/dtmsched "${serve_args[@]}" -ledger "$serve_tmp/serve.jsonl" -prom "$serve_tmp/serve.prom" > "$serve_tmp/run1.txt"
go run ./cmd/dtmsched "${serve_args[@]}" > "$serve_tmp/run2.txt"
if ! diff <(grep -E 'admitted=|digest=' "$serve_tmp/run1.txt" | sed 's/wall=.*//') \
          <(grep -E 'admitted=|digest=' "$serve_tmp/run2.txt" | sed 's/wall=.*//'); then
    echo "serve: same seed produced different counts/digest" >&2
    exit 1
fi
grep -q 'rejected=[1-9]' "$serve_tmp/run1.txt" || { echo "serve: overloaded reject run dropped nothing" >&2; exit 1; }
admitted=$(sed -n 's/^admitted=\([0-9]*\) .*/\1/p' "$serve_tmp/run1.txt")
committed=$(sed -n 's/.*committed=\([0-9]*\).*/\1/p' "$serve_tmp/run1.txt")
if [[ "$admitted" != "$committed" ]]; then
    echo "serve: admitted=$admitted != committed=$committed" >&2
    exit 1
fi
for m in stream_admitted_total stream_rejected_total stream_committed_total stream_queue_depth_peak; do
    grep -q "^$m" "$serve_tmp/serve.prom" || { echo "serve: $m missing from prom exposition" >&2; exit 1; }
done
go run ./cmd/dtmsched bench gate "$serve_tmp/serve.jsonl" "$serve_tmp/serve.jsonl" >/dev/null
rm -rf "$serve_tmp"

echo "== chaos serving guards =="
# Fault-tolerant serving: the race pass over internal/stream above
# already covers the chaos/requeue/breaker tests with -race; here the
# CLI layer is pinned. (1) Zero-fault digest guard: the serve smoke
# flags must keep producing the digest committed before the fault layer
# landed — the fault paths must be byte-invisible when -faults is off.
# (2) Chaos determinism: the same chaos seed twice must print identical
# counts, fault counters, and digest.
chaos_tmp=$(mktemp -d)
go run ./cmd/dtmsched "${serve_args[@]}" > "$chaos_tmp/clean.txt"
grep -q 'digest=a08187a836377e8b' "$chaos_tmp/clean.txt" || {
    echo "serve: zero-fault digest drifted from the pre-chaos baseline a08187a836377e8b" >&2
    exit 1
}
chaos_args=(serve -topo clique -n 16 -rate 1.5 -txns 200 -window 8 -queue 16 -policy block -seed 7 -faults 0.2,99)
go run ./cmd/dtmsched "${chaos_args[@]}" > "$chaos_tmp/chaos1.txt"
go run ./cmd/dtmsched "${chaos_args[@]}" > "$chaos_tmp/chaos2.txt"
if ! diff <(sed 's/wall=.*//' "$chaos_tmp/chaos1.txt") <(sed 's/wall=.*//' "$chaos_tmp/chaos2.txt"); then
    echo "serve: same chaos seed produced different runs" >&2
    exit 1
fi
grep -q 'requeued=[1-9]' "$chaos_tmp/chaos1.txt" || { echo "serve: chaos run never requeued" >&2; exit 1; }
go test ./cmd/dtmsched -run 'TestServeChaosSmoke' -count=1
rm -rf "$chaos_tmp"

echo "== chaos fast-path guards =="
# Chaos plans and faulty routing take shortcuts that must not change a
# bit: the lazy xrand source must equal math/rand draw for draw (across
# its handoff to a real source, and under re-seeding), a hashed label
# prefix must equal Derive, and faultEnv.dist must equal shortest paths on
# the materialized surviving subgraph. The per-layer chaos benchmarks
# must at least compile and run (1 iteration smoke), and the 20k-txn
# clique-64 chaos run keeps its digest (and now takes about a second).
go test ./internal/xrand -run 'TestLazySourceMatchesMathRand|TestRegistersMatchMathRand|TestLazySourceDerivedDistributions|TestPrefixMatchesDerive' -count=1
go test ./internal/sim -run 'TestFaultEnvDistMatchesSurvivingGraph' -count=1
go test ./internal/stream -run '^$' -bench 'BenchmarkChaosPlan|BenchmarkServeChaos' -benchmem -benchtime 1x -count=1 >/dev/null
go test ./internal/sim -run '^$' -bench 'BenchmarkRunFaulty' -benchmem -benchtime 1x -count=1 >/dev/null
scale_out=$(go run ./cmd/dtmsched serve -topo clique -n 64 -txns 20000 -seed 1 -faults 0.1,1)
grep -q 'digest=df12bc6d544ac3b6' <<<"$scale_out" || {
    echo "serve: 20k-txn clique-64 chaos digest drifted from df12bc6d544ac3b6" >&2
    echo "$scale_out" >&2
    exit 1
}

echo "== hierarchical scheduler guards =="
# The subtree-sharded scheduler writes disjoint slices of one schedule
# from concurrent shard workers — the whole package must be race-clean —
# and the partitioned ConflictIndex view's Members lookups must stay
# zero-alloc (each shard's CSR build walks them in the hot path). The
# fog–cloud generator's metric/tier tests ride along.
go test -race ./internal/hier -count=1
go test ./internal/tm -run 'TestPartitionedViewZeroAlloc' -count=1
go test ./internal/topology -run 'TestFogCloud' -count=1

echo "== hier shard-worker determinism diff =="
# Byte-identical schedules at every shard-worker count: the same seeded
# fog–cloud run through the CLI with 1 worker and 8 workers must print
# identical makespans, bounds, and (deterministic) stats. The package
# test pins workers 1/4/8 on raw schedules; this diff pins the whole
# engine pipeline end to end.
hier_tmp=$(mktemp -d)
hier_args=(-topo fogcloud -fanout 4,8 -linkw 8,1 -w 64 -k 2 -alg hier -seed 7 -trials 2)
go run ./cmd/dtmsched "${hier_args[@]}" -shardworkers 1 > "$hier_tmp/w1.txt"
go run ./cmd/dtmsched "${hier_args[@]}" -shardworkers 8 > "$hier_tmp/w8.txt"
if ! diff "$hier_tmp/w1.txt" "$hier_tmp/w8.txt"; then
    echo "hier: shard-worker counts 1 and 8 produced different schedules" >&2
    exit 1
fi
grep -q 'hier_shards:4' "$hier_tmp/w1.txt" || { echo "hier: expected 4 shards in CLI stats" >&2; exit 1; }
rm -rf "$hier_tmp"

if [[ "${RACE:-0}" != "0" ]]; then
    echo "== go test -race =="
    go test -race ./...
fi

echo "ci: all checks passed"
