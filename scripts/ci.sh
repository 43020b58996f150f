#!/usr/bin/env bash
# CI entry point: configure + build with warnings-as-errors, run the
# full ctest suite and the benchmark's own tests, then smoke-test the
# spmcoh_run CLI (exercising the sweep worker pool and JSON export
# on every push).
# Usage: scripts/ci.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-ci}"

cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSPMCOH_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "== benchmark build + tests (perfbench/run.py --test) =="
# The benchmark drives the simulator through its public API
# (System::events(), System::numRegions(), prepareProgram,
# deriveRegionCuts, makeSources, snapshotStats); breaking one of
# those must fail here, not in a later benchmark run.
python3 perfbench/run.py --test

echo "== spmcoh_run smoke test =="
"$BUILD_DIR"/spmcoh_run --workload=CG --cores=8 --jobs=2 \
    --format=json > "$BUILD_DIR"/smoke.json
# The run must have produced a non-empty result set.
grep -q '"workload":"CG"' "$BUILD_DIR"/smoke.json

echo "== result regression check (CG 8-core vs golden) =="
"$BUILD_DIR"/spmcoh_run --workload=CG --cores=8 --jobs=2 \
    --format=json --no-stats > "$BUILD_DIR"/smoke8.json
python3 scripts/diff_results.py "$BUILD_DIR"/smoke8.json \
    tests/golden/cg8_smoke.json

echo "== workload registry smoke (>=14 parameterized workloads) =="
"$BUILD_DIR"/spmcoh_run --list-workloads \
    > "$BUILD_DIR"/workloads.txt
# One unindented line per workload; indented lines are the phase
# graph shape and --wparam parameter descriptions.
WORKLOADS=$(grep -c '^[A-Za-z0-9]' "$BUILD_DIR"/workloads.txt)
test "$WORKLOADS" -ge 14 || {
    echo "only $WORKLOADS workloads registered"; exit 1; }
grep -q -- '--wparam=grids=' "$BUILD_DIR"/workloads.txt
grep -q -- '--wparam=aliased=' "$BUILD_DIR"/workloads.txt
# Every workload advertises its phase-graph shape.
PHASES=$(grep -c '^  phase graph: ' "$BUILD_DIR"/workloads.txt)
test "$PHASES" -eq "$WORKLOADS" || {
    echo "phase-graph shape missing ($PHASES of $WORKLOADS)"
    exit 1; }

echo "== result regression check (pipeline 8-core vs golden) =="
"$BUILD_DIR"/spmcoh_run --workload=pipeline --cores=8 --jobs=2 \
    --format=json --no-stats > "$BUILD_DIR"/pipeline8.json
python3 scripts/diff_results.py "$BUILD_DIR"/pipeline8.json \
    tests/golden/pipeline8_smoke.json

echo "== result regression check (stencil 8-core vs golden) =="
"$BUILD_DIR"/spmcoh_run --workload=stencil --cores=8 \
    --wparam=grids=7 --jobs=2 --format=json --no-stats \
    > "$BUILD_DIR"/stencil8.json
python3 scripts/diff_results.py "$BUILD_DIR"/stencil8.json \
    tests/golden/stencil8_smoke.json

echo "== protocol registry smoke (>=3 protocols) =="
"$BUILD_DIR"/spmcoh_run --list-protocols \
    > "$BUILD_DIR"/protocols.txt
PROTOCOLS=$(grep -c '^[a-z]' "$BUILD_DIR"/protocols.txt)
test "$PROTOCOLS" -ge 3 || {
    echo "only $PROTOCOLS protocols registered"; exit 1; }
grep -q '^spm-hybrid (default)' "$BUILD_DIR"/protocols.txt
grep -q '^mesi' "$BUILD_DIR"/protocols.txt
grep -q '^dragon' "$BUILD_DIR"/protocols.txt

echo "== two-protocol sweep smoke test =="
"$BUILD_DIR"/spmcoh_run --workload=contend --cores=8 --jobs=2 \
    --protocol=spm-hybrid,dragon --format=json \
    > "$BUILD_DIR"/protosweep.json
# The non-default point must carry its protocol in spec and label.
grep -q '"protocol":"dragon"' "$BUILD_DIR"/protosweep.json
grep -q '"label":"contend/hybrid-proto/dragon/8c' \
    "$BUILD_DIR"/protosweep.json

echo "== result regression check (CG 8-core mesi vs golden) =="
"$BUILD_DIR"/spmcoh_run --workload=CG --cores=8 --protocol=mesi \
    --jobs=2 --format=json --no-stats > "$BUILD_DIR"/cg8mesi.json
python3 scripts/diff_results.py "$BUILD_DIR"/cg8mesi.json \
    tests/golden/cg8_mesi_smoke.json

echo "== result regression check (gather 8-core vs golden) =="
"$BUILD_DIR"/spmcoh_run --workload=gather --cores=8 --jobs=2 \
    --format=json --no-stats > "$BUILD_DIR"/gather8.json
python3 scripts/diff_results.py "$BUILD_DIR"/gather8.json \
    tests/golden/gather8_smoke.json

echo "== full-stats golden (aliased gather 8-core, byte-identical) =="
# The --no-stats goldens cannot see per-component counters that move
# without changing timing; this one pins the whole stats block.
"$BUILD_DIR"/spmcoh_run --workload=gather --cores=8 \
    --wparam=aliased=1 --jobs=2 --format=json > "$BUILD_DIR"/gather8a.json
cmp "$BUILD_DIR"/gather8a.json tests/golden/gather8a_stats.json || {
    echo "aliased gather stats diverged from the golden"; exit 1; }

echo "== full-stats golden (partitioned 2-chip aliased gather, st 1 and 4) =="
# The other goldens run one region; this one pins the partitioned
# engine, whose output is byte-identical at every thread count.
for st in 1 4; do
    "$BUILD_DIR"/spmcoh_run --workload=gather --cores=16 --chips=2 \
        --wparam=aliased=1 --sim-threads=$st --sim-window=auto --jobs=2 \
        --format=json > "$BUILD_DIR"/gather16x2_st$st.json
    cmp "$BUILD_DIR"/gather16x2_st$st.json \
        tests/golden/gather16x2_st1_stats.json || {
        echo "partitioned gather stats diverged at st$st"; exit 1; }
done

echo "== result regression check (contend 8-core vs golden) =="
"$BUILD_DIR"/spmcoh_run --workload=contend --cores=8 --jobs=2 \
    --format=json --no-stats > "$BUILD_DIR"/contend8.json
python3 scripts/diff_results.py "$BUILD_DIR"/contend8.json \
    tests/golden/contend8_smoke.json

echo "== result regression check (pipeline 2-chip 16-core vs golden) =="
"$BUILD_DIR"/spmcoh_run --workload=pipeline --cores=16 --chips=2 \
    --jobs=2 --format=json --no-stats > "$BUILD_DIR"/pipeline2x8.json
python3 scripts/diff_results.py "$BUILD_DIR"/pipeline2x8.json \
    tests/golden/pipeline2x8_smoke.json

echo "== single-chip equivalence (--chips=1 changes nothing) =="
# An explicit --chips=1 must be byte-identical to the implicit
# default — the fabric must not exist at one chip.
"$BUILD_DIR"/spmcoh_run --workload=pipeline --cores=8 --chips=1 \
    --jobs=2 --format=json --no-stats > "$BUILD_DIR"/pipeline8_1chip.json
cmp "$BUILD_DIR"/pipeline8_1chip.json tests/golden/pipeline8_smoke.json || {
    echo "--chips=1 diverged from the single-chip golden"; exit 1; }

echo "== cross-chip fabric smoke (home agent + links in stats) =="
"$BUILD_DIR"/spmcoh_run --workload=xpipeline --cores=16 --chips=2 \
    --far-mem-lat=200 --format=json > "$BUILD_DIR"/xchip.json
grep -q '"homeagent"' "$BUILD_DIR"/xchip.json
grep -q '"iclink"' "$BUILD_DIR"/xchip.json
grep -q '"farmem"' "$BUILD_DIR"/xchip.json
# Link traffic and home-agent crossings must be non-zero.
grep -q '"upPackets":[1-9]' "$BUILD_DIR"/xchip.json
grep -q '"crossings":[1-9]' "$BUILD_DIR"/xchip.json

echo "== determinism stress (jobs=1 vs jobs=4, run twice each) =="
# A multi-axis sweep (2 workloads x 2 protocols x 2 scales) executed
# serially and on 4 worker threads, twice each, must produce four
# byte-identical JSON documents. This is the gate that catches any
# shared mutable state between sweep points (allocator-address
# ordering, pool reuse across experiments, stray globals) — the
# per-experiment goldens above cannot see cross-experiment leaks.
# The --chips axis rides along so multi-chip points (with their
# home-agent and link state) are covered by the same gate.
for run in 1a 1b 4a 4b; do
    jobs="${run%[ab]}"
    "$BUILD_DIR"/spmcoh_run --workload=gather,contend \
        --protocol=spm-hybrid,mesi --scale=1.0,1.25 --cores=8 \
        --chips=1,2 --jobs="$jobs" --format=json --no-stats \
        > "$BUILD_DIR"/determinism_"$run".json
done
for run in 1b 4a 4b; do
    cmp "$BUILD_DIR"/determinism_1a.json \
        "$BUILD_DIR"/determinism_"$run".json || {
        echo "determinism stress: run $run diverged from run 1a"
        exit 1; }
done

echo "== determinism stress (sim-threads=1 vs 8, partitioned core) =="
# The partitioned core must be byte-identical at every worker-thread
# count: the region structure is derived from the topology and phase
# graph alone, so thread scheduling can never leak into results.
# The --chips=1,2 axis puts mandatory chip-boundary cuts under the
# same gate, and --sim-window=auto exercises the adaptive epoch
# window (its width sequence derives from simulation state only —
# the 16-region cap and region skipping ride along at 8 threads).
# (sim-threads >= 1 uses the windowed cross-region timing model and
# is intentionally NOT compared against the monolithic goldens.)
for st in 1 8; do
    "$BUILD_DIR"/spmcoh_run --workload=gather,contend \
        --protocol=spm-hybrid,mesi --scale=1.0,1.25 --cores=8 \
        --chips=1,2 --jobs=2 --sim-threads="$st" \
        --sim-window=auto --format=json --no-stats \
        > "$BUILD_DIR"/determinism_st"$st".json
done
cmp "$BUILD_DIR"/determinism_st1.json \
    "$BUILD_DIR"/determinism_st8.json || {
    echo "determinism stress: sim-threads=8 diverged from =1"
    exit 1; }

echo "== selfperf regression gate (loose tolerance) =="
"$BUILD_DIR"/bench_selfperf --reps=3 \
    --out="$BUILD_DIR"/selfperf.json
python3 scripts/check_selfperf.py "$BUILD_DIR"/selfperf.json

echo "== partitioned selfperf gate (parallel not slower) =="
# Same experiment pair, monolithic vs partitioned, compared on wall
# time (the windowed timing model simulates a different cycle count,
# so per-cycle numbers do not line up). One sim thread isolates the
# partitioned machinery's cost from host-dependent thread scaling —
# runner core counts vary, and a single-core runner can only lose
# from extra threads. Thread scaling itself is tracked by the
# recorded BENCH_selfperf.json entries, not hard-gated here. The
# adaptive window is the recommended partitioned configuration, so
# the gate runs it (sharded delivery + window adaptation included).
"$BUILD_DIR"/bench_selfperf --reps=3 --sim-threads=1 \
    --sim-window=auto --out="$BUILD_DIR"/selfperf_par.json
python3 scripts/check_selfperf.py --parallel --tolerance=1.5 \
    "$BUILD_DIR"/selfperf.json "$BUILD_DIR"/selfperf_par.json

echo "== large-mesh smoke test (256 cores, 16x16) =="
"$BUILD_DIR"/spmcoh_run --workload=CG --cores=256 --jobs=auto \
    --format=json > "$BUILD_DIR"/smoke256.json
grep -q '"cores":256' "$BUILD_DIR"/smoke256.json
grep -q '"meshWidth":16' "$BUILD_DIR"/smoke256.json

echo "== 16-region determinism (256 cores, sim-threads=1 vs 8) =="
# A 16x16 mesh is the smallest machine that actually reaches the
# raised defaultMaxRegions=16 cap (one cut every row); the 2-chip
# point splits the same budget over two 16x8 chips with a mandatory
# chip-boundary cut. Both must be byte-identical at 1 vs 8 worker
# threads under the adaptive window.
for st in 1 8; do
    "$BUILD_DIR"/spmcoh_run --workload=CG --cores=256 --chips=1,2 \
        --sim-threads="$st" --sim-window=auto --format=json \
        --no-stats > "$BUILD_DIR"/determinism256_st"$st".json
done
cmp "$BUILD_DIR"/determinism256_st1.json \
    "$BUILD_DIR"/determinism256_st8.json || {
    echo "16-region determinism: sim-threads=8 diverged from =1"
    exit 1; }

echo "== ThreadSanitizer build + partitioned-core tests =="
# TSan watches the epoch workers race-free end to end: the region
# test suite plus partitioned CLI runs covering the sharded-delivery
# merge — concurrent per-region inbox drains under the adaptive
# window, single- and multi-chip. Scoped to the partitioned core
# rather than the full suite to keep CI wall-clock bounded.
TSAN_DIR="$BUILD_DIR-tsan"
cmake -B "$TSAN_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSPMCOH_TSAN=ON
cmake --build "$TSAN_DIR" -j "$(nproc)" \
    --target test_regions spmcoh_run
"$TSAN_DIR"/test_regions
"$TSAN_DIR"/spmcoh_run --workload=contend --cores=8 \
    --sim-threads=4 --format=json --no-stats > /dev/null
"$TSAN_DIR"/spmcoh_run --workload=gather --cores=8 --chips=2 \
    --sim-threads=8 --sim-window=auto --format=json --no-stats \
    > /dev/null
echo "ok"
