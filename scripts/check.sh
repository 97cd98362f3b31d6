#!/usr/bin/env bash
# The CI entry point: one command that proves the tree is healthy.
#
#   (a) tier-1 build + full ctest, with the VIA invariant checker on,
#       plus an event-kernel microbench smoke run (allocs/event == 0)
#   (b) AddressSanitizer + UBSan build + full ctest, checker still on
#   (c) ThreadSanitizer build + the ParallelRunner sweep and tracing
#       tests
#   (d) trace determinism: PRESS_TRACE=1 Figure-1 runs must export
#       byte-identical traces for --jobs 1 vs --jobs 4 and across
#       reruns, pass the span-vs-counter cross-check, and produce
#       valid Chrome JSON (see docs/observability.md)
#   (e) races: the determinism race hunt — press_races reruns the
#       golden scenarios under K seeded equal-tick permutations and
#       checks every cross-domain edge against its lookahead bound;
#       its findings must be byte-identical across --jobs values (see
#       docs/static-analysis.md)
#   (f) scale: the scalable dissemination paths — a 64-node gossip +
#       tree smoke with the VIA checker live plus the sharded-vs-
#       replicated directory oracle (examples/scale_smoke), VIA V5 x
#       gossip/tree cluster runs with the checker aborting, a 64-node
#       VIA V0 x L1 run that drains and replenishes every VI's
#       counted receive post under the aborting checker, a 64-node
#       VIA V3 x L1 run over the RMW rings, flow words and file
#       transfers under the same checker, K=4
#       tick-race hunts focused on the gossip and tree scenarios, and
#       the benchmark's out-of-tree build, self-tests and a checked
#       256-node run (perfbench/)
#   (g) fault: the fault-tolerance subsystem — a churn bench smoke
#       (kill 2 of 16 mid-trace; zero lost requests is the exit
#       code) and a crash-scenario byte-identity diff across --jobs
#       values (see docs/simulation.md, "Fault tolerance")
#   (h) traffic: the open-loop traffic engine — an SLO capacity-sweep
#       smoke (the bench exits nonzero when a rung below a scenario's
#       knee misses its offered rate or the flash crowd never crosses
#       the overload pivot) and a byte-identity diff across --jobs
#       values (see docs/workloads.md)
#   (i) lint pass (clang-tidy when available + project grep bans,
#       including the nondeterminism, raw-argv, raw-RNG and raw-throw
#       bans)
#   (j) release: build only, -O3 Release with -DPRESS_WERROR=ON; the
#       optimizer's inlining raises warnings (e.g. GCC's -Wrestrict)
#       the default RelWithDebInfo build never sees
#
# Usage: scripts/check.sh [stage...]
#   stage  any of: tier1 asan tsan trace races scale fault traffic
#          lint release (default: all ten, in order)
#
# Every requested stage runs even when an earlier one fails; the
# summary table at the end shows per-stage pass/fail and the script
# exits nonzero if anything failed.
#
# Separate build trees (build/, build-asan/, build-tsan/,
# build-release/) keep the sanitizer instrumentation and the -O3 build
# out of the regular binaries.
set -uo pipefail
cd "$(dirname "$0")/.."

if [ $# -eq 0 ]; then
    STAGES=(tier1 asan tsan trace races scale fault traffic lint release)
else
    STAGES=("$@")
fi

# Every simulation run in both ctest passes executes fully checked:
# the first VIA protocol violation aborts the offending test.
export PRESS_CHECK="${PRESS_CHECK:-1}"

stage_tier1() {
    cmake -B build -S . -G Ninja -DPRESS_WERROR=ON
    cmake --build build -j "$(nproc)"
    ctest --test-dir build -j "$(nproc)" --output-on-failure
    # Kernel smoke: the microbench exits nonzero if the zero-
    # allocation contract breaks (JSON lands in the build tree).
    ./build/bench/sim_micro --json build/BENCH_sim.json
}

stage_asan() {
    cmake -B build-asan -S . -G Ninja \
        -DPRESS_SANITIZE="address;undefined" -DPRESS_WERROR=ON
    cmake --build build-asan -j "$(nproc)"
    # abort_on_error makes ASan findings fail the test like a panic;
    # detect_leaks stays on (the default) to catch ownership slips.
    ASAN_OPTIONS="abort_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
        ctest --test-dir build-asan -j "$(nproc)" --output-on-failure
}

stage_tsan() {
    cmake -B build-tsan -S . -G Ninja \
        -DPRESS_SANITIZE=thread -DPRESS_WERROR=ON
    # Only what the sweep pool needs: the harness itself, the tests
    # that drive clusters from multiple worker threads, and the
    # tracing structures those workers write through. A full TSan
    # ctest pass would double CI time for single-threaded code.
    cmake --build build-tsan -j "$(nproc)" --target \
        test_bench_parallel test_obs
    TSAN_OPTIONS="halt_on_error=1" \
        ctest --test-dir build-tsan -j "$(nproc)" \
        --output-on-failure \
        -R "ParallelRunner|TraceSet|TraceRing|Tracer|TracedCluster"
}

stage_trace() {
    cmake -B build -S . -G Ninja -DPRESS_WERROR=ON
    cmake --build build -j "$(nproc)" --target \
        fig1_time_breakdown press_trace
    rm -rf build/trace-j1 build/trace-j4a build/trace-j4b
    # Three identical Figure-1 sweeps: sequential, parallel, and a
    # parallel rerun. The exported traces must be byte-identical —
    # determinism is part of the subsystem's contract. fig1 itself
    # exits nonzero if any cell's span-derived CPU attribution
    # disagrees with the resource counters.
    PRESS_TRACE=1 ./build/bench/fig1_time_breakdown \
        --requests 20000 --jobs 1 --trace-dir build/trace-j1
    PRESS_TRACE=1 ./build/bench/fig1_time_breakdown \
        --requests 20000 --jobs 4 --trace-dir build/trace-j4a
    PRESS_TRACE=1 ./build/bench/fig1_time_breakdown \
        --requests 20000 --jobs 4 --trace-dir build/trace-j4b
    diff -r build/trace-j1 build/trace-j4a
    diff -r build/trace-j4a build/trace-j4b
    echo "trace exports byte-identical across --jobs 1/4 and reruns"
    for f in build/trace-j1/*.trace.json; do
        ./build/tools/press_trace jsoncheck "$f"
    done
    for f in build/trace-j1/*.ptrace; do
        ./build/tools/press_trace check "$f"
    done
}

stage_races() {
    cmake -B build -S . -G Ninja -DPRESS_WERROR=ON
    cmake --build build -j "$(nproc)" --target press_races
    # Tick-race hunt + causality check over the golden scenarios:
    # K=8 seeded permutations of the equal-tick cross-domain firing
    # order per scenario, compared against the FIFO baseline, then a
    # Record-mode causality pass per scenario. Either exits nonzero on
    # a finding. The findings must not depend on the worker count —
    # run twice and diff everything but the header line that names
    # the job count.
    ./build/tools/press_races --seeds 8 --jobs "$(nproc)" \
        --requests 20000 | grep -v ' jobs)$' > build/races-jN.txt
    ./build/tools/press_races --seeds 8 --jobs 1 \
        --requests 20000 | grep -v ' jobs)$' > build/races-j1.txt
    diff build/races-j1.txt build/races-jN.txt
    echo "press_races findings byte-identical across --jobs values"
}

stage_scale() {
    cmake -B build -S . -G Ninja -DPRESS_WERROR=ON
    cmake --build build -j "$(nproc)" --target scale_smoke press_races \
        trace_server
    # 64-node gossip + tree runs with the VIA invariant checker live,
    # plus the sharded-vs-replicated directory oracle: both modes must
    # answer the whole stream and the drained shard owners' maps must
    # mirror the real caches (see docs/simulation.md).
    ./build/examples/scale_smoke
    # VIA V5 x gossip/tree: the digests and tree load rumors are the
    # only regular sends left at V5, so they need the receive thread
    # and must stay off the fixed-size rings (docs/press.md, "The comm
    # layer"). The checker aborts on the first VIA violation.
    for diss in g4 t4; do
        PRESS_CHECK=1 ./build/examples/trace_server --proto via \
            --version 5 --nodes 8 --dissemination "$diss" --requests 30000
    done
    # VIA V0 x L1 on 64 nodes: per-change load broadcasts reach every
    # VI, so each one's counted receive post (postRecvs) is drained and
    # replenished with the checker aborting. scale_smoke's gossip run
    # reaches only some of the VIs.
    PRESS_CHECK=1 ./build/examples/trace_server --proto via --version 0 \
        --nodes 64 --dissemination l1 --requests 3000
    # VIA V3 x L1 on 64 nodes: the forward and caching rings, the flow
    # words and the two-message RMW file transfer at scale, every
    # credit change seen by the aborting checker.
    PRESS_CHECK=1 ./build/examples/trace_server --proto via --version 3 \
        --nodes 64 --dissemination l1 --requests 3000
    # Tick-race hunt focused on the gossip and tree scenarios: K=4
    # seeded equal-tick permutations against the FIFO baseline.
    ./build/tools/press_races --seeds 4 --requests 8000 --filter G4
    ./build/tools/press_races --seeds 4 --requests 8000 --filter T4
    # The benchmark builds src/ on its own, out of tree: its self-tests
    # and one 256-node trace run keep a src/ change from breaking the
    # benchmark build, its correctness gate, or the registration the
    # path table prunes (--trace 1 runs the VIA checker in Abort mode;
    # the gate is the exit code).
    cmake -S perfbench -B .bench_build/perfbench -G Ninja \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build .bench_build/perfbench -j "$(nproc)" \
        --target perfbench_selftest press_perfbench
    ./.bench_build/perfbench/perfbench_selftest
    python3 perfbench/run.py --workload scale256_g4 --seed 1 --seconds 1 \
        --trace 1
}

stage_fault() {
    cmake -B build -S . -G Ninja -DPRESS_WERROR=ON
    cmake --build build -j "$(nproc)" --target fault_churn
    # Churn smoke: kill 2 of 16 nodes mid-trace, restart them later.
    # The bench exits nonzero when any cell strands a request, so
    # "zero lost requests" is enforced by the exit code. Determinism:
    # the sequential and sweep-parallel runs must print the same
    # table and JSON, byte for byte.
    ( cd build && ./bench/fault_churn --quick --jobs 1           > fault-j1.txt && mv BENCH_fault.json fault-j1.json )
    ( cd build && ./bench/fault_churn --quick --jobs 4           > fault-j4.txt && mv BENCH_fault.json fault-j4.json )
    diff build/fault-j1.txt build/fault-j4.txt
    diff build/fault-j1.json build/fault-j4.json
    echo "fault churn byte-identical across --jobs 1/4"
}

stage_traffic() {
    cmake -B build -S . -G Ninja -DPRESS_WERROR=ON
    cmake --build build -j "$(nproc)" --target capacity_slo
    # SLO sweep smoke: the bench exits nonzero if a rung below a
    # scenario's knee misses its offered rate or the flash-crowd sweep
    # never crosses the T = 80 overload pivot. Determinism: sequential
    # and sweep-parallel runs must print the same table and JSON.
    ( cd build && ./bench/capacity_slo --quick --jobs 1 > slo-j1.txt && mv BENCH_slo.json slo-j1.json )
    ( cd build && ./bench/capacity_slo --quick --jobs 4 > slo-j4.txt && mv BENCH_slo.json slo-j4.json )
    diff build/slo-j1.txt build/slo-j4.txt
    diff build/slo-j1.json build/slo-j4.json
    echo "capacity_slo byte-identical across --jobs 1/4"
}

stage_lint() {
    scripts/lint.sh build
}

stage_release() {
    cmake -B build-release -S . -G Ninja -DCMAKE_BUILD_TYPE=Release \
        -DPRESS_WERROR=ON
    cmake --build build-release -j "$(nproc)"
}

declare -a RESULTS=()
OVERALL=0

for stage in "${STAGES[@]}"; do
    case "$stage" in
    tier1|asan|tsan|trace|races|scale|fault|traffic|lint|release) ;;
    *)
        echo "check.sh: unknown stage '$stage'" \
             "(want tier1|asan|tsan|trace|races|scale|fault|traffic|lint|release)" >&2
        exit 2
        ;;
    esac
    echo
    echo "===== check.sh: $stage (PRESS_CHECK=$PRESS_CHECK) ====="
    # Subshell with -e: the stage stops at its first error, but the
    # driver carries on to the remaining stages regardless.
    ( set -e; "stage_$stage" )
    rc=$?
    if [ "$rc" -eq 0 ]; then
        RESULTS+=("$stage PASS")
    else
        RESULTS+=("$stage FAIL")
        OVERALL=1
    fi
done

echo
echo "===== check.sh: summary ====="
for line in "${RESULTS[@]}"; do
    printf '  %-8s %s\n' "${line% *}" "${line##* }"
done
if [ "$OVERALL" -ne 0 ]; then
    echo "check.sh: FAILED"
    exit 1
fi
echo "check.sh: all stages passed"
