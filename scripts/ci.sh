#!/bin/sh
# The tier-1 gate, run three times:
#
#   1. an ASan+UBSan build (catches the memory and UB bugs a fleet of
#      forking workers is good at hiding),
#   2. the regular build with REPRO_SIMD=portable, proving the scalar
#      kernels produce the same bit-identical results the SIMD paths
#      are tested against, and
#   3. a ThreadSanitizer build over the suites whose code shares state
#      between threads.
#
# The first two passes run the full suite; any pass failing fails CI.
# Every pass compiles with -Werror, so a new warning fails CI too.
#
# Usage: scripts/ci.sh [jobs]
set -u

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
jobs=${1:-$(nproc 2>/dev/null || echo 4)}
fail=0

# run_pass <name> <build dir> <ctest label regex, "" = all> [cmake args]
run_pass() {
    name=$1
    build=$2
    labels=$3
    shift 3
    echo "=== ci: configure $name ($build) ==="
    cmake -B "$build" -S "$root" -DCMAKE_CXX_FLAGS=-Werror "$@" || return 1
    echo "=== ci: build $name ==="
    cmake --build "$build" -j "$jobs" || return 1
    echo "=== ci: test $name ==="
    (cd "$build" && ctest --output-on-failure -j "$jobs" \
         ${labels:+-L "$labels"}) || return 1
}

# Pass 1: sanitizers. ASan needs the leak checker off for the chaos
# tests (SIGKILLed workers exit without unwinding, by design).
if ! ASAN_OPTIONS="detect_leaks=0" run_pass "asan+ubsan" \
        "$root/build-san" "" -DTEA_SANITIZE="address,undefined"; then
    echo "ci: sanitizer pass FAILED"
    fail=1
fi

# Pass 2: portable SIMD on the regular build — results must not
# depend on the ISA level the kernels were dispatched to.
if ! REPRO_SIMD=portable run_pass "portable-simd" "$root/build" ""; then
    echo "ci: portable-SIMD pass FAILED"
    fail=1
fi

# Pass 3: ThreadSanitizer on the suites that share state between
# threads: the thread pool and concurrent golden preparation
# (tier1par), the daemon's executor and connection threads
# (tier1service), the fleet coordinator (tier1fleet), and the metric
# registry and trace buffers (tier1obs).
if ! run_pass "tsan" "$root/build-tsan" \
        "tier1par|tier1service|tier1fleet|tier1obs" \
        -DTEA_SANITIZE=thread; then
    echo "ci: ThreadSanitizer pass FAILED"
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "ci: FAILED"
    exit 1
fi

# Surrogate calibration gate, called out by name so a regression in
# the importance-sampling stack is visible as its own CI line (the
# tier1is-labeled tests also ran inside both full passes above).
echo "=== ci: surrogate calibration gate (ctest -L tier1is) ==="
if ! (cd "$root/build" && ctest -L tier1is --output-on-failure); then
    echo "ci: surrogate calibration gate FAILED"
    exit 1
fi
# Multi-core determinism gate, likewise named: the N-core interleaving
# and journal byte-identity claims of DESIGN.md §15 run under both the
# sanitizer build and the regular build (tier1mc also ran inside both
# full passes above — this line just makes a regression unmissable).
echo "=== ci: multi-core determinism gate (ctest -L tier1mc) ==="
if ! (cd "$root/build-san" && \
      ASAN_OPTIONS="detect_leaks=0" ctest -L tier1mc --output-on-failure) \
   || ! (cd "$root/build" && ctest -L tier1mc --output-on-failure); then
    echo "ci: multi-core determinism gate FAILED"
    exit 1
fi
# OoO timing-oracle and functional-oracle gate, likewise named: the
# core pipeline's ready set, load re-check set and timing wheel are
# multi-word bitsets over a fixed-size ROB ring, its per-slot waiter
# lists are indexed by ROB slot and checked by sequence number, and the
# one functional simulator steps 1..N harts through per-hart arrays,
# so the pinned cycle/counter/output oracle (tests/sim: four ROB sizes,
# a narrow and a long-latency machine, a run cut by the cycle limit)
# and the pinned functional oracle (status, per-core counts,
# op-count/FP-trace/output CRCs at 1, 2 and 4 cores) run under
# ASan+UBSan and under the regular build.
echo "=== ci: OoO timing-oracle + functional-oracle gate (ctest -L tier1sim) ==="
if ! (cd "$root/build-san" && \
      ASAN_OPTIONS="detect_leaks=0" ctest -L tier1sim --output-on-failure) \
   || ! (cd "$root/build" && ctest -L tier1sim --output-on-failure); then
    echo "ci: OoO timing-oracle + functional-oracle gate FAILED"
    exit 1
fi
# Batched-DTA identity gate, likewise named: WA/DA characterization
# replays every trace through the compiled batched engine, so the
# lanes x threads identity of DESIGN.md §9/§11 (one lane, the scalar
# oracle, as reference), the per-stage row-reuse checks and the pinned
# characterization CRCs run under the sanitizer build and under the
# portable SIMD kernels.
echo "=== ci: batched-DTA identity gate (ctest -L tier1dta) ==="
if ! (cd "$root/build-san" && \
      ASAN_OPTIONS="detect_leaks=0" ctest -L tier1dta --output-on-failure) \
   || ! (cd "$root/build" && \
         REPRO_SIMD=portable ctest -L tier1dta --output-on-failure); then
    echo "ci: batched-DTA identity gate FAILED"
    exit 1
fi
echo "ci: OK (sanitizer, portable-SIMD, TSan, IS, multi-core, OoO + functional oracle, batched-DTA green)"
