#!/usr/bin/env sh
# Full local CI sweep: build and test the tree four times — plain,
# instrumented with AddressSanitizer+UBSan, instrumented with
# ThreadSanitizer (the explorer's worker threads, the audit/range parallel
# per-state scans and the synthesis cache they share are the repo's only
# concurrency, so the TSan tree runs just those tests), and instrumented
# with UBSan alone for the checked-arithmetic interval code — then run
# clang-tidy over the sources with warnings promoted to errors. This is the
# same gauntlet the validator and lint fixtures are developed against; a
# clean run means "safe to push".
#
# Usage: tools/ci.sh [jobs]
#
# Build trees land in build-ci/ (plain), build-ci-asan/, build-ci-tsan/ and
# build-ci-ubsan/ (sanitized) so an existing build/ tree is left alone.
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
jobs=${1:-$(nproc 2>/dev/null || echo 4)}

run_tree() {
  dir=$1
  shift
  echo "==== configure $dir ($*)"
  cmake -B "$repo/$dir" -S "$repo" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON "$@"
  echo "==== build $dir"
  cmake --build "$repo/$dir" -j "$jobs"
  echo "==== ctest $dir"
  (cd "$repo/$dir" && ctest --output-on-failure -j "$jobs")
}

run_tree build-ci
run_tree build-ci-asan -DMFRAME_SANITIZE=address,undefined

# ThreadSanitizer tree (TSan and ASan cannot share a binary, hence the third
# tree). Only the concurrent code is interesting here — the explorer and its
# thread pool — so build the test binary and run that suite at a high jobs
# count instead of the whole ctest sweep.
echo "==== configure build-ci-tsan (-DMFRAME_SANITIZE=thread)"
cmake -B "$repo/build-ci-tsan" -S "$repo" -DMFRAME_SANITIZE=thread
echo "==== build build-ci-tsan (mframe_tests)"
cmake --build "$repo/build-ci-tsan" -j "$jobs" --target mframe_tests
echo "==== explorer/thread-pool, tune, audit, range, cache and DFG concurrency tests under TSan"
"$repo/build-ci-tsan/tests/mframe_tests" \
  --gtest_filter='Explore*:Tune.*:Audit*:Range*:Cache*:DfgConcurrency*' \
  --gtest_brief=1

# Scale smoke under TSan: a 10k-op synthesis drives the frontier scheduler's
# span walks over the shared frozen graph with sanitizer bookkeeping on.
echo "==== 10k-op synth smoke under TSan"
cmake --build "$repo/build-ci-tsan" -j "$jobs" --target mframe
"$repo/build-ci-tsan/tools/mframe" synth \
  random:conv,ops=10000,width=64 --metrics > /dev/null

# UndefinedBehaviorSanitizer-only tree: the interval lattice and the
# constant folder lean on checked arithmetic (__builtin_*_overflow plus
# explicit shift guards), and UBSan alone — without ASan redzones slowing
# everything down — is the cheapest way to prove every wrap really is
# checked. Run the interval/dataflow and range suites, where all of that
# arithmetic lives.
echo "==== configure build-ci-ubsan (-DMFRAME_SANITIZE=undefined)"
cmake -B "$repo/build-ci-ubsan" -S "$repo" -DMFRAME_SANITIZE=undefined
echo "==== build build-ci-ubsan (mframe_tests)"
cmake --build "$repo/build-ci-ubsan" -j "$jobs" --target mframe_tests
echo "==== interval, dataflow and range arithmetic under UBSan"
"$repo/build-ci-ubsan/tests/mframe_tests" \
  --gtest_filter='Range*:Ranges*:ConstProp*:DataflowEngine*:Bind*' \
  --gtest_brief=1

# Scale smoke in the plain tree: 100k-op conv and transformer DFGs through
# the full synth pipeline, and conv through analyze, must stay in
# single-digit seconds (`timeout` turns a quadratic regression into a hard
# failure instead of a hung CI run).
echo "==== 100k-op synth + analyze smoke (plain tree)"
timeout 120 "$repo/build-ci/tools/mframe" synth \
  random:conv,ops=100000,width=64 --metrics > /dev/null
timeout 120 "$repo/build-ci/tools/mframe" synth \
  random:transformer,ops=100000,width=32 --metrics > /dev/null
timeout 120 "$repo/build-ci/tools/mframe" analyze \
  random:conv,ops=100000,width=64 > /dev/null

# And a 10k-op pass under ASan/UBSan, where redzones would make 100k crawl.
echo "==== 10k-op synth smoke under ASan/UBSan"
"$repo/build-ci-asan/tools/mframe" synth \
  random:conv,ops=10000,width=64 --metrics > /dev/null

# Perf benches run under the plain tree only (sanitizer overhead would make
# the numbers meaningless): a short smoke pass of bench_runtime/bench_explore
# via bench-json.sh, archiving the merged report next to the build tree.
echo "==== benches (smoke) build-ci"
BENCH_MIN_TIME=0.01 "$repo/tools/bench-json.sh" "$repo/build-ci" \
  "$repo/build-ci/BENCH_runtime.json"

# Trace smoke: synthesize diffeq with tracing on and validate the Chrome
# trace-event JSON — every pipeline phase span present, metrics embedded.
echo "==== trace smoke (synth diffeq --trace)"
"$repo/build-ci/tools/mframe" synth "$repo/tools/designs/diffeq.mfb" \
  --steps 4 --trace "$repo/build-ci/diffeq_trace.json" --metrics=json \
  > /dev/null
python3 - "$repo/build-ci/diffeq_trace.json" <<'EOF'
import json
import sys

d = json.load(open(sys.argv[1]))
names = {e["name"] for e in d["traceEvents"]}
need = {"parse", "preflight-lint", "timeframes", "mfsa",
        "rtl.datapath", "rtl.controller", "verify.datapath"}
missing = need - names
assert not missing, f"trace smoke: missing spans {missing}"
assert d["metrics"]["counters"]["mfsa.candidates"] > 0
print(f"trace smoke: ok ({len(d['traceEvents'])} events)")
EOF

# Counter drift gate against the committed baseline. Timings are skipped:
# the smoke report above used BENCH_MIN_TIME and its numbers mean nothing,
# but the counters are deterministic and must match the baseline exactly.
echo "==== bench-compare (counter drift gate)"
BENCH_COMPARE_SKIP_TIME=1 "$repo/tools/bench-compare.sh" \
  "$repo/build-ci/BENCH_runtime.json" "$repo/BENCH_runtime.json"

# The explorer's worker threads, the tune candidate race and the audit's
# parallel per-step scan are exactly the code the sanitizers should chew
# on; ctest above already ran the whole suite under ASan/UBSan, but run the
# determinism tests once more explicitly at a high jobs count, plus the
# verifiers' null-graph guards (a default Schedule/Datapath used to SEGV),
# the schedule lint on a cyclic graph, and the shared immutable graph core.
echo "==== determinism and null-graph guards under ASan/UBSan"
"$repo/build-ci-asan/tests/mframe_tests" \
  --gtest_filter='Explore*:Tune.*:Audit*:Range*:Cache*:*NullGraph*:*Infeasib*:*FirstFit*:*ProbesStayLinear*:*CyclicGraph*:Dfg.*:DfgCore*:DfgConcurrency*' \
  --gtest_brief=1

echo "==== clang-tidy (warnings are errors)"
"$repo/tools/run-tidy.sh" "$repo/build-ci"

echo "==== ci.sh: all green"
