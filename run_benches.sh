#!/bin/bash
# Regenerates every paper table/figure: runs each bench binary in turn.
# Usage: ./run_benches.sh [output-file]   (GNNDRIVE_BENCH_MODE=full for full sweeps)
#        ./run_benches.sh --faults [output-file]
#            fault-injection smoke mode: instead of the bench sweep, runs the
#            fault-tolerance soak suite (injected EIOs, latency spikes, stuck
#            requests, bad sectors) against the full pipeline.
#        ./run_benches.sh --trace [trace-json] [output-file]
#            observability mode: runs one traced GNNDrive epoch, writes a
#            Perfetto-loadable Chrome trace (default trace.json) plus the
#            metrics/latency summary (see docs/observability.md).
#        ./run_benches.sh --serve [output-file]
#            serving smoke mode: runs the online-inference load generator
#            (coalesced vs per-request closed loop, offered-load sweep,
#            serving under SSD faults) plus the serve test suites
#            (see docs/serving.md).
#        ./run_benches.sh --coalesce [output-file]
#            coalescing A/B mode: runs the coalesce=on/off extraction sweep
#            (SSD read requests, rows per read, extract p50/p95) plus the
#            coalescing differential/fault test suites (byte-identical
#            features, per-segment failure granularity, zero leaks).
#        ./run_benches.sh --ckpt [output-file]
#            crash-recovery mode: runs the checkpoint-overhead bench plus
#            the crash matrix (writer aborted at every protocol phase,
#            bit-exact resume), media-corruption fallback, serve hot-swap
#            and the kill-and-resume soak (see docs/recovery.md).
#        ./run_benches.sh --obs [output-file]
#            telemetry-plane smoke mode: runs the live-endpoint bench
#            (scrapes /metrics, /vars, /attribution and /readyz while a
#            train epoch and the serve engine run concurrently, writes
#            BENCH_obs.json) plus the sampler/exposition/attribution/SLO
#            test suites (see docs/observability.md).
#        ./run_benches.sh --cache [output-file]
#            cache-policy smoke mode: runs the lru/hotness/belady A/B sweep
#            (hit rate, ssd.reads across skew levels and buffer budgets)
#            plus the cache test suites (construction validation, pinned
#            hot-partition semantics, LRU property/fuzz, byte-identical
#            differential, checkpoint hot-set adoption).
#        ./run_benches.sh --layout [output-file]
#            feature-layout mode: runs the identity/degree/hotness packed-
#            store A/B sweep (direct, mmap and hot-prefetch ssd.reads, writes
#            BENCH_layout.json; fails if the best packed layout is < 2x or
#            any loss trajectory diverges), the offline compiler tool on a
#            plan file round-trip, and the Layout* test suites (plan
#            serialization fuzz, offset overflow bounds, compile rewrite
#            correctness, checkpoint fingerprint gating, cross-layout
#            differentials for train/serve/ginex/pygplus/marius).
#
# Every step runs under a 580 s timeout and logs "[exit=N]" to the output
# file. The script exits non-zero when any step failed, after writing the
# mode's done marker and listing the failed steps on stderr.
FAILED=()

# Starts a mode's output file with a section header.
begin() {
  OUT="$1"
  : > "$OUT"
  echo "############ $2 ############" >> "$OUT"
}

# Runs one step, appending its output and exit status to $OUT.
step() {
  timeout 580 "$@" >> "$OUT" 2>&1
  local rc=$?
  echo "[exit=$rc]" >> "$OUT"
  [ "$rc" -eq 0 ] || FAILED+=("$* (exit $rc)")
}

# Runs the test binary on one gtest filter.
tests() {
  step build/tests/gnndrive_tests --gtest_filter="$1"
}

# Writes the done marker and exits non-zero if any step failed.
finish() {
  echo "$1" >> "$OUT"
  for f in "${FAILED[@]}"; do echo "run_benches.sh: step failed: $f" >&2; done
  exit $(( ${#FAILED[@]} > 0 ))
}

case "${1:-}" in
  --layout)
    begin "${2:-layout_sweep_output.txt}" "feature-layout A/B (bench/layout_sweep + tools/layout_compile + Layout* suites)"
    step build/bench/layout_sweep BENCH_layout.json
    step build/tools/layout_compile papers100m hotness layout_plan.bin
    tests 'Layout*'
    finish LAYOUT_SMOKE_DONE ;;
  --obs)
    begin "${2:-obs_smoke_output.txt}" "telemetry-plane smoke (bench/obs_endpoint + obs suites)"
    step build/bench/obs_endpoint BENCH_obs.json
    tests 'TimeSeries.*:HistogramWindowing.*:Exposition.*:Attribution.*:Slo.*:ObsServer.*:ObsPlaneFixture.*'
    finish OBS_SMOKE_DONE ;;
  --cache)
    begin "${2:-cache_policy_output.txt}" "cache-policy A/B (bench/cache_policy + cache/LRU suites)"
    step build/bench/cache_policy
    tests 'CacheValidation.*:CachePolicyFixture.*:HotPartition*.*:IndexedLruProperty.*'
    finish CACHE_SMOKE_DONE ;;
  --ckpt)
    begin "${2:-ckpt_recovery_output.txt}" "crash recovery (bench/ckpt_overhead + Crc32c/Checkpoint/CkptPipeline/CkptSoak)"
    step build/bench/ckpt_overhead
    tests 'Crc32c.*:Checkpoint.*:CkptPipeline.*:CkptSoak.*'
    finish CKPT_RECOVERY_DONE ;;
  --coalesce)
    begin "${2:-coalesce_ab_output.txt}" "coalescing A/B (bench/coalesce_sweep + Coalesce* suites)"
    step build/bench/coalesce_sweep
    tests 'Coalesce*:FeatureBufferBatchedApis.*'
    finish COALESCE_AB_DONE ;;
  --serve)
    begin "${2:-serve_smoke_output.txt}" "serving smoke (bench/serve_latency + Serve* suites)"
    step build/bench/serve_latency
    tests 'Serve*:FaultSoak.ServingUnder*'
    finish SERVE_SMOKE_DONE ;;
  --trace)
    TRACE="${2:-trace.json}"
    begin "${3:-trace_output.txt}" "pipeline trace export ($TRACE)"
    step build/bench/trace_pipeline "$TRACE"
    finish TRACE_EXPORT_DONE ;;
  --faults)
    begin "${2:-fault_smoke_output.txt}" "fault-injection smoke (FaultSoak + SsdFaults + watchdog)"
    tests 'FaultSoak.*:SsdFaults.*:RingFixture.Watchdog*:RingFixture.Injected*'
    finish FAULT_SMOKE_DONE ;;
esac

OUT="${1:-bench_output.txt}"
: > "$OUT"
for b in build/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] || continue
  case "$b" in *.cmake|*CTest*|*.a) continue;; esac
  printf '\n############ %s ############\n' "$b" >> "$OUT"
  step "$b"
done
finish BENCH_SUITE_DONE
