#!/bin/sh
# CI job: observability plane — the probe's sinks (counters, trace ring,
# histograms, flight recorder) and the clock-aligned trace merge.
#
# Phase 1 runs the tests carrying the `trace` CTest label (ring/metrics
# units plus the machine-run exporter validator: valid JSON, one track per
# PE, nested spans, cross-PE flow arrows), then those carrying the `obs`
# label under the release preset: the probe's event table (one emit feeds
# every sink it names; event-derived counters equal traced event counts),
# histogram bucket geometry and quantiles, snapshot merge algebra,
# metrics snapshot provenance, flight recorder note/freeze/dump semantics,
# trace-part round trips with byte-identical re-merges, the fork-based
# multi-process merge legs (Machine::run's shutdown must leave one aligned
# Perfetto JSON with cross-process flow arrows, including the 64-PE /
# 4-process migrate pack→unpack arrow), and the black-box contract: an FT
# kill storm with MFC_TRACE off still dumps the flight recorder.
#
# Phase 2 drives the acceptance paths end to end. MFC_TRACE=1 on a real
# chaos-storm run (message traffic + thread and element migrations) must
# export Chrome trace-event JSON with events from every PE, B/E spans and
# s/f flow arrows; the export lands in build-release/ and can be dropped
# straight into https://ui.perfetto.dev for triage. MFC_STATS=1 on the
# 4-process / 64-PE migration storm leaves one stats dump per process,
# each carrying its own provenance and populated latency histograms with
# ordered quantiles. A two-process traced storm then leaves the machine's
# merged timeline plus the surviving .part files, and the offline tool
# (tools/trace_merge) must reproduce the machine's merge byte for byte.
#
# Phase 3 reruns the histogram-overhead bench suite (paired obs off/on
# reps, median cpu-time ratio — the trace suite's methodology) and gates
# two ways with bench_compare.py: the fresh rows must be within tolerance
# of the checked-in BENCH_obs.json, and — the absolute acceptance bar —
# the histogram-instrumented pingpong must cost no more than 1.10x the
# histograms-off pingpong in cpu time.
#
# Phase 4 repeats the obs label under ThreadSanitizer: the fork-based
# merge legs are compiled out (tsan does not follow children), but the
# histogram/flight/part units and the single-process FT-kill leg keep the
# observability hot paths under the race detector.
set -eu
cd "$(dirname "$0")/.."

cmake --preset release
cmake --build --preset release -j"$(nproc)"
ctest --preset trace
ctest --preset obs

# Traced storm: every PE has a track, with duration spans and flow arrows.
out="build-release/ci_storm_trace.json"
rm -f "$out"
# quiet_options in stress_storm_test: 4 PEs, 6 workers, 6 rounds.
MFC_TRACE=1 MFC_TRACE_FILE="$out" \
  ./build-release/tests/stress_storm_test \
  --gtest_filter='Storm.CleanRunWithoutChaos'
test -s "$out" || { echo "FAIL: storm exported no trace"; exit 1; }

if command -v python3 >/dev/null 2>&1; then
  python3 - "$out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
tids = {e["tid"] for e in events if e["ph"] != "M"}
missing = [pe for pe in range(4) if pe not in tids]
assert not missing, f"PEs with no events: {missing}"
phases = {e["ph"] for e in events}
assert {"B", "E"} <= phases, "no duration spans in storm trace"
assert {"s", "f"} <= phases, "no flow arrows in storm trace"
print(f"ok: {len(events)} events across PEs {sorted(tids)}")
EOF
else
  # Weak fallback when python3 is absent: per-PE track names and span
  # markers must at least be present in the raw text.
  for pe in 0 1 2 3; do
    grep -q "\"name\":\"PE $pe\"" "$out" \
      || { echo "FAIL: no track for PE $pe"; exit 1; }
  done
  grep -q '"ph":"B"' "$out" || { echo "FAIL: no duration spans"; exit 1; }
  grep -q '"ph":"s"' "$out" || { echo "FAIL: no flow arrows"; exit 1; }
fi

# Acceptance storm with stats armed: one provenance-stamped dump per proc.
stats="ci_obs_stats.json"
(cd build-release && rm -f "$stats".proc*)
(cd build-release && MFC_STATS=1 MFC_STATS_FILE="$stats" ./tests/obs_test \
  --gtest_filter='ObsMachine.Acceptance64Pe4ProcStormHasCrossProcessMigrateFlow' \
  >/dev/null)
for p in 0 1 2 3; do
  f="build-release/$stats.proc$p"
  test -s "$f" || { echo "FAIL: no stats dump for proc $p"; exit 1; }
  grep -q "\"proc\":$p" "$f" \
    || { echo "FAIL: stats dump $p lacks provenance"; exit 1; }
done
if command -v python3 >/dev/null 2>&1; then
  python3 - "build-release/$stats.proc0" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
hists = doc["histograms"]
for name in ("queue-wait", "handler-service"):
    h = hists[name]
    assert h["count"] > 0, f"{name} recorded no samples"
    assert h["p50_ns"] <= h["p99_ns"] <= h["p999_ns"], f"{name} quantiles"
print(f"ok: {len(hists)} histograms populated on proc 0")
EOF
fi

# Offline merge agreement: a two-process traced storm leaves the machine's
# merged timeline plus its parts; tools/trace_merge must reproduce the
# machine's output byte for byte from the parts alone.
tool_out="ci_tool.json"
(cd build-release && rm -f "$tool_out" "$tool_out".part* "$tool_out".remerge)
(cd build-release && MFC_TRACE=1 MFC_TRACE_FILE="$tool_out" \
  ./tests/transport_conformance_test \
  --gtest_filter='TransportConformance.MiniStormMultiProcessBothWires' \
  >/dev/null)
test -s "build-release/$tool_out" \
  || { echo "FAIL: traced storm wrote no merged timeline"; exit 1; }
./build-release/tools/trace_merge "build-release/$tool_out.remerge" \
  "build-release/$tool_out.part0" "build-release/$tool_out.part1"
cmp "build-release/$tool_out" "build-release/$tool_out.remerge" \
  || { echo "FAIL: trace_merge disagrees with the machine's merge"; exit 1; }
if ./build-release/tools/trace_merge >/dev/null 2>&1; then
  echo "FAIL: trace_merge accepted an empty command line"; exit 1
fi

cp BENCH_obs.json build-release/BENCH_obs.baseline.json
(cd build-release && MFC_BENCH_SUITE=obs ./bench/bench_micro)
# Relative gate: don't regress the checked-in rows (generous tolerance —
# whole-machine cpu-time runs on a shared, often 1-core host).
python3 scripts/bench_compare.py \
  build-release/BENCH_obs.baseline.json \
  build-release/BENCH_obs.json \
  --metric cpu_ns_per_msg --tolerance 60
# Absolute gate (the acceptance bar): histograms-on pingpong <= 1.10x
# histograms-off pingpong in cpu time per message.
python3 scripts/bench_compare.py \
  build-release/BENCH_obs.baseline.json \
  build-release/BENCH_obs.json \
  --metric cpu_ns_per_msg --tolerance 60 \
  --max-ratio pingpong:obs_on/pingpong:obs_off=1.10

cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)"
ctest --preset tsan-obs

echo "obs CI: PASS"
