#!/bin/sh
# CI job: fault-tolerance suite — release, then ThreadSanitizer.
#
# Runs only the tests carrying the `ft` CTest label: the checkpoint codec
# fuzz (every truncation length, every single-byte flip), the seeded
# PE-kill storms over src/ft (heartbeat detection, buddy rollback, replay
# to a digest bit-identical with a failure-free run), and the cross-process
# storms of tests/ftx_test.cc (whole-process SIGKILL, zygote respawn,
# transport reattach, remote-buddy refill — shm and socket wires). The
# release pass includes the fork-based legs; under tsan those are compiled
# out and the same drivers run wire-loopback with PE-tier kills under full
# race checking. To replay a failing seed, prefix with MFC_CHAOS_SEED=<n>.
set -eu
cd "$(dirname "$0")/.."

cmake --preset release
cmake --build --preset release -j"$(nproc)"
ctest --preset ft
# Repeat leg: FT storms race kills against checkpoint streams and wakes;
# a protocol race can pass many runs and then hang one.
ctest --test-dir build-release -L '^ft$' --repeat until-fail:20 \
  --output-on-failure

# Cross-process leg, standalone and verbose: proc-kill storms on both
# wires plus the repeated re-kill of a respawned process. Run with a
# flight-recorder base name so the detection leaves per-process dumps,
# then validate them: a process-tier detection must have dumped at least
# process 0's box with reason "ft-proc-down".
rm -f build-release/ftx_flight.proc*.json
(cd build-release && MFC_FLIGHT_FILE=ftx_flight ./tests/ftx_test \
  --gtest_filter='Ftx.ShmProcKillStormDigestMatchesCalm:Ftx.SocketProcKillStormDigestMatchesCalm:Ftx.RespawnedProcessSurvivesRepeatedKills')
test -s build-release/ftx_flight.proc0.json || {
  echo "FAIL: proc-kill storm left no flight dump for process 0"; exit 1; }
grep -q '"reason":"ft-proc-down"' build-release/ftx_flight.proc0.json || {
  echo "FAIL: flight dump reason is not ft-proc-down"; exit 1; }

# Checkpoint-overhead gate: the 4-process shm storm with checkpoint-every-10
# must stay within 15% of the FT-off run (wall time — the workers are
# forked children, invisible to process CPU clocks). Also hold the fresh
# rows near the checked-in baseline, generously (shared 1-core CI hosts).
cp BENCH_ftx.json build-release/BENCH_ftx.baseline.json
(cd build-release && MFC_BENCH_SUITE=ftx ./bench/bench_micro)
python3 scripts/bench_compare.py \
  build-release/BENCH_ftx.baseline.json \
  build-release/BENCH_ftx.json \
  --metric seconds --tolerance 60 \
  --max-ratio ftx_storm:ckpt_every_10/ftx_storm:ckpt_off=1.15

cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)"
ctest --preset tsan-ft

# The incremental and async kill storms once more, standalone and verbose:
# a data race in the delta build/apply path or the async chunk reassembly
# would surface here with full output even if the label run's scheduling
# happened to hide it. (Under tsan the mprotect write barrier stays
# disarmed — deltas come from the content memcmp, which is the
# correctness-bearing path in release too.)
(cd build-tsan && ./tests/ft_storm_test \
  --gtest_filter='FtStorm.Incremental*:FtStorm.Async*:FtStorm.Stationary*')

# The loopback wire leg once more under tsan: PE-tier kills with every
# cross-PE message — span-shipped buddy stores included — on the socket
# codec, under the race detector.
(cd build-tsan && ./tests/ftx_test \
  --gtest_filter='Ftx.Loopback*')
