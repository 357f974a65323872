#!/bin/sh
# CI job: multi-process machine layer — transport conformance, wire-codec
# torture, cross-backend bench gate.
#
# Phase 1 runs the tests carrying the `transport` CTest label under the
# release preset: the wire codec short-read/short-write torture (1-byte
# reads, partial writev mid-iovec, seeded fuzz over split points) and the
# conformance battery that drives an identical checklist against all three
# backends — in-process queues, shm SPSC rings, AF_UNIX sockets — in both
# loopback and true multi-process (forked) mode: per-pair ordering,
# exactly-once under seeded chaos, 1 MiB chunk/rendezvous round trips,
# migration mini-storms with all three techniques and bit-identical
# same-seed replay (including the 64-PE / 4-process acceptance shape), and
# an FT kill storm over the shm wire.
#
# Phase 1 then repeats the `transport` and `obs` labels 20 times each: a
# park/wake bug (a lost wake, a frame nobody drains) can pass many runs
# and then hang one.
#
# Phase 2 reruns the transport bench suite (64-byte flood and 1-deep
# ping-pong per backend, eager vs rendezvous scatter-gather image ships at
# 64 KiB–1 MiB) and gates three ways with bench_compare.py: the fresh rows
# must be within tolerance of the checked-in BENCH_transport.json; the shm
# ring must cost no more than 3x the in-process path per 64-byte message;
# and a 1-deep shm hop must cost no more than 10x an in-process hop. The
# last bar separates a receiver that is woken (0.3–4x on a 4-vCPU Xeon
# VM) from one that waits out a polling thread's sleep quantum (17–145x
# there). The rendezvous leg's zero-intermediate-copy property is asserted
# by the conformance tests (kWireRendezvous counter); the bench prints the
# same verdict for the log.
#
# Phase 3 repeats the conformance label under ThreadSanitizer: the
# fork-based legs are compiled out (tsan does not follow children), but
# loopback mode keeps the full ring/socket codec under the race detector.
set -eu
cd "$(dirname "$0")/.."

cmake --preset release
cmake --build --preset release -j"$(nproc)"
ctest --preset transport
ctest --test-dir build-release -L '^transport$' --repeat until-fail:20 \
  --output-on-failure
ctest --test-dir build-release -L '^obs$' --repeat until-fail:20 \
  --output-on-failure

cp BENCH_transport.json build-release/BENCH_transport.baseline.json
(cd build-release && MFC_BENCH_SUITE=transport ./bench/bench_micro)
# Relative gate: don't regress the checked-in rows (generous tolerance —
# these are whole-machine wall-clock runs on a shared, often 1-core host).
python3 scripts/bench_compare.py \
  build-release/BENCH_transport.baseline.json \
  build-release/BENCH_transport.json \
  --metric ns_per_msg --tolerance 50 --filter stream64
# Absolute gates: shm ring <= 3x in-process ns/msg at 64 bytes, and a
# 1-deep shm hop <= 10x an in-process hop.
python3 scripts/bench_compare.py \
  build-release/BENCH_transport.baseline.json \
  build-release/BENCH_transport.json \
  --metric ns_per_msg --filter stream64 --tolerance 50 \
  --max-ratio stream64:shm/stream64:inproc=3.0 \
  --max-ratio pingpong_1deep:shm/pingpong_1deep:inproc=10.0

cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)"
ctest --preset tsan-transport

echo "transport CI: PASS"
