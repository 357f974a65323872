#!/bin/sh
# CI job: storm stress suite and chare-array suites, repeated in release,
# then the storm suite under ThreadSanitizer.
#
# Runs only the tests carrying the `stress` CTest label (the chaos storm
# suite). The suite pins a fixed seed matrix (101 / 202 / 303, each on
# in-process queues and on the shm wire in loopback) plus a 101-round
# full-chaos acceptance storm, so interleaving regressions fail
# deterministically rather than flaking. The release leg repeats the suite
# until it fails, up to 10 times: the hostile storms ship every image
# through the scatter-gather send path under full chaos. To replay a seed a
# failing log printed, prefix with MFC_CHAOS_SEED=<n> (see EXPERIMENTS.md).
# The `charm` leg repeats the chare-array suites (location hints, the
# delayed-delivery and rollback routing tests, and the integration suite's
# randomized migration storms) until one fails, up to 50 times.
set -eu
cd "$(dirname "$0")/.."
cmake --preset release
cmake --build --preset release -j"$(nproc)"
ctest --preset stress --repeat until-fail:10
ctest --preset charm --repeat until-fail:50

cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)"
ctest --preset tsan-stress
