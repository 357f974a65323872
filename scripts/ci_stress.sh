#!/bin/sh
# CI job: storm stress suite, repeated in release, then under ThreadSanitizer.
#
# Runs only the tests carrying the `stress` CTest label (the chaos storm
# suite). The suite pins a fixed seed matrix (101 / 202 / 303, each on
# in-process queues and on the shm wire in loopback) plus a 101-round
# full-chaos acceptance storm, so interleaving regressions fail
# deterministically rather than flaking. The release leg repeats the suite
# until it fails, up to 10 times: the hostile storms ship every image
# through the scatter-gather send path under full chaos. To replay a seed a
# failing log printed, prefix with MFC_CHAOS_SEED=<n> (see EXPERIMENTS.md).
set -eu
cd "$(dirname "$0")/.."
cmake --preset release
cmake --build --preset release -j"$(nproc)"
ctest --preset stress --repeat until-fail:10

cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)"
ctest --preset tsan-stress
