#!/usr/bin/env bash
# Tier-1 verify: configure, build, and run the full ctest suite.
# This is the CI entry point; it exits non-zero as soon as any stage fails.
#
# Usage: tools/run_tier1.sh [--asan | --tsan] [--strict] [build-dir]
#   --asan      build and test with AddressSanitizer + UBSan, including
#               float-cast-overflow, which gcc's -fsanitize=undefined
#               leaves out (default build dir then becomes "build-asan")
#   --tsan      build and test with ThreadSanitizer — the configuration
#               the batch/serve determinism suites run under in CI
#               (default build dir then becomes "build-tsan")
#   --strict    configure with -DGEER_CI_STRICT=ON (warnings are errors;
#               what the CI workflow passes)
#   build-dir   defaults to "build" (relative to the repo root)
#
# Environment:
#   JOBS          parallelism for build and ctest (default: nproc)
#   CTEST_FILTER  optional ctest -R regex; applied UNIFORMLY in every
#                 mode — plain, --asan and --tsan all honor it the same
#                 way (e.g. CTEST_FILTER='(batch|serve)_determinism' for
#                 the TSan CI job). Default runs everything.
#   GEER_NO_CCACHE  set to 1 to skip the automatic ccache compiler
#                 launcher (used whenever ccache is on PATH)

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"

ASAN=0
TSAN=0
STRICT=0
BUILD_DIR=""
for arg in "$@"; do
  case "$arg" in
    --asan) ASAN=1 ;;
    --tsan) TSAN=1 ;;
    --strict) STRICT=1 ;;
    -*) echo "unknown flag: $arg" >&2; exit 2 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done
if [[ "$ASAN" == 1 && "$TSAN" == 1 ]]; then
  echo "--asan and --tsan are mutually exclusive" >&2
  exit 2
fi

CMAKE_ARGS=()
if [[ "$ASAN" == 1 ]]; then
  BUILD_DIR="${BUILD_DIR:-build-asan}"
  SAN_FLAGS="-fsanitize=address,undefined,float-cast-overflow -fno-sanitize-recover=all -fno-omit-frame-pointer"
  CMAKE_ARGS+=("-DCMAKE_CXX_FLAGS=${SAN_FLAGS}"
               "-DCMAKE_EXE_LINKER_FLAGS=${SAN_FLAGS}")
elif [[ "$TSAN" == 1 ]]; then
  BUILD_DIR="${BUILD_DIR:-build-tsan}"
  SAN_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
  CMAKE_ARGS+=("-DCMAKE_CXX_FLAGS=${SAN_FLAGS}"
               "-DCMAKE_EXE_LINKER_FLAGS=${SAN_FLAGS}")
else
  BUILD_DIR="${BUILD_DIR:-build}"
fi
if [[ "$STRICT" == 1 ]]; then
  CMAKE_ARGS+=("-DGEER_CI_STRICT=ON")
fi
if [[ "${GEER_NO_CCACHE:-0}" != 1 ]] && command -v ccache >/dev/null 2>&1; then
  CMAKE_ARGS+=("-DCMAKE_CXX_COMPILER_LAUNCHER=ccache")
fi

cd "$REPO_ROOT"

echo "== tier-1: configure (${BUILD_DIR}) =="
# ${arr[@]+...} guard: expanding an empty array trips `set -u` on
# bash < 4.4 (e.g. macOS /bin/bash 3.2).
cmake -B "$BUILD_DIR" -S . ${CMAKE_ARGS[@]+"${CMAKE_ARGS[@]}"}

echo "== tier-1: build (-j${JOBS}) =="
cmake --build "$BUILD_DIR" -j "$JOBS"

CTEST_ARGS=(--output-on-failure -j "$JOBS")
if [[ -n "${CTEST_FILTER:-}" ]]; then
  CTEST_ARGS+=(-R "$CTEST_FILTER")
fi

echo "== tier-1: ctest (-j${JOBS}${CTEST_FILTER:+, -R $CTEST_FILTER}) =="
# cd instead of `ctest --test-dir`: the latter needs CTest >= 3.20 while
# the build itself accepts CMake 3.16.
(cd "$BUILD_DIR" && ctest "${CTEST_ARGS[@]}")

echo "== tier-1: PASS =="
