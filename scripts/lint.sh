#!/bin/sh
# Build and run the p3s-lint static analyzer over src/.
#
#   sh scripts/lint.sh [repo-root] [extra p3s-lint args...]
#       lint the tree (exit 1 on findings); extra args are passed through,
#       e.g. `sh scripts/lint.sh . --format=sarif > lint.sarif`
#   sh scripts/lint.sh --selftest [repo-root]
#       run the seeded-fixture selftest
#
# The tool is a single standalone C++20 binary (tools/p3s-lint/, no
# dependencies). This script configures tools/p3s-lint on its own into
# build/lint/, so it needs only cmake and a compiler; CMake rebuilds the
# binary when a source changes (via ccache when available) and its output goes
# to stderr, leaving stdout to the report. The whole-tree run is held to a
# wall-clock budget (P3S_LINT_BUDGET seconds, default 10) so the analyzer stays
# pre-commit-fast. CI runs both modes as required steps; ctest's `lint` and
# `lint_selftest` run the main build's p3s-lint target with the same arguments.
set -eu

mode=lint
if [ "${1:-}" = "--selftest" ]; then
  mode=selftest
  shift
fi
root="${1:-$(dirname "$0")/..}"
if [ $# -gt 0 ]; then shift; fi
root="$(cd "$root" && pwd)"

tool_src="$root/tools/p3s-lint"
if [ ! -f "$tool_src/CMakeLists.txt" ]; then
  echo "lint.sh: cannot find tools/p3s-lint under '$root'" >&2
  exit 2
fi

bin_dir="$root/build/lint"
launcher=""
if command -v ccache >/dev/null 2>&1; then
  launcher="-DCMAKE_CXX_COMPILER_LAUNCHER=ccache"
fi
cmake -S "$tool_src" -B "$bin_dir" $launcher >&2
cmake --build "$bin_dir" >&2
bin="$bin_dir/p3s-lint"

if [ "$mode" = "selftest" ]; then
  exec "$bin" --selftest "$tool_src/selftest"
fi
exec "$bin" --root "$root" --budget-seconds "${P3S_LINT_BUDGET:-10}" "$@"
