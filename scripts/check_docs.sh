#!/bin/sh
# Docs lint, two vocabularies, each compared in both directions:
#   - the closed metric vocabulary in src/obs/ against the catalogue in
#     OBSERVABILITY.md;
#   - the FrameType enumerators in src/p3s/messages.hpp against the
#     `kName (n)` frame entries in PROTOCOL.md.
# Run from anywhere: `sh scripts/check_docs.sh [repo-root]`.
# Registered with ctest as `check_docs`.
set -eu

root="${1:-$(dirname "$0")/..}"

for f in src/obs OBSERVABILITY.md src/p3s/messages.hpp PROTOCOL.md; do
  if [ ! -e "$root/$f" ]; then
    echo "check_docs: cannot find $f under '$root'" >&2
    exit 2
  fi
done

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

# compare <what> <code file> <docs file> <code source> <docs source>
# Both files hold sorted, unique entries.
failed=0
compare() {
  if cmp -s "$2" "$3"; then
    echo "check_docs: OK ($(wc -l < "$2" | tr -d ' ') $1 in sync)"
    return
  fi
  failed=1
  echo "check_docs: $4 and $5 disagree on $1" >&2
  only_code="$(comm -23 "$2" "$3")"
  only_docs="$(comm -13 "$2" "$3")"
  if [ -n "$only_code" ]; then
    echo "--- in $4 but missing from $5:" >&2
    echo "$only_code" >&2
  fi
  if [ -n "$only_docs" ]; then
    echo "--- in $5 but not declared in $4:" >&2
    echo "$only_docs" >&2
  fi
}

# Metric names declared in code: every quoted "p3s.x.y" literal in src/obs/
# (catalog.hpp is the single declaration point by convention).
grep -rhoE '"p3s\.[a-z0-9_.]+"' "$root/src/obs" \
  | tr -d '"' | sort -u > "$tmpdir/metrics_code"

# Metric names documented: every backticked `p3s.x.y...` in OBSERVABILITY.md.
# The pattern stops before '{' so labeled references collapse to the base
# name.
grep -hoE '`p3s\.[a-z0-9_.]+' "$root/OBSERVABILITY.md" \
  | tr -d '`' | sort -u > "$tmpdir/metrics_docs"

compare "metric names" "$tmpdir/metrics_code" "$tmpdir/metrics_docs" \
  "src/obs/" "OBSERVABILITY.md"

# Frame types declared in code: `kName = n,` lines inside the FrameType enum.
sed -n '/^enum class FrameType/,/^};/p' "$root/src/p3s/messages.hpp" \
  | sed -nE 's/^[[:space:]]*(k[A-Za-z0-9]+)[[:space:]]*=[[:space:]]*([0-9]+),.*/\1 \2/p' \
  | sort -u > "$tmpdir/frames_code"

# Frame types documented: every backticked `kName (n)` in PROTOCOL.md.
# Retired numbers are written another way there, so they count as neither.
grep -hoE '`k[A-Za-z0-9]+ \([0-9]+\)`' "$root/PROTOCOL.md" \
  | sed -E 's/^`(k[A-Za-z0-9]+) \(([0-9]+)\)`$/\1 \2/' \
  | sort -u > "$tmpdir/frames_docs"

compare "frame types" "$tmpdir/frames_code" "$tmpdir/frames_docs" \
  "src/p3s/messages.hpp" "PROTOCOL.md"

exit "$failed"
