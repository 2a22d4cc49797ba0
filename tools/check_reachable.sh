#!/usr/bin/env bash
# Reachability check: fails when an external function defined in src/ is
# linked into none of the shipped binaries.
#
# The shipped binaries are the examples (examples/*.cpp), the benches
# (bench/bench_*.cpp) and the end-to-end benchmark package (bench_e2e,
# bench_compare). The script builds only those, at -O0 -fno-inline with one
# section per function, and links them with --gc-sections, so a function
# survives in a binary only if something the binary runs refers to it. Every
# global text symbol (nm type T) of build/src/libfca_*.a that is in no binary
# and not on tools/reachable_allowlist.txt is reported, and the script exits 1.
#
# Keep the build at -O0 -fno-inline: with optimization, a function inlined
# into its only caller (or called through an IPA clone) leaves its own section
# unreferenced and reads as unreachable although it runs.
#
# Out of view: inline functions, templates and functions defined in headers
# (weak or local symbols, not T), and file-local functions (static or in an
# anonymous namespace). A dead one of those is not reported.
#
# Usage: tools/check_reachable.sh [build-dir]   (default: build-reach)
# The allowlist holds one demangled symbol per line; text after '#' is the
# reason it stays although no shipped binary reaches it.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=$(realpath -m "${1:-$root/build-reach}")
jobs=$(nproc)
allowlist=$root/tools/reachable_allowlist.txt

cfg=(-DCMAKE_BUILD_TYPE=Debug
     "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -fno-inline -ffunction-sections -fdata-sections"
     "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

shipped=() bins=()
for f in "$root"/examples/*.cpp "$root"/bench/bench_*.cpp; do
  t=$(basename "$f" .cpp)
  shipped+=("$t")
  bins+=("$out/main/$(basename "$(dirname "$f")")/$t")
done
bins+=("$out/e2e/bench_e2e" "$out/e2e/bench_compare")

cmake -S "$root" -B "$out/main" "${cfg[@]}" > /dev/null
cmake --build "$out/main" -j "$jobs" --target "${shipped[@]}"
cmake -S "$root/bench_e2e" -B "$out/e2e" "${cfg[@]}" > /dev/null
cmake --build "$out/e2e" -j "$jobs" --target bench_e2e bench_compare

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Mangled names carry no spaces, so compare those and demangle at the end.
for b in "${bins[@]}"; do
  [[ -x $b ]] || { echo "check_reachable: missing binary $b" >&2; exit 2; }
  nm --defined-only "$b" | awk '$2 ~ /^[TtWwi]$/ { print $3 }'
done | sort -u > "$tmp/linked"
nm --defined-only "$out"/main/src/libfca_*.a 2> /dev/null |
  awk '$2 == "T" { print $3 }' | sort -u > "$tmp/defined"
sed 's/[[:space:]]*#.*$//; /^$/d' "$allowlist" | sort -u > "$tmp/allowed"

comm -23 "$tmp/defined" "$tmp/linked" | c++filt | sort -u > "$tmp/unreached"
comm -23 "$tmp/unreached" "$tmp/allowed" > "$tmp/new"
comm -13 "$tmp/unreached" "$tmp/allowed" > "$tmp/stale"

status=0
if [[ -s $tmp/new ]]; then
  echo "check_reachable: $(wc -l < "$tmp/new") src/ function(s) no shipped binary links:"
  sed 's/^/  /' "$tmp/new"
  echo "Delete them, or add each to tools/reachable_allowlist.txt with a reason."
  status=1
fi
if [[ -s $tmp/stale ]]; then
  echo "check_reachable: allowlist entries that are reached or gone (remove them):"
  sed 's/^/  /' "$tmp/stale"
  status=1
fi
if [[ $status -eq 0 ]]; then
  echo "check_reachable: ok ($(wc -l < "$tmp/defined") src/ functions," \
       "$(wc -l < "$tmp/allowed") allowlisted)"
fi
exit $status
