#!/usr/bin/env bash
# Link-time inventory: which pc:: library functions only tests reach.
#
# Builds the whole repository, and perfbench, unoptimised and without
# inlining, one section per function, and links every binary with
# --gc-sections, so each binary keeps exactly the functions its main
# can reach. Then it prints two lists of demangled names:
#
#   only tests reach    pc:: functions defined under src/ (header-inline
#                       code included) that some test binary links but no
#                       program does; programs are every bench, tool and
#                       example binary plus perfbench;
#   nothing reaches     pc:: functions of the src/ archives that no
#                       binary links at all.
#
# Usage: tools/inventory.sh BUILD_DIR [JOBS]
#
# BUILD_DIR is created if missing; the main tree builds in BUILD_DIR/main
# and perfbench in BUILD_DIR/perfbench. JOBS defaults to 4. The first
# list is a starting point for review, not a gate: a function only tests
# reach may still be worth keeping (a reference model, a crash hook).
# The second must be empty; CI fails when it is not.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 BUILD_DIR [JOBS]" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)
jobs=${2:-4}

flags=(-DCMAKE_BUILD_TYPE=None
       "-DCMAKE_CXX_FLAGS=-O0 -g -fno-inline -ffunction-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
echo "building $root into $out ..." >&2
cmake -S "$root" -B "$out/main" "${flags[@]}" >/dev/null
cmake --build "$out/main" -j "$jobs" >/dev/null
cmake -S "$root/perfbench" -B "$out/perfbench" "${flags[@]}" >/dev/null
cmake --build "$out/perfbench" -j "$jobs" --target perfbench >/dev/null

executables() {
    find "$@" -maxdepth 1 -type f -perm -u+x | sort
}
mapfile -t tests < <(executables "$out/main/tests")
mapfile -t programs < <(executables "$out/main/bench" "$out/main/tools" \
                                    "$out/main/examples"
                        echo "$out/perfbench/perfbench")
mapfile -t archives < <(find "$out/main/src" -name 'lib*.a' | sort)

# Defined text symbols (T/t/W/w) in namespace pc, one name per line.
pcText() {
    nm -C --defined-only "$@" 2>/dev/null |
        sed -nE 's/^[0-9a-f]+ [TtWw] (pc::.*)$/\1/p' | sort -u
}

# As pcText, restricted to functions whose definition lies under src/,
# less the instantiations of src/ templates for a test's own types.
pcTextFromSrc() {
    nm -C -l --defined-only "$@" 2>/dev/null |
        awk -F'\t' -v src="$root/src/" '
            $1 ~ /^[0-9a-f]+ [TtWw] pc::/ && index($2, src) == 1 &&
            index($1, "_Test::TestBody()") == 0 {
                sub(/^[0-9a-f]+ [TtWw] /, "", $1)
                print $1
            }' | sort -u
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
pcTextFromSrc "${tests[@]}" >"$tmp/tests"
pcText "${programs[@]}" >"$tmp/programs"
pcText "${archives[@]}" >"$tmp/archives"
sort -u "$tmp/tests" "$tmp/programs" <(pcText "${tests[@]}") >"$tmp/linked"
comm -23 "$tmp/tests" "$tmp/programs" >"$tmp/only_tests"
comm -23 "$tmp/archives" "$tmp/linked" >"$tmp/unreached"

echo "${#programs[@]} programs, ${#tests[@]} test binaries," \
     "${#archives[@]} archives"
echo
echo "== pc:: functions only tests reach ($(wc -l <"$tmp/only_tests"))"
cat "$tmp/only_tests"
echo
echo "== pc:: functions nothing reaches ($(wc -l <"$tmp/unreached"))"
cat "$tmp/unreached"
