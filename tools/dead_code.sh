#!/usr/bin/env bash
# Dead-code gate: every function defined in src/ must be kept by some
# production binary (tools, benches, examples, sharebench), or be named
# in tools/dead_code_allowlist.txt with a reason.
#
# Builds the non-test targets of the root project, and sharebench through
# its own CMakeLists, at -O0 with -ffunction-sections/-fdata-sections and
# links them with -Wl,--gc-sections, so the linker drops every function no
# binary reaches. -O0 keeps inlining from hiding a reached function. The
# sharoes:: text symbols defined in the src/ objects, minus the ones any
# binary keeps, are the dead code. Template instantiations are left out:
# they exist only where something instantiates them.
#
#   tools/dead_code.sh    # builds in a throwaway tree under $TMPDIR
#
# Exits 1 when a dead function is not allowlisted, or when an allowlist
# entry no longer names a dead function.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
ALLOW="$ROOT/tools/dead_code_allowlist.txt"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/dead_code.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

JOBS="$(nproc 2>/dev/null || echo 2)"
FLAGS=(-G "Unix Makefiles"
       -DCMAKE_BUILD_TYPE=Debug
       "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

echo "dead_code: building in $WORK" >&2
cmake -S "$ROOT" -B "$WORK/root" "${FLAGS[@]}" > /dev/null
# Every directory but tests/ holds only production targets.
for dir in bench examples tools; do
  make -s -C "$WORK/root/$dir" -j "$JOBS" all > /dev/null
done
cmake -S "$ROOT/sharebench" -B "$WORK/sharebench" "${FLAGS[@]}" > /dev/null
make -s -C "$WORK/sharebench" -j "$JOBS" sharebench > /dev/null

# Reads `nm -C --defined-only` output; prints the signatures of the
# sharoes:: functions, skipping every name that carries template
# arguments (the < of operator<, <<, <= and <=> does not count).
function_names() {
  awk '$2 ~ /^[TtWw]$/ { sub(/^[^ ]* [^ ]* /, ""); print }' \
    | grep '^sharoes::' \
    | sed 's/operator<=>/operator\x01/g; s/operator<</operator\x02/g;
           s/operator<=/operator\x03/g; s/operator</operator\x04/g' \
    | grep -v '^[^(]*<' \
    | sed 's/\x01/<=>/g; s/\x02/<</g; s/\x03/<=/g; s/\x04/</g' \
    | sort -u
}

mapfile -t BINS < <(find "$WORK/root/bench" "$WORK/root/examples" \
                         "$WORK/root/tools" -maxdepth 1 -type f -perm -u+x;
                    echo "$WORK/sharebench/sharebench")
nm -C --defined-only "${BINS[@]}" | function_names > "$WORK/kept.txt"
find "$WORK/root/src" -name '*.o' -print0 \
  | xargs -0 nm -C --defined-only | function_names > "$WORK/defined.txt"
comm -23 "$WORK/defined.txt" "$WORK/kept.txt" > "$WORK/dead.txt"

# Allowlist lines are `<name> | <reason> | <tests>`; a name covers every
# dead overload of that function.
awk -F ' [|] ' '
  # The function name: the signature without its (balanced) parameter
  # list and trailing qualifiers.
  function name_of(sig,   end, i, depth, c) {
    for (end = length(sig); end > 0 && substr(sig, end, 1) != ")"; end--) {}
    for (i = end; i > 0; i--) {
      c = substr(sig, i, 1)
      if (c == ")") depth++
      if (c == "(" && --depth == 0) return substr(sig, 1, i - 1)
    }
    return sig
  }
  FILENAME == ARGV[1] {
    if ($0 ~ /^[[:space:]]*(#|$)/) next
    if (NF != 3 || $2 == "" || $3 == "") {
      print "BADLINE  " $0 " (want <name> | <reason> | <tests>)"
      status = 1
      next
    }
    reason[$1] = $2 " [" $3 "]"
    next
  }
  {
    name = name_of($0)
    if (name in reason) {
      print "allowed  " name ": " reason[name]
      used[name] = 1
    } else {
      print "DEAD     " $0
      status = 1
    }
  }
  END {
    for (name in reason) {
      if (!(name in used)) {
        print "STALE    " name " (allowlisted, but a production binary" \
              " keeps it or it no longer exists)"
        status = 1
      }
    }
    exit status
  }' "$ALLOW" "$WORK/dead.txt" && status=0 || status=$?

if [[ $status -ne 0 ]]; then
  echo "dead_code: FAIL. Delete what no production binary calls, or" \
       "allowlist it with a reason in tools/dead_code_allowlist.txt." >&2
else
  echo "dead_code: OK ($(wc -l < "$WORK/dead.txt") allowlisted of" \
       "$(wc -l < "$WORK/defined.txt") functions in src/)" >&2
fi
exit $status
