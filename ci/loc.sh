#!/bin/sh
# The one line counter both sides of a simplicity claim use: per file,
# everything before the top-level `#[cfg(test)]` (column 0 — an indented
# one gates an item, not the file's test module), minus blank lines and
# `//` comment lines. Prints one line per file under each directory
# given, a subtotal per directory, and the total.
#
#   sh ci/loc.sh crates/dynobs/src crates/dynamo/src
#   sh ci/loc.sh crates/*/src
cd "$(dirname "$0")/.." || exit 2
[ $# -gt 0 ] || set -- crates/*/src
total=0
for dir in "$@"; do
    sub=0
    for f in $(find "$dir" -name '*.rs' | sort); do
        n=$(awk '/^#\[cfg\(test\)\]/ { exit }
                 !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
                 END { print n + 0 }' "$f")
        printf '%6d  %s\n' "$n" "$f"
        sub=$((sub + n))
    done
    printf '%6d  %s (subtotal)\n' "$sub" "$dir"
    total=$((total + sub))
done
printf '%6d  total\n' "$total"
