#!/usr/bin/env bash
# Run named tests of one package under the race detector, after proving
# each name still exists:
#
#   named_tests.sh <package> <name>...
#
# `go test -run 'A|B'` passes when B has been renamed or deleted — it
# just runs fewer tests — which is how a gate stops being one without
# anyone seeing it. So `go test -list` is asked first, with the same
# pattern, and a name that matches no test fails the script. A name is
# a -run alternative: an unanchored regexp, so a shared prefix selects a
# family of tests.
set -euo pipefail

pkg="$1"
shift
pattern="$(IFS='|'; echo "$*")"
listed="$(go test -list "$pattern" "$pkg")"
for name in "$@"; do
    if ! grep -Eq -- "$name" <<<"$listed"; then
        echo "named_tests.sh: no test in $pkg matches '$name' (renamed or deleted?)" >&2
        exit 1
    fi
done
go test -race -count=1 -run "$pattern" "$pkg"
