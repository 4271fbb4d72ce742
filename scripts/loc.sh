#!/usr/bin/env bash
# The simplicity numbers, reproducibly: non-blank, non-comment Rust
# lines per crate under src/ and crates/*/src, each file cut at its
# first #[cfg(test)], and the number of public fields (independently
# settable values) of the two config structs.
#
#   scripts/loc.sh [repo-root]     # default: this checkout
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

code_lines() { # <dir>: code lines of every .rs file under it
    find "$1" -name '*.rs' -print0 | xargs -0 -r awk '
        FNR == 1 { in_tests = 0 }
        /#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*($|\/\/)/ { next }
        { n++ }
        END { print n + 0 }'
}

pub_fields() { # <struct> <file>: `pub name:` lines inside `pub struct <struct> {`
    awk -v open="pub struct $1 {" '
        index($0, open) { inside = 1; next }
        inside && /^}/ { exit }
        inside && /^[[:space:]]*pub [a-z_0-9]+:/ { n++ }
        END { print n + 0 }' "$2"
}

total=0
for dir in src crates/*/src; do
    n=$(code_lines "$dir")
    total=$((total + n))
    printf '%-26s %6d\n' "$dir" "$n"
done
printf '%-26s %6d\n' "total" "$total"
printf '%-26s %6d\n' "FixpointConfig pub fields" \
    "$(pub_fields FixpointConfig crates/ldl-eval/src/naive.rs)"
printf '%-26s %6d\n' "OptConfig pub fields" \
    "$(pub_fields OptConfig crates/ldl-optimizer/src/opt.rs)"
