#!/usr/bin/env sh
# Net change in non-blank Rust lines under crates/ src/ tests/ examples/
# between revision BASE (default HEAD) and the working tree, printed as
#
#   non-test <+/-N>
#   test <+/-N>
#
# Test lines are every line of a file under a `tests/` directory plus each
# file's tail from its first top-level `#[cfg(test)]` line on. Both sides
# are counted from whole files, so moved code nets out.
#
# Usage: scripts/loc.sh [BASE]
set -eu

cd "$(dirname "$0")/.."
base="${1:-HEAD}"
dirs="crates src tests examples"

# Reads .rs paths on stdin and prints "<non-test> <test>" line totals.
count() {
    xargs -r awk '
        FNR == 1 { tail = 0; whole = (FILENAME ~ /(^|\/)tests\//) }
        /^#\[cfg\(test\)\]/ { tail = 1 }
        NF > 0 { if (whole || tail) t++; else n++ }
        END { print n + 0, t + 0 }
    ' | awk '{ n += $1; t += $2 } END { print n + 0, t + 0 }'
}

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
git archive "$base" -- $dirs | tar -x -C "$tmp"
old="$(cd "$tmp" && find $dirs -name '*.rs' -type f | count)"
new="$(git ls-files --cached --others --exclude-standard -- $dirs |
    grep '\.rs$' | while read -r f; do [ -f "$f" ] && echo "$f"; done | count)"

set -- $old $new
printf 'non-test %+d\ntest %+d\n' $(($3 - $1)) $(($4 - $2))
