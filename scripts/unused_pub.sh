#!/usr/bin/env sh
# Name-level audit of the library's public items.
#
# For every `pub` fn, struct, enum, trait, type, const or static declared
# in a library source file (crates/*/src, src) above that file's first
# top-level `#[cfg(test)]` line, prints
#
#   <path> <name>
#
# when no other .rs file under crates src tests examples perfbench
# mentions the name as a whole word. A listed item is used, if at all,
# only inside its own file (its own unit tests included). The check is by
# name, so an item that shares its name with another one is never listed.
#
# Usage: scripts/unused_pub.sh
set -eu

cd "$(dirname "$0")/.."
dirs="crates src tests examples perfbench"

find crates/*/src src -name '*.rs' -type f | sort | while read -r file; do
    awk '
        /^#\[cfg\(test\)\]/ { exit }
        {
            line = $0
            sub(/^[ \t]*/, "", line)
            if (line !~ /^pub /) next
            sub(/^pub /, "", line)
            while (line ~ /^(const|unsafe|async|extern "[^"]*") +(fn|const|unsafe|async|extern) /)
                sub(/^(const|unsafe|async|extern "[^"]*") +/, "", line)
            if (line !~ /^(fn|struct|enum|trait|type|const|static) +(mut +)?[A-Za-z_][A-Za-z0-9_]*/) next
            sub(/^(fn|struct|enum|trait|type|const|static) +(mut +)?/, "", line)
            match(line, /^[A-Za-z_][A-Za-z0-9_]*/)
            print substr(line, 1, RLENGTH)
        }
    ' "$file" | sort -u | while read -r name; do
        if ! grep -rlw --include='*.rs' --exclude-dir=target -- "$name" $dirs |
            grep -qvx -- "$file"; then
            echo "$file $name"
        fi
    done
done
