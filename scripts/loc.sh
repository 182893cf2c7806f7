#!/usr/bin/env bash
# Non-test lines per crate: for every crates/*/src/*.rs and vendor/*/src/*.rs,
# the lines before its first `#[cfg(test)]`, summed per crate.
#
#   scripts/loc.sh          counts the working tree
#   scripts/loc.sh REF      also counts git REF and prints the delta
#
# Run from anywhere inside the repository.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

pattern='^(crates|vendor)/[^/]+/src/[^/]+\.rs$'
count='/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }'

# Prints "<crate dir> <lines>" for each file of the working tree.
tree_counts() {
    git ls-files --cached --others --exclude-standard -- crates vendor |
        grep -E "$pattern" | while read -r f; do
            [ -f "$f" ] && echo "${f%/src/*} $(awk "$count" "$f")"
        done
}

# Prints "<crate dir> <lines>" for each file at git ref $1.
ref_counts() {
    git ls-tree -r --name-only "$1" -- crates vendor |
        grep -E "$pattern" | while read -r f; do
            echo "${f%/src/*} $(git show "$1:$f" | awk "$count")"
        done
}

sum() { awk '{ s[$1] += $2 } END { for (c in s) print c, s[c] }' | sort; }

if [ $# -eq 0 ]; then
    tree_counts | sum | awk '
        { printf "%-24s %7d\n", $1, $2; t += $2 }
        END { printf "%-24s %7d\n", "total", t }'
else
    git rev-parse --verify --quiet "$1^{commit}" >/dev/null || {
        echo "loc.sh: unknown git ref \`$1'" >&2
        exit 2
    }
    join -a 1 -a 2 -e 0 -o 0,1.2,2.2 <(tree_counts | sum) <(ref_counts "$1" | sum) |
        awk -v ref="$1" '
            BEGIN { printf "%-24s %7s %7s %7s\n", "crate", "tree", ref, "delta" }
            { printf "%-24s %7d %7d %+7d\n", $1, $2, $3, $2 - $3; t += $2; r += $3 }
            END { printf "%-24s %7d %7d %+7d\n", "total", t, r, t - r }'
fi
