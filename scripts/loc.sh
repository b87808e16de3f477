#!/usr/bin/env bash
# The two line counts ROADMAP's re-anchors track:
#   1. every .rs, .sh, .yml and .toml line outside perf/;
#   2. per crate, the non-test lines of src/: each file's lines above its
#      `#[cfg(test)]` module (the whole file when it has none). The root
#      package's src/ is listed as `.`.
#
#   scripts/loc.sh         # the working tree (tracked and unignored files)
#   scripts/loc.sh <rev>   # a commit, e.g. `scripts/loc.sh HEAD~1`
set -euo pipefail
cd "$(dirname "$0")/.."
rev=${1:-}

files() {
    if [ -n "$rev" ]; then
        git ls-tree -r --name-only "$rev"
    else
        git ls-files --cached --others --exclude-standard --deduplicate
    fi
}

show() {
    if [ -n "$rev" ]; then git show "$rev:$1"; else cat "$1"; fi
}

mapfile -t all < <(files | grep -Ev '^perf/' | grep -E '\.(rs|sh|yml|toml)$')
total=0
declare -A crate_lines
for f in "${all[@]}"; do
    [ -n "$rev" ] || [ -f "$f" ] || continue # deleted, not yet staged
    n=$(show "$f" | wc -l)
    total=$((total + n))
    case $f in
    crates/*/src/*.rs) crate=${f#crates/} crate=${crate%%/*} ;;
    src/*.rs) crate=. ;;
    *) continue ;;
    esac
    body=$(show "$f" | awk '/^#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print n + 0 }')
    crate_lines[$crate]=$((${crate_lines[$crate]:-0} + body))
done

echo "non-perf .rs/.sh/.yml/.toml lines: $total"
echo "non-test src/ lines per crate:"
sum=0
for crate in $(printf '%s\n' "${!crate_lines[@]}" | sort); do
    printf '  %-10s %6d\n' "$crate" "${crate_lines[$crate]}"
    sum=$((sum + ${crate_lines[$crate]}))
done
printf '  %-10s %6d\n' total "$sum"
