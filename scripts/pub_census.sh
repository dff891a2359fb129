#!/usr/bin/env sh
# Caller census: every `pub` item declared under crates/*/src whose name
# appears in no .rs file outside its crate, as sorted `crate item` lines.
#
# "Outside" is every other crate under crates/, plus the root package
# (src/, tests/, examples/) and the benchmark package (benchmark/src,
# benchmark/tests).  Names are matched as whole words, so a type named
# only in another crate's signatures counts as used, and a name that
# some other item shares hides an unused one: the census is a ratchet,
# not a proof.  check.sh diffs it against the committed pub_census.txt.
#
#   sh scripts/pub_census.sh > pub_census.txt   # accept the current set
set -eu
export LC_ALL=C

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Identifier sets: one per crate, one for everything outside crates/.
words() {
    find "$@" -name '*.rs' -type f -exec cat {} + 2>/dev/null |
        grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u
}
words src tests examples benchmark/src benchmark/tests > "$tmp/root.words"
for dir in crates/*/; do
    c="$(basename "$dir")"
    words "$dir" > "$tmp/$c.words"
done

for dir in crates/*/; do
    c="$(basename "$dir")"
    find "$dir/src" -name '*.rs' -type f -exec cat {} + |
        sed -nE 's/^[[:space:]]*pub (const |unsafe |async )*(fn|struct|enum|trait|const|static|type|mod) (r#)?([A-Za-z_][A-Za-z0-9_]*).*/\4/p' |
        sort -u > "$tmp/$c.items"
    for other in "$tmp"/*.words; do
        [ "$other" = "$tmp/$c.words" ] || cat "$other"
    done | sort -u > "$tmp/outside"
    comm -23 "$tmp/$c.items" "$tmp/outside" | sed "s/^/$c /"
done | sort
