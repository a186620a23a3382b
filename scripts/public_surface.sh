#!/usr/bin/env bash
# Public surface sized to its callers.
#
# For every crate under crates/, lists the `pub fn` names declared in its src/ that no
# .rs file outside the crate mentions as a whole word — not another crate, src/,
# tests/, examples/ or benchmark/ — and compares that list with
# scripts/public_surface.allow (one `crate name  # reason` line per entry, the crate
# named by its directory). Fails when a name is unreferenced but not allowlisted, and
# when an allowlisted name is no longer an unreferenced `pub fn` (called now, made
# private or deleted), so the allowlist cannot go stale.
#
# The check is by name, so it errs towards passing: a `pub fn new` is "referenced"
# wherever any `new` appears. A path it reads that is missing, or a crate that declares
# no `pub fn`, fails it: either would leave the check reading nothing there. Run it from
# anywhere: scripts/public_surface.sh
set -euo pipefail
export LC_ALL=C
cd "$(dirname "$0")/.."
allowlist=scripts/public_surface.allow
callers=(src tests examples benchmark/src benchmark/tests benchmark/build.rs)

for path in $(printf '%s/src\n' crates/*) "${callers[@]}"; do
    [ -e "$path" ] || {
        echo "$path is missing: the check would read nothing there" >&2
        exit 1
    }
done

# The `pub fn` names declared under a crate directory, once each; fails when there is none.
declared() {
    grep -rhoE --include='*.rs' '\bpub fn [A-Za-z_][A-Za-z0-9_]*' "$1/src" | awk '{ print $3 }' | sort -u
}

# Every identifier-like word in the .rs files under the given paths, once each.
words() {
    { grep -rhoE --include='*.rs' '[A-Za-z0-9_]+' "$@" || true; } | sort -u
}

unreferenced=$(
    for dir in crates/*; do
        names=$(declared "$dir") || {
            echo "$dir/src declares no pub fn" >&2
            exit 1
        }
        outside=("${callers[@]}")
        for other in crates/*; do
            [ "$other" = "$dir" ] || outside+=("$other")
        done
        comm -23 <(echo "$names") <(words "${outside[@]}") | sed "s|^|${dir#crates/} |"
    done | sort
)

entries=$(grep -vE '^[[:space:]]*(#|$)' "$allowlist" || true)
malformed=$(echo "$entries" | grep -vE '^[^ #]+ +[^ #]+ +# *[^ ]' || true)
if [ -n "$malformed" ]; then
    echo "every allowlist line is \`crate name  # reason\`:" >&2
    echo "$malformed" | sed 's/^/  /' >&2
    exit 1
fi
allowed=$(echo "$entries" | awk 'NF { print $1, $2 }' | sort)

unlisted=$(comm -23 <(echo "$unreferenced") <(echo "$allowed") | sed '/^$/d')
stale=$(comm -13 <(echo "$unreferenced") <(echo "$allowed") | sed '/^$/d')

echo "pub fn names with no reference outside their crate: $(echo "$unreferenced" | grep -c .)"
status=0
if [ -n "$unlisted" ]; then
    echo "not called outside their crate — call them, make them private, or delete them:" >&2
    echo "$unlisted" | sed 's/^/  /' >&2
    status=1
fi
if [ -n "$stale" ]; then
    echo "allowlisted but no longer an unreferenced pub fn — drop the entry:" >&2
    echo "$stale" | sed 's/^/  /' >&2
    status=1
fi
exit $status
