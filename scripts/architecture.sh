#!/usr/bin/env bash
# The architecture's rules, checked.
#
# Reads scripts/architecture.rules (its header gives the format): one row per check,
# under the rule it keeps. A row fails when a path it names does not exist, when the fn
# or struct its scope names is not there, or when the lines in scope that match its
# pattern break its expectation. Exits 1 when any row fails, 2 on a malformed table.
#
#   scripts/architecture.sh               checks every row on this tree
#   scripts/architecture.sh --self-test   proves every row can fail, on a copy of the
#       files the rules read: each row's planted line, added to the first file the row
#       reads, must fail that row and no other; a row whose first path is named
#       literally must fail when that path is moved; and scripts/public_surface.sh must
#       fail on an unreferenced `pub fn` and on a missing directory it reads.
#
# Run it from anywhere. Needs bash 4, GNU grep and a POSIX awk.
set -euo pipefail
export LC_ALL=C
shopt -s nullglob globstar
cd "$(dirname "$0")/.."
table=scripts/architecture.rules

if [ $# -gt 1 ] || [ "${1---self-test}" != --self-test ]; then
    echo "usage: scripts/architecture.sh [--self-test]" >&2
    exit 2
fi

# One entry per row, indexed alike.
rule=() at=() paths=() excepts=() mode=() kind=() name=() op=() limit=() pattern=() plant=()
# What the row functions below hand each other: a row's files, its hits, why it fails;
# and, during the self-test's plantings, what each row reads.
files=() hits='' reason='' reads=()

malformed() {
    echo "$table:$1: $2" >&2
    exit 2
}

# Parses the table into the arrays above.
parse() {
    local number=0 line key value current='' rows=0 i=-1 m o k n p extra
    while IFS= read -r line || [ -n "$line" ]; do
        number=$((number + 1))
        line=${line#"${line%%[![:space:]]*}"}
        line=${line%"${line##*[![:space:]]}"}
        case $line in '' | '#'*) continue ;; esac
        if [[ $line == '['*']' ]]; then
            [ -z "$current" ] || [ "$rows" -gt 0 ] || malformed "$number" "[$current] has no row"
            current=${line:1:${#line}-2}
            rows=0
            [ -n "$current" ] || malformed "$number" "a rule needs a name"
            continue
        fi
        key=${line%%[[:space:]]*}
        value=${line#"$key"}
        value=${value#"${value%%[![:space:]]*}"}
        [ -n "$value" ] || malformed "$number" "\`$key\` has no value"
        if [ "$key" = path ]; then
            [ -n "$current" ] || malformed "$number" "a row before any [rule]"
            [ "$i" -lt 0 ] || complete "$i"
            i=$((i + 1))
            rows=$((rows + 1))
            rule[i]=$current at[i]=$number paths[i]=$value excepts[i]='' mode[i]=''
            kind[i]='' name[i]='' op[i]='' limit[i]='' pattern[i]='' plant[i]=''
            continue
        fi
        [ "$i" -ge 0 ] || malformed "$number" "\`$key\` before any \`path\`"
        case $key in
            except)
                [ -z "${excepts[i]}" ] || malformed "$number" "a second \`except\`"
                excepts[i]=$value
                ;;
            scope)
                [ -z "${mode[i]}" ] || malformed "$number" "a second \`scope\`"
                read -r m o k n extra <<<"$value"
                case "$m $o $k $n ${extra:-}" in
                    'file    ' | 'above-tests    ') ;;
                    'above-tests inside '[fs]*' '?*' ' | 'above-tests outside '[fs]*' '?*' ') m=$o ;;
                    *) m='' ;;
                esac
                [[ $k =~ ^(fn|struct|)$ && $n =~ ^[A-Za-z_0-9]*$ && -n $m ]] ||
                    malformed "$number" "scope is \`file\` or \`above-tests [inside|outside fn|struct NAME]\`"
                mode[i]=$m kind[i]=$k name[i]=$n
                ;;
            absent | count)
                [ -z "${op[i]}" ] || malformed "$number" "a second expectation"
                if [ "$key" = absent ]; then
                    o='=' n=0 p=$value
                else
                    read -r o n p <<<"$value"
                fi
                case $o in '=' | '≤') ;; *) malformed "$number" "a count is \`= N\` or \`≤ N\`" ;; esac
                [[ $n =~ ^[0-9]+$ ]] || malformed "$number" "\`$n\` is not a count"
                [ -n "$p" ] || malformed "$number" "no pattern"
                grep -qE -- "$p" /dev/null 2>/dev/null || [ $? -eq 1 ] ||
                    malformed "$number" "grep refuses the pattern \`$p\`"
                op[i]=$o limit[i]=$n pattern[i]=$p
                ;;
            plant)
                [ -z "${plant[i]}" ] || malformed "$number" "a second \`plant\`"
                plant[i]=$value
                ;;
            *) malformed "$number" "unknown key \`$key\`" ;;
        esac
    done <"$table"
    [ "$i" -ge 0 ] || malformed "$number" "no row"
    [ "$rows" -gt 0 ] || malformed "$number" "[$current] has no row"
    complete "$i"
}

complete() {
    local missing=''
    [ -n "${mode[$1]}" ] || missing+=' scope'
    [ -n "${op[$1]}" ] || missing+=' absent/count'
    [ -n "${plant[$1]}" ] || missing+=' plant'
    [ -z "$missing" ] || malformed "${at[$1]}" "the row lacks:$missing"
}

# The files matching a path of the table, one a line: a directory's files, recursively,
# or a glob's matches. Fails when nothing matches.
expand() {
    local entry=$1 match
    local -a matches=($entry)
    [ ${#matches[@]} -gt 0 ] && [ -e "${matches[0]}" ] || return 1
    for match in "${matches[@]}"; do
        if [ -d "$match" ]; then
            find "$match" -type f | sort
        else
            echo "$match"
        fi
    done
}

# Fills `files` with what row $1 reads, in the table's order, or sets `reason` and fails.
# Takes the list from `reads` while the self-test holds one there.
row_files() {
    local entry listed skip=''
    if [ -n "${reads[$1]-}" ]; then
        mapfile -t files <<<"${reads[$1]}"
        return
    fi
    files=()
    for entry in ${excepts[$1]}; do
        listed=$(expand "$entry") || { reason="no such path: $entry"; return 1; }
        skip+=$listed$'\n'
    done
    for entry in ${paths[$1]}; do
        listed=$(expand "$entry") || { reason="no such path: $entry"; return 1; }
        mapfile -t -O "${#files[@]}" files <<<"$listed"
    done
    mapfile -t files < <(printf '%s\n' "${files[@]}" | awk -v skip="$skip" '
        BEGIN { n = split(skip, s, "\n"); for (k = 1; k <= n; k++) drop[s[k]] = 1 }
        !seen[$0]++ && !($0 in drop)')
    [ ${#files[@]} -gt 0 ] || { reason="reads no file"; return 1; }
}

# Prints a file's lines in scope, and an empty line in place of each one out of scope, up
# to the `#[cfg(test)]` line. Exits 3 when the file holds no body of the fn or struct the
# scope names. `mode` is inside or outside; `kind` and `name` name the body.
scope_awk='
BEGIN { start = "(^|[^A-Za-z0-9_])" kind " " name "([^A-Za-z0-9_]|$)" }
/^#\[cfg\(test\)\]/ { exit }
!inside && $0 ~ start {
    found = 1
    match($0, /^[ \t]*/)
    closing = substr($0, 1, RLENGTH) "}"
    # A body on one line, or a declaration with none, ends where it starts.
    inside = $0 !~ /[};][ \t]*$/
    print mode == "inside" ? $0 : ""
    next
}
inside && $0 == closing { inside = 0; print mode == "inside" ? $0 : ""; next }
{ print (inside == (mode == "inside")) ? $0 : "" }
END { exit found ? 0 : 3 }
'

# Inserts `plant` where a row of scope `mode` reads it: inside the first body it names,
# before the `#[cfg(test)]` line, or at the end of the file.
plant_awk='
BEGIN { start = "(^|[^A-Za-z0-9_])" kind " " name "([^A-Za-z0-9_]|$)" }
!done && mode != "file" && mode != "inside" && /^#\[cfg\(test\)\]/ { print plant; done = 1 }
{ print }
!done && mode == "inside" && $0 ~ start { print plant; done = 1 }
END { if (!done && mode != "inside") { print plant; done = 1 } exit !done }
'

# Sets `hits` to the `file:line:text` lines of `files` that row $1 matches in its scope.
# Fails with `reason` set when a file cannot be read or the body its scope names is not
# there.
row_hits() {
    local i=$1 file text status=0 found=0
    hits=''
    case ${mode[i]} in
        file | above-tests)
            text=$(grep -anHE -- "${pattern[i]}" "${files[@]}") || status=$?
            [ "$status" -le 1 ] || { reason="cannot read what it reads"; return 1; }
            if [ "${mode[i]}" = file ]; then
                hits=$text
            else
                # Drops the hits at or below each file's `#[cfg(test)]` line.
                hits=$(awk -F: -v cuts="$(grep -nH -m 1 '^#\[cfg(test)\]' "${files[@]}")" '
                    BEGIN { n = split(cuts, c, "\n"); for (k = 1; k <= n; k++) { split(c[k], f, ":"); cut[f[1]] = f[2] } }
                    !($1 in cut) || $2 + 0 < cut[$1] + 0' <<<"$text")
            fi
            ;;
        *)
            for file in "${files[@]}"; do
                status=0
                text=$(awk -v mode="${mode[i]}" -v kind="${kind[i]}" -v name="${name[i]}" "$scope_awk" "$file") || status=$?
                case $status in
                    0) found=1 ;;
                    3) continue ;;
                    *) reason="cannot read $file"; return 1 ;;
                esac
                hits+=$(grep -anHE --label="$file" -- "${pattern[i]}" <<<"$text")$'\n' || [ $? -eq 1 ]
            done
            [ "$found" -eq 1 ] || { reason="no \`${kind[i]} ${name[i]}\` body above the tests of what it reads"; return 1; }
            ;;
    esac
}

# Checks row $1 on the tree in the working directory; prints why it fails, if it does.
check_row() {
    local i=$1 count
    if row_files "$i" && row_hits "$i"; then
        count=$(grep -c . <<<"$hits") || true
        if [ "${op[i]}" = '=' ] && [ "$count" -eq "${limit[i]}" ]; then return 0; fi
        if [ "${op[i]}" = '≤' ] && [ "$count" -le "${limit[i]}" ]; then return 0; fi
        if [ "${limit[i]}" -eq 0 ]; then
            reason="expected no match, found $count"
        else
            reason="expected ${op[i]} ${limit[i]} matching lines, found $count"
        fi
        reason+=$'\n'$(grep . <<<"$hits" | head -n 5 | sed 's/^/      /')
    fi
    echo "FAIL [${rule[i]}] ($table:${at[i]}): $reason"
    return 1
}

# Checks every row; $1 names where the tree is, for the summary line.
check_all() {
    local i failed=0
    for i in "${!rule[@]}"; do
        check_row "$i" || failed=$((failed + 1))
    done
    if [ "$failed" -gt 0 ]; then
        echo "$failed of ${#rule[@]} rows fail$1" >&2
        return 1
    fi
    echo "architecture: all ${#rule[@]} rows of $(printf '%s\n' "${rule[@]}" | sort -u | wc -l) rules hold$1"
}

parse
if [ $# -eq 0 ]; then
    check_all ''
    exit
fi

# --self-test, on a copy of the top-level entries the rules read and of what
# scripts/public_surface.sh reads.
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
tree=$scratch/tree
mkdir "$tree"
read -ra entries <<<"${paths[*]} ${excepts[*]}"
for entry in "${entries[@]%%/*}" scripts/public_surface.sh scripts/public_surface.allow \
    crates src tests examples benchmark/src benchmark/tests benchmark/build.rs; do
    [ ! -e "$entry" ] || [ -e "$tree/$entry" ] || cp -r --parents "$entry" "$tree"
done
cd "$tree"
problems=()
untouched=$(check_all ' on the untouched copy') || {
    echo "$untouched"
    exit 1
}

# What each row reads, one file a line: a planted line moves only the rows that read its
# file, and adds or removes no file.
for i in "${!rule[@]}"; do
    row_files "$i"
    reads[i]=$(printf '%s\n' "${files[@]}")
done

for i in "${!rule[@]}"; do
    target=${reads[i]%%$'\n'*}
    cp "$target" "$scratch/original"
    awk -v mode="${mode[i]}" -v kind="${kind[i]}" -v name="${name[i]}" -v plant="${plant[i]//\\/\\\\}" \
        "$plant_awk" "$scratch/original" >"$target" ||
        problems+=("[${rule[i]}] ($table:${at[i]}): nowhere in $target to plant its line")
    for j in "${!rule[@]}"; do
        [[ $'\n'${reads[j]}$'\n' == *$'\n'$target$'\n'* ]] || continue
        if check_row "$j" >/dev/null; then
            [ "$j" -ne "$i" ] ||
                problems+=("[${rule[i]}] ($table:${at[i]}): holds with its planted line in $target")
        elif [ "$j" -ne "$i" ]; then
            problems+=("[${rule[i]}] ($table:${at[i]}): its planted line also fails [${rule[j]}] ($table:${at[j]})")
        fi
    done
    cp "$scratch/original" "$target"
done

reads=()
moved=0
for i in "${!rule[@]}"; do
    first=${paths[i]%%[[:space:]]*}
    [[ $first != *[*?[]* ]] || continue
    mv "$first" "$scratch/moved"
    ! check_row "$i" >/dev/null ||
        problems+=("[${rule[i]}] ($table:${at[i]}): holds with $first moved away")
    mv "$scratch/moved" "$first"
    moved=$((moved + 1))
done

surface() { bash scripts/public_surface.sh >/dev/null 2>&1; }
if ! surface; then
    problems+=("scripts/public_surface.sh fails on the untouched copy")
else
    lib=(crates/*/src/lib.rs)
    cp "${lib[0]}" "$scratch/original"
    echo 'pub fn architecture_self_test_unreferenced() {}' >>"${lib[0]}"
    ! surface || problems+=("scripts/public_surface.sh passes an unreferenced pub fn in ${lib[0]}")
    cp "$scratch/original" "${lib[0]}"
    mv benchmark/tests "$scratch/moved"
    ! surface || problems+=("scripts/public_surface.sh passes with benchmark/tests missing")
    mv "$scratch/moved" benchmark/tests
fi

if [ ${#problems[@]} -gt 0 ]; then
    printf 'self-test: %s\n' "${problems[@]}" >&2
    exit 1
fi
echo "self-test: each of ${#rule[@]} rows failed on its planted line, and no other row did;" \
    "$moved rows failed with their first path moved; scripts/public_surface.sh failed on an" \
    "unreferenced pub fn and on a missing directory"
