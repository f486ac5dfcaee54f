#!/usr/bin/env bash
# Race gate: run the given package patterns under the race detector and
# reduce the result to one line that cannot be summarised wrong:
#
#   race matrix: <pkgs> packages, <tests> tests, <n> failed
#
# The verdict is computed from `go test -json` events, not from the exit
# status alone: a listed package that ran no tests (no test files, or every
# test filtered out) fails the gate just like a failing or racing test, and
# so does a pattern that matched nothing. The output of every failed
# package is replayed above the summary.
set -u -o pipefail

if [ "$#" -eq 0 ]; then
    echo "usage: $0 <package pattern>..." >&2
    exit 2
fi

events=$(mktemp)
trap 'rm -f "$events"' EXIT

${GO:-go} test -race -count=1 -json "$@" >"$events"
status=$?

awk -v status="$status" '
function field(name,    re, s) {
    re = "\"" name "\":\"([^\"\\\\]|\\\\.)*\""
    if (!match($0, re)) return ""
    s = substr($0, RSTART, RLENGTH)
    sub("^\"" name "\":\"", "", s)
    sub("\"$", "", s)
    return s
}
function unescape(s) {
    gsub(/\\u003c/, "<", s); gsub(/\\u003e/, ">", s); gsub(/\\u0026/, "\\&", s)
    gsub(/\\t/, "\t", s); gsub(/\\n/, "\n", s); gsub(/\\"/, "\"", s)
    gsub(/\\\\/, "\\", s)
    return s
}
{
    action = field("Action"); pkg = field("Package"); test = field("Test")
    if (pkg == "") next
    if (!(pkg in ran)) { ran[pkg] = 0; order[++npkgs] = pkg }
    if (action == "output") { log_[pkg] = log_[pkg] unescape(field("Output")); next }
    if (test != "") {
        if (action == "run") { ran[pkg]++; tests++ }
        if (action == "fail") { failed++; bad[pkg] = 1 }
    } else if (action == "fail") {
        bad[pkg] = 1
    }
}
END {
    for (i = 1; i <= npkgs; i++) {
        pkg = order[i]
        if (ran[pkg] == 0) {
            printf "race gate: %s ran no tests\n", pkg
            bad[pkg] = 1
        }
    }
    nbad = 0
    for (i = 1; i <= npkgs; i++) if (order[i] in bad) { nbad++; printf "%s", log_[order[i]] }
    if (failed < nbad) failed = nbad
    if (npkgs == 0 || (status != 0 && failed == 0)) {
        print "race gate: go test exited " status " without a usable event stream"
        failed++
    }
    printf "race matrix: %d packages, %d tests, %d failed\n", npkgs, tests, failed
    exit failed != 0
}' "$events"
