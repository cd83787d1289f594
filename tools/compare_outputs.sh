#!/usr/bin/env bash
# Compare the CLI outputs of the working tree's src/ with those of git ref REF.
#
# Usage: tools/compare_outputs.sh REF
#
# REF's src/ is exported with `git archive` and the working tree's src/ is
# copied (uncommitted edits included); the repository is only read.  Each
# tree in turn is placed at the same temporary path and runs `lmpspike
# regions`, `rank`, `mc` (seed 20240, 2*10^5 samples) and `ptdf` on six
# case14 studies: n_theta 2 (renewables at buses 4, 5; forecast 0.5),
# n_theta 4, 6, 7 and 8 (buses 4, 5, 9, 10, 13, 14, 12, 11 truncated;
# forecast 0.3), each with one band over all nodes, and n_theta 2 again with
# `node_filter` [9, 10, 14] and `err_rel` [0.1, 0.25], whose `mc` prices a
# node subset and counts spikes for both bands in one pass; `ptdf` writes
# ptdf.csv, the PTDF matrix behind A, b and E.  The
# configs use relative paths, so resolved_config.json, the echoed paths and
# any warning text compare too; each command's stdout, stderr and exit code
# are kept beside its files.  Prints `diff -r` of the two output trees and
# exits 0 when they are identical, 1 on any difference, 2 on a usage or git
# error.  About 40 s per tree on 2 vCPUs.
set -u

if [ $# -ne 1 ]; then
    echo "usage: $0 REF" >&2
    exit 2
fi
ref=$1
root=$(git rev-parse --show-toplevel) || exit 2
if ! git -C "$root" rev-parse --verify --quiet "$ref^{commit}" >/dev/null; then
    echo "$0: not a commit: $ref" >&2
    exit 2
fi
tmp=$(mktemp -d -t compare_outputs.XXXXXX) || exit 2
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/ref" "$tmp/new" "$tmp/run/configs"

write_config() {  # study name, renewable buses (JSON list), forecast
                  # fraction; optional err_rel and node_filter (JSON lists)
    local filter=""
    [ $# -ge 5 ] && filter="\"node_filter\": $5,"
    cat > "$tmp/run/configs/$1.json" <<EOF
{
 "case_path": "src/lmpspike/data/case14.m",
 "renewable_buses": $2,
 "gamma_line": 2.0,
 "lambda_safety": 0.6,
 "forecast_fraction": $3,
 "q": 0.018,
 "kappa": 2.0,
 "tau_squared": 1.0,
 "err_rel": ${4:-[0.25]},
 $filter
 "mc_n_samples": 200000,
 "mc_seed": 20240,
 "output_dir": "out/$1"
}
EOF
}
write_config n2 "[4, 5]" 0.5
write_config n4 "[4, 5, 9, 10]" 0.3
write_config n6 "[4, 5, 9, 10, 13, 14]" 0.3
write_config n7 "[4, 5, 9, 10, 13, 14, 12]" 0.3
write_config n8 "[4, 5, 9, 10, 13, 14, 12, 11]" 0.3
write_config n2f "[4, 5]" 0.5 "[0.1, 0.25]" "[9, 10, 14]"

run_tree() {  # tree name; its src/ must already sit in $tmp/run
    local study cmd log start=$SECONDS
    for study in n2 n4 n6 n7 n8 n2f; do
        mkdir -p "$tmp/run/out/$study"
        for cmd in regions rank mc ptdf; do
            log="$tmp/run/out/$study/$cmd"
            (cd "$tmp/run" && PYTHONPATH=src python3 -m lmpspike.cli "$cmd" \
                --config "configs/$study.json" >"$log.stdout" 2>"$log.stderr")
            echo "exit $?" >"$log.exit"
        done
    done
    mv "$tmp/run/out" "$tmp/$1/out"
    rm -rf "$tmp/run/src"
    echo "$1: $((SECONDS - start)) s"
}

git -C "$root" archive "$ref" src | tar -x -C "$tmp/run" || exit 2
run_tree ref
(cd "$root" && tar -c --exclude=__pycache__ src) | tar -x -C "$tmp/run" || exit 2
run_tree new

if diff -r "$tmp/ref/out" "$tmp/new/out"; then
    echo "no difference from $ref"
    exit 0
fi
exit 1
