#!/usr/bin/env bash
# Threads-sweep bench matrix: run the fixed benchmark workload at
# several --threads values and collect one BENCH record per point.
#
#   scripts/bench_matrix.sh                   # threads 1 2 4 8 into bench_matrix/
#   scripts/bench_matrix.sh --threads "1 2"   # custom sweep (flag form)
#   THREADS="1 2" scripts/bench_matrix.sh     # custom sweep (env form)
#   EXP=table2 SCALE=4 BUDGET=600 OUT=bench_matrix scripts/bench_matrix.sh
#
# The --threads flag takes precedence over the THREADS env var.
#
# This is not a solver parallelism measurement: the points-to solver
# is one sequential driver and ignores --threads, so every point runs
# the same solver trace (same results and work counters; see
# tests/thread_parity.rs). What moves across points is Mahjong's
# merge-phase worker count and run-to-run noise.
#
# Each point writes BENCH_pta_tN.json (+ the BENCH_mahjong_pta_tN.json
# sibling) into $OUT; the final table renders via
# `scripts/bench_table.py --dir $OUT`. The threads-4 point also writes
# PROFILE_pta.json there for per-wave inspection.
set -euo pipefail
cd "$(dirname "$0")/.."

EXP="${EXP:-table2}"
SCALE="${SCALE:-4}"
BUDGET="${BUDGET:-900}"
THREADS="${THREADS:-1 2 4 8}"
OUT="${OUT:-bench_matrix}"

while [ $# -gt 0 ]; do
    case "$1" in
        --threads)
            [ $# -ge 2 ] || { echo "bench_matrix: --threads needs a list (e.g. \"1 2 4\")" >&2; exit 2; }
            THREADS="$2"
            shift 2
            ;;
        --help|-h)
            sed -n '2,/^set -euo/p' "$0" | sed '$d' | sed 's/^# \{0,1\}//'
            exit 0
            ;;
        *)
            echo "bench_matrix: unknown argument \`$1\` (only --threads LIST)" >&2
            exit 2
            ;;
    esac
done

case "$THREADS" in
    *[!0-9\ ]*|"")
        echo "bench_matrix: threads list \`$THREADS\` must be space-separated numbers" >&2
        exit 2
        ;;
esac

cargo build --release -p bench >/dev/null
REPRO=target/release/repro
mkdir -p "$OUT"

for t in $THREADS; do
    echo "bench_matrix: $EXP@$SCALE threads=$t" >&2
    profile_args=()
    if [ "$t" -eq 4 ]; then
        profile_args=(--profile --profile-json "$OUT/PROFILE_pta.json")
    fi
    "$REPRO" --exp "$EXP" --scale "$SCALE" --budget "$BUDGET" \
        --threads "$t" --force \
        --bench-json "$OUT/BENCH_pta_t$t.json" \
        "${profile_args[@]}" >/dev/null
done

python3 scripts/bench_table.py --dir "$OUT"
