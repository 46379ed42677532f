#!/usr/bin/env bash
# Tier-1 verification: everything a PR must keep green.
#
#   ./scripts/tier1.sh
#
# Build (release), full test suite, a warning-free clippy pass over
# every target, a warning-free rustdoc build (crate docs are part of
# the deliverable), a `--threads 1` fig9 smoke run of the repro
# pipeline (the solver is one sequential driver at any thread count),
# and a `mahjong_cli` smoke that checks the `--metrics-json` dump parses
# and holds the pre-analysis's `row` line, and that the BENCH_pta.json /
# BENCH_mahjong.json siblings written beside it carry the merge's
# `machine_states` (nonzero whenever the merge built its shared subset
# machine) and the solver's `worklist_pops` and `pts_interned` (nonzero
# whenever finalize sealed the points-to rows). The profiler smoke runs `repro --profile` on luindex@6's
# Table 2 and asserts the profile parses with one row per solver run
# (ci plus the ten cells), that the cells' elapsed times account for
# 90–100% of the `main_analysis` wall clock, and that on every row each
# phase fits inside the run's elapsed time and the logical points-to
# footprint is at least the physical one. The committed BENCH records are checked against
# their writers' schemas by the test suite (`tests/records.rs`). The
# serving smoke saves a luindex@2 snapshot, warm-starts `repro
# --serve-bench` from it, and requires the save/load fingerprints to
# match bit for bit (see SERVING.md); it also recomputes every stored
# CRC of the saved file with Python's `zlib.crc32`.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo clippy --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q
cargo run --release -q -p bench --bin repro -- --exp fig9 --scale 1 --threads 1

# A private scratch dir: `--metrics-json` makes both binaries write a
# BENCH_pta.json sibling and refuse to clobber an existing one, so the
# smokes must not share /tmp with anything.
scratch="$(mktemp -d /tmp/tier1.XXXXXX)"
trap 'rm -rf "$scratch"' EXIT
profile_json="$scratch/tier1_profile.json"
mahjong_metrics="$scratch/tier1_mahjong.jsonl"

# Scale 6, not 1: luindex@1's cells take ~0.01 s, below the 0.05 s floor
# of the attribution check; luindex@6's take ~0.12 s.
cargo run --release -q -p bench --bin repro -- --exp table2 --scale 6 \
    --programs luindex --threads 2 --budget 120 \
    --profile --profile-json "$profile_json" > /dev/null
python3 - "$profile_json" <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
rows = doc["rows"]
phases = ["init", "methods", "order", "propagate", "seal", "finalize"]
ledger = ["pops", "propagated_objects", "waves", "contexts", "method_contexts",
          "physical_words", "logical_words"]
for row in rows:
    missing = {"key", "finished", "elapsed", *phases, *ledger} - row.keys()
    assert not missing, f"profile row {row.get('key')} missing {sorted(missing)}"
assert len(rows) == 11, f"{len(rows)} rows, want ci plus 10 cells: {[r['key'] for r in rows]}"
assert rows[0]["key"] == "luindex.ci" and rows[2]["key"] == "luindex.M-2cs", \
    [r["key"] for r in rows]
wall = doc["main_analysis_secs"]
cells = sum(r["elapsed"] for r in rows if not r["key"].endswith(".ci"))
if wall > 0.05:
    assert 0.9 * wall <= cells <= wall, f"cells' elapsed {cells:.3f}s vs main_analysis {wall:.3f}s"
for row in rows:
    for p in phases:
        assert 0 <= row[p] <= row["elapsed"], f"{row['key']}: {p} {row[p]} vs elapsed {row['elapsed']}"
    assert row["logical_words"] >= row["physical_words"], \
        f"{row['key']}: logical {row['logical_words']} < physical {row['physical_words']}"
print(f"tier1: profile smoke ok ({len(rows)} rows, "
      f"cells {cells:.2f}s of {wall:.2f}s main_analysis)")
EOF

# Serving smoke (SERVING.md): analyze luindex@2 once and save the
# snapshot, then warm-start a serve bench from it. The canonical
# fingerprint printed on the save and load sides must match bit for
# bit — a snapshot is a perfect stand-in for the analysis — and the
# serve record must be self-consistent.
serve_snap="$scratch/luindex.mjsn"
serve_json="$scratch/BENCH_serve.json"
save_out="$(cargo run --release -q -p bench --bin repro -- \
    --programs luindex --scale 2 --threads 2 --save-snapshot "$serve_snap")"
load_out="$(cargo run --release -q -p bench --bin repro -- \
    --load-snapshot "$serve_snap" --serve-bench --serve-queries 20000 \
    --threads 2 --serve-json "$serve_json")"
save_fp="$(grep -o 'fingerprint 0x[0-9a-f]*' <<<"$save_out")"
load_fp="$(grep -o 'fingerprint 0x[0-9a-f]*' <<<"$load_out")"
if [ -z "$save_fp" ] || [ "$save_fp" != "$load_fp" ]; then
    echo "tier1: snapshot fingerprint mismatch (save: ${save_fp:-none}," \
         "load: ${load_fp:-none})" >&2
    exit 1
fi
# Cross-check the snapshot's checksums with an independent CRC-32:
# SERVING.md promises the zlib/PNG polynomial, so every stored CRC must
# equal zlib.crc32 of the bytes it covers.
python3 - "$serve_snap" <<'EOF'
import struct, sys, zlib

data = open(sys.argv[1], "rb").read()
magic, version, count, header_crc = struct.unpack_from("<4sIII", data, 0)
assert magic == b"MJSN", magic
assert header_crc == zlib.crc32(data[:12]), "header CRC is not zlib's CRC-32"
pos, ids = 16, []
for _ in range(count):
    sid, length, crc = struct.unpack_from("<IQI", data, pos)
    pos += 16
    payload = data[pos:pos + length]
    assert len(payload) == length, f"section {sid} truncated"
    assert crc == zlib.crc32(payload), f"section {sid}: CRC is not zlib's CRC-32"
    ids.append(sid)
    pos += length
assert pos == len(data), f"{len(data) - pos} trailing bytes"
print(f"tier1: snapshot CRC cross-check ok (version {version}, sections {ids})")
EOF
python3 - "$serve_json" <<'EOF'
import json, sys

rec = json.load(open(sys.argv[1]))
assert rec["exp"] == "serve" and rec["source"] == "snapshot", rec
classes = ["points_to", "may_alias", "call_targets", "cast_check", "not_found"]
total = sum(rec["classes"][c]["count"] for c in classes)
assert total == rec["queries"], f"class counts {total} != queries {rec['queries']}"
assert rec["qps"] > 0 and rec["warm_start_ms"] > 0, rec
print(f"tier1: serve smoke ok ({rec['qps']:.0f} qps, "
      f"warm start {rec['warm_start_ms']:.1f} ms)")
EOF

# Two inputs: containers.jir builds a shared machine, but its fixpoint
# resolves entirely through registration replays (0 worklist pops);
# decorator.jir pops but merges nothing. Each writes into its own
# directory (a second BENCH_pta.json sibling would be refused).
mkdir "$scratch/decorator"
cargo run --release -q -p bench --bin mahjong_cli -- corpus/containers.jir \
    --threads 2 --metrics-json "$mahjong_metrics" > /dev/null
cargo run --release -q -p bench --bin mahjong_cli -- corpus/decorator.jir \
    --threads 2 --metrics-json "$scratch/decorator/tier1_mahjong.jsonl" > /dev/null
python3 - "$mahjong_metrics" "$scratch/decorator/tier1_mahjong.jsonl" <<'EOF'
import json, os, sys

def load(path):
    with open(path) as f:
        lines = [json.loads(line) for line in f]  # every line must be valid JSON
    here = os.path.dirname(path)
    pta = json.load(open(os.path.join(here, "BENCH_pta.json")))
    mahjong = json.load(open(os.path.join(here, "BENCH_mahjong.json")))
    assert pta["pts_interned"] > 0, f"{path}: solver sealed no points-to sets"
    return lines, pta, mahjong

lines, pta, mahjong = load(sys.argv[1])
_, decorator, _ = load(sys.argv[2])
rows = [l["key"] for l in lines if l.get("type") == "row"]
assert "containers.ci" in rows, f"no containers.ci row line, rows: {rows}"
assert mahjong["machine_states"] > 0, "merge built no shared machine"
assert decorator["worklist_pops"] > 0, "solver counts did not record"
print(f"tier1: mahjong_cli smoke ok ({len(lines)} lines, "
      f"machine_states={mahjong['machine_states']}, "
      f"pts_interned={pta['pts_interned']}, "
      f"worklist_pops={decorator['worklist_pops']})")
EOF
