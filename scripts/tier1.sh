#!/usr/bin/env bash
# Tier-1 verification: everything a PR must keep green.
#
#   ./scripts/tier1.sh
#
# Build (release), full test suite, a warning-free clippy pass over
# every target, a warning-free rustdoc build (crate docs are part of
# the deliverable), a `--threads 1` fig9 smoke run of the repro
# pipeline (the solver is one sequential driver at any thread count),
# and a `mahjong_cli` smoke that checks the telemetry export parses and
# carries the merge-phase counters (in particular
# `mahjong.machine_states`, nonzero whenever the merge built its shared
# subset machine) and the solver's counters (`pta.worklist_pops`, and
# `pta.pts_interned`, nonzero whenever finalize sealed the points-to
# rows), and that the solver timeline stayed unarmed without
# `--profile` (no `pta.live_worklist_pops`). The profiler smoke runs
# `repro --profile` on a
# small two-thread workload and asserts the timeline parses, carries
# per-level records, attributes ≥90% of the solver wall clock (order
# repairs and cycle collapse included), reports a nonzero
# pending-delta peak, and anchors its memory breakdown to the physical
# points-to peak (within 5%). The committed BENCH records are checked against
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

cargo run --release -q -p bench --bin repro -- --exp table2 --scale 1 \
    --programs luindex --threads 2 --budget 120 \
    --profile --profile-json "$profile_json" > /dev/null
python3 - "$profile_json" <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
prof = doc["profile"]
records = prof["records"]
assert records, "profile has no timeline records"
keys = {"run", "wave", "level", "pops", "objects", "words",
        "resolve_ns", "propagate_ns", "merge_ns"}
for rec in records:
    missing = keys - rec.keys()
    assert not missing, f"timeline record missing {sorted(missing)}"
assert any(r["level"] >= 0 for r in records), \
    "no per-level records (only seed/mixed/overhead sentinels)"
wall = doc["main_analysis_secs"]
covered = sum(r["resolve_ns"] + r["propagate_ns"] + r["merge_ns"] for r in records) / 1e9
if wall > 0.05 and prof["records_dropped"] == 0:
    assert covered >= 0.9 * wall, f"timeline covers {covered:.2f}s of {wall:.2f}s wall"
assert doc["pending_peak_words"] > 0, "pending_peak_words never sampled a live delta"
# Memory attribution: the retained sample is the largest one, taken
# right after a run's seal, so its physical rep_words anchors to the
# physical peak; the logical (per-row) footprint can only be larger.
mem, peak = prof["memory"], doc["pts_peak_words"]
if mem and peak:
    rep = mem["rep_words"]
    assert abs(rep - peak) <= 0.05 * peak, f"rep_words {rep} vs pts_peak_words {peak} (>5% off)"
    assert mem["logical_words"] >= rep, f"logical_words {mem['logical_words']} < rep_words {rep}"
print(f"tier1: profile smoke ok ({len(records)} records, "
      f"{covered:.2f}s/{wall:.2f}s attributed)")
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
import json, sys

def load(path):
    counters, gauges = {}, {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)  # every line must be valid JSON
            if rec.get("type") == "counter":
                counters[rec["name"]] = rec["value"]
            elif rec.get("type") == "gauge":
                gauges[rec["name"]] = rec["value"]
    # The timeline is armed only by --profile and --heartbeat; its live
    # counters must not exist on a plain run.
    live = sorted(n for n in {**counters, **gauges} if n.startswith("pta.live_"))
    assert not live, f"{path}: timeline ran without --profile: {live}"
    assert counters.get("pta.pts_interned", 0) > 0, f"{path}: solver sealed no points-to sets"
    return counters

counters, decorator = load(sys.argv[1]), load(sys.argv[2])
assert "mahjong.machine_states" in counters, \
    f"mahjong.machine_states missing from {sorted(counters)}"
assert counters["mahjong.machine_states"] > 0, "merge built no shared machine"
assert decorator.get("pta.worklist_pops", 0) > 0, "solver counters did not record"
print(f"tier1: mahjong_cli smoke ok ({len(counters)} counters, "
      f"machine_states={counters['mahjong.machine_states']}, "
      f"pts_interned={counters['pta.pts_interned']}, "
      f"worklist_pops={decorator['pta.worklist_pops']})")
EOF
