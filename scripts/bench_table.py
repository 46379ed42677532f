#!/usr/bin/env python3
"""Render the committed BENCH_*.json records as a markdown table.

Each PR that changes solver performance commits a `BENCH_*.json`
snapshot (written by `repro --metrics-json` / `--bench-json`; schema
documented in README "Observability"). This script turns the set of
committed snapshots into the "Performance trajectory" table in
README.md, so the perf story is reproducible from checked-in data
instead of hand-edited numbers.

    scripts/bench_table.py              # print the table to stdout
    scripts/bench_table.py --update     # rewrite the marked README block
    scripts/bench_table.py --check      # validate committed record schemas
    scripts/bench_table.py --dir D      # render records from directory D
                                        # (e.g. a bench_matrix.sh sweep)

The schema has grown over time (cycle-collapse counters first, then
thread counters, hash-consing counters and the order-repair counter);
missing keys render as `-` so old records stay first-class rows — but
the current `BENCH_pta.json` must carry every key the table renders,
or `--check` fails.

Since the canonical-signature merge path, `repro` also writes a
sibling Mahjong record next to each solver record: `BENCH_pta.json`
pairs with `BENCH_mahjong.json`, and `BENCH_<label>.json` pairs with
`BENCH_mahjong_<label>.json`. The sibling feeds the trailing Mahjong
columns (DFAs built, signature buckets, HK runs, canonicalization
time); rows without a sibling render `-` there.
"""

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BEGIN = "<!-- bench-table:begin -->"
END = "<!-- bench-table:end -->"
SERVE_BEGIN = "<!-- serve-table:begin -->"
SERVE_END = "<!-- serve-table:end -->"

# (column header, json key, formatter)
COLUMNS = [
    ("main analysis (s)", ("phase_secs", "main_analysis"), lambda v: f"{v:.1f}"),
    ("pre-analysis (s)", ("phase_secs", "pre_analysis"), lambda v: f"{v:.2f}"),
    ("mahjong (s)", ("phase_secs", "mahjong"), lambda v: f"{v:.2f}"),
    ("worklist pops", ("worklist_pops",), "{:,}".format),
    ("delta objects", ("delta_objects",), "{:,}".format),
    ("pts peak (words)", ("pts_peak_words",), "{:,}".format),
    ("pts interned", ("pts_interned",), "{:,}".format),
    ("dedup hits", ("pts_dedup_hits",), "{:,}".format),
    ("SCC-collapsed ptrs", ("scc_collapsed_ptrs",), "{:,}".format),
    ("wave rounds", ("wave_rounds",), "{:,}".format),
    ("order edges", ("order_search_edges",), "{:,}".format),
    ("threads", ("threads",), str),
    ("mask ranges", ("mask_ranges",), "{:,}".format),
    ("range hits", ("range_union_hits",), "{:,}".format),
]

# Columns sourced from the paired BENCH_mahjong*.json sibling record.
MAHJONG_COLUMNS = [
    ("DFAs built", ("dfa_built",), "{:,}".format),
    ("sig buckets", ("sig_buckets",), "{:,}".format),
    ("HK runs", ("hk_runs",), "{:,}".format),
    ("canon (ms)", ("canon_ns",), lambda v: f"{v / 1e6:.1f}"),
]


def mahjong_sibling(path: Path) -> Path:
    # BENCH_pta.json -> BENCH_mahjong.json,
    # BENCH_baseline_pr4.json -> BENCH_mahjong_baseline_pr4.json
    rest = path.stem.removeprefix("BENCH_")
    name = "BENCH_mahjong" if rest == "pta" else f"BENCH_mahjong_{rest}"
    return path.with_name(f"{name}{path.suffix}")


def lookup(record, path):
    for key in path:
        if not isinstance(record, dict) or key not in record:
            return None
        record = record[key]
    return record


def label(path: Path) -> str:
    # BENCH_baseline_pr2.json -> "baseline_pr2", BENCH_pta.json -> "pta (current)"
    stem = path.stem.removeprefix("BENCH_")
    return f"{stem} (current)" if stem == "pta" else stem


def sort_key(path: Path):
    # Baselines in PR order first, then threads-sweep records
    # (BENCH_pta_t1.json, BENCH_pta_t2.json, ...) in thread order, and
    # the live BENCH_pta.json record last.
    m = re.search(r"pr(\d+)", path.stem)
    if m:
        return (0, int(m.group(1)))
    m = re.search(r"_t(\d+)$", path.stem)
    return (1, int(m.group(1))) if m else (2, 0)


def render(root: Path) -> str:
    records = []
    for path in sorted(root.glob("BENCH_*.json"), key=sort_key):
        if path.stem.startswith("BENCH_mahjong"):
            continue  # siblings join their solver record below
        if path.stem == "BENCH_serve":
            continue  # the serving record has its own table
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as e:
            print(f"bench_table: skipping {path.name}: {e}", file=sys.stderr)
            continue
        sibling = mahjong_sibling(path)
        mahjong = {}
        if sibling.exists():
            try:
                mahjong = json.loads(sibling.read_text())
            except (OSError, json.JSONDecodeError) as e:
                print(f"bench_table: skipping {sibling.name}: {e}", file=sys.stderr)
        records.append((label(path), record, mahjong))
    if not records:
        return "_no BENCH_*.json records committed_"

    lines = []
    meta = records[0][1]
    workload = "{exp}@{scale}, budget {budget}s".format(
        exp=meta.get("exp", "?"),
        scale=meta.get("scale", "?"),
        budget=meta.get("budget_secs", "?"),
    )
    lines.append(f"Workload: `{workload}` (all rows; lower is better).")
    lines.append("")
    headers = [h for h, _, _ in COLUMNS] + [h for h, _, _ in MAHJONG_COLUMNS]
    lines.append("| record | " + " | ".join(headers) + " |")
    lines.append("|---|" + "---:|" * len(headers))
    for name, record, mahjong in records:
        cells = []
        for _, path, fmt in COLUMNS:
            value = lookup(record, path)
            cells.append("-" if value is None else fmt(value))
        for _, path, fmt in MAHJONG_COLUMNS:
            value = lookup(mahjong, path)
            cells.append("-" if value is None else fmt(value))
        lines.append(f"| `{name}` | " + " | ".join(cells) + " |")
    return "\n".join(lines)


# Keys every BENCH_*.json solver record must carry, whatever PR wrote
# it. `phase_secs.*` are nested under ("phase_secs", key).
BASE_KEYS = [
    ("exp",),
    ("scale",),
    ("budget_secs",),
    ("phase_secs", "pre_analysis"),
    ("phase_secs", "mahjong"),
    ("phase_secs", "main_analysis"),
    ("worklist_pops",),
    ("propagated_objects",),
    ("delta_objects",),
    ("copy_edges",),
    ("pts_peak_words",),
]

# Every key the table renders from the solver record. The *current*
# record (BENCH_pta.json) must carry all of them — a record whose
# columns all print `-` is a silently broken pipeline, not a row.
RENDERED_KEYS = [path for _, path, _ in COLUMNS]

# Keys the *current* record (BENCH_pta.json) must additionally carry —
# these arrived with later PRs and old baselines may lack them.
# (Rendered keys like threads / scc_collapsed_ptrs / pts_interned are
# covered by RENDERED_KEYS; this list is for non-column counters.)
#
# The par_* counters belong to the retired level-parallel solver
# driver; repro still writes them (as 0, because result snapshots
# serialize them), so records keep carrying them, but the table no
# longer renders them: a thread sweep measures no solver parallelism.
CURRENT_KEYS = [
    ("collapse_sweeps",),
    ("par_shards",),
    ("par_steal_none",),
    ("wave_barrier_ns",),
    ("intern_probe_ns",),
]

# Keys that arrived with the hierarchy-numbering / range-table PR.
# Every current-generation record — BENCH_pta.json and the fresh
# threads-sweep points — must carry them; older baselines may not.
RANGE_KEYS = [
    ("mask_ranges",),
    ("range_union_hits",),
    ("par_merge_shards",),
]

MAHJONG_KEYS = [("dfa_built",), ("sig_buckets",), ("hk_runs",), ("canon_ns",)]

# The serving record (BENCH_serve.json, written by `repro
# --serve-bench`; schema documented in SERVING.md). One record, five
# per-class latency entries.
SERVE_CLASSES = ["points_to", "may_alias", "call_targets", "cast_check", "not_found"]
SERVE_KEYS = [
    ("exp",), ("program",), ("scale",), ("analysis",), ("heap",), ("source",),
    ("threads",), ("queries",), ("batch",), ("seed",), ("warm_start_ms",),
    ("fingerprint",), ("wall_secs",), ("qps",), ("checksum",),
] + [
    ("classes", c, k)
    for c in SERVE_CLASSES
    for k in ("count", "p50_ns", "p99_ns")
]


def render_serve(root: Path):
    """The serving table from BENCH_serve.json, or None when absent."""
    path = root / "BENCH_serve.json"
    if not path.exists():
        return None
    try:
        rec = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_table: skipping {path.name}: {e}", file=sys.stderr)
        return None
    lines = [
        "Serving: `{program}@{scale}` ({analysis}, {heap}), {threads} threads, "
        "{queries:,} queries from a {source} start — "
        "**{qps:,.0f} qps**, warm start {warm_start_ms:.1f} ms.".format(
            program=rec.get("program", "?"),
            scale=rec.get("scale", "?"),
            analysis=rec.get("analysis", "?"),
            heap=rec.get("heap", "?"),
            threads=rec.get("threads", "?"),
            queries=rec.get("queries", 0),
            source=rec.get("source", "?"),
            qps=rec.get("qps", 0.0),
            warm_start_ms=rec.get("warm_start_ms", 0.0),
        ),
        "",
        "| query class | count | p50 (ns) | p99 (ns) |",
        "|---|---:|---:|---:|",
    ]
    for c in SERVE_CLASSES:
        stats = lookup(rec, ("classes", c)) or {}
        lines.append(
            "| `{}` | {:,} | {:,} | {:,} |".format(
                c, stats.get("count", 0), stats.get("p50_ns", 0), stats.get("p99_ns", 0)
            )
        )
    return "\n".join(lines)


def check_serve(path: Path):
    """Schema + self-consistency checks for a BENCH_serve.json record."""
    problems = []
    try:
        rec = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path.name}: unreadable: {e}"]
    for key in SERVE_KEYS:
        if lookup(rec, key) is None:
            problems.append(f"{path.name}: missing key {'.'.join(key)}")
    if problems:
        return problems
    if rec["exp"] != "serve":
        problems.append(f"{path.name}: exp is {rec['exp']!r}, expected 'serve'")
    if rec["source"] not in ("snapshot", "fresh"):
        problems.append(f"{path.name}: source {rec['source']!r} not snapshot/fresh")
    for key in ("fingerprint", "checksum"):
        value = rec[key]
        if not (isinstance(value, str) and value.startswith("0x")):
            problems.append(f"{path.name}: {key} must be a 0x-prefixed hex string")
    total = sum(rec["classes"][c]["count"] for c in SERVE_CLASSES)
    if total != rec["queries"]:
        problems.append(
            f"{path.name}: class counts sum to {total}, not queries={rec['queries']}")
    return problems

# Per-record keys in PROFILE_pta.json's "profile.records" entries.
PROFILE_RECORD_KEYS = [
    "run", "wave", "level", "pops", "objects", "words",
    "resolve_ns", "propagate_ns", "merge_ns",
]


def check(root: Path) -> int:
    """Validate committed record schemas; print one line per problem."""
    problems = []

    def need(path: Path, record, keys):
        for key in keys:
            if lookup(record, key) is None:
                problems.append(f"{path.name}: missing key {'.'.join(key)}")

    bench_paths = [
        p for p in sorted(root.glob("BENCH_*.json"), key=sort_key)
        if not p.stem.startswith("BENCH_mahjong") and p.stem != "BENCH_serve"
    ]
    if not bench_paths:
        problems.append(f"{root}: no BENCH_*.json solver records found")
    for path in bench_paths:
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as e:
            problems.append(f"{path.name}: unreadable: {e}")
            continue
        need(path, record, BASE_KEYS)
        if path.stem == "BENCH_pta":
            need(path, record, RENDERED_KEYS)
            need(path, record, CURRENT_KEYS)
        current = path.stem == "BENCH_pta" or re.search(r"_t\d+$", path.stem)
        if current:
            need(path, record, RANGE_KEYS)
        sibling = mahjong_sibling(path)
        if sibling.exists():
            try:
                sib = json.loads(sibling.read_text())
            except (OSError, json.JSONDecodeError) as e:
                problems.append(f"{sibling.name}: unreadable: {e}")
            else:
                # The canon-phase keys arrived with the signature path
                # (PR 5); only current-generation siblings must have them.
                if current:
                    need(sibling, sib, MAHJONG_KEYS)
        elif current:
            problems.append(f"{path.name}: sibling {sibling.name} is missing")

    profile = root / "PROFILE_pta.json"
    if profile.exists():
        problems.extend(check_profile(profile))

    serve = root / "BENCH_serve.json"
    if serve.exists():
        problems.extend(check_serve(serve))

    for p in problems:
        print(f"bench_table: CHECK FAIL: {p}", file=sys.stderr)
    if not problems:
        n = len(bench_paths) + int(profile.exists()) + int(serve.exists())
        print(f"bench_table: check OK ({n} records)")
    return 1 if problems else 0


def check_profile(path: Path):
    """Schema + self-consistency checks for a PROFILE_pta.json document."""
    problems = []
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path.name}: unreadable: {e}"]
    for key in ("exp", "scale", "threads", "main_analysis_secs",
                "pts_peak_words", "profile"):
        if key not in doc:
            problems.append(f"{path.name}: missing key {key}")
    prof = doc.get("profile") or {}
    records = prof.get("records")
    if not records:
        problems.append(f"{path.name}: profile.records is empty")
        return problems
    for i, rec in enumerate(records):
        missing = [k for k in PROFILE_RECORD_KEYS if k not in rec]
        if missing:
            problems.append(
                f"{path.name}: records[{i}] missing {','.join(missing)}")
            break  # one schema report is enough
    # Attribution: the per-record timings must cover >=90% of the
    # main_analysis wall clock — but only when the run is long enough
    # to measure and the ring did not overflow (dropped records mean
    # dropped nanoseconds).
    wall = doc.get("main_analysis_secs", 0.0)
    if wall > 0.05 and prof.get("records_dropped", 0) == 0:
        covered = sum(
            r.get("resolve_ns", 0) + r.get("propagate_ns", 0) + r.get("merge_ns", 0)
            for r in records) / 1e9
        if covered < 0.9 * wall:
            problems.append(
                f"{path.name}: timeline covers {covered:.2f}s of "
                f"{wall:.2f}s main_analysis wall (<90%)")
    # Memory attribution: samples are taken right after the solver's
    # seal sweeps deduplicate the rows, and the timeline retains the
    # largest one, so the breakdown's physical `rep_words` must anchor
    # to the recorded (physical) points-to peak; the logical footprint
    # can only be larger — it counts shared allocations once per row.
    mem = prof.get("memory")
    peak = doc.get("pts_peak_words", 0)
    if mem and peak:
        rep = mem.get("rep_words", 0)
        if abs(rep - peak) > 0.05 * peak:
            problems.append(
                f"{path.name}: memory breakdown rep_words {rep} vs "
                f"pts_peak_words {peak} (off by >5%)")
        logical = mem.get("logical_words")
        if logical is None:
            problems.append(f"{path.name}: memory breakdown lacks logical_words")
        elif logical < rep:
            problems.append(
                f"{path.name}: logical_words {logical} < rep_words {rep} "
                f"(dedup cannot add memory)")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--update",
        action="store_true",
        help=f"rewrite the block between `{BEGIN}` and `{END}` in README.md",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="validate BENCH_*.json / PROFILE_pta.json schemas and exit",
    )
    parser.add_argument(
        "--dir",
        type=Path,
        default=ROOT,
        help="directory holding the records (default: repo root)",
    )
    args = parser.parse_args()
    if args.check:
        return check(args.dir)
    table = render(args.dir)
    serve_table = render_serve(args.dir)
    if not args.update:
        print(table)
        if serve_table:
            print()
            print(serve_table)
        return 0
    readme = ROOT / "README.md"
    text = readme.read_text()
    if BEGIN not in text or END not in text:
        print(f"bench_table: README.md lacks {BEGIN}/{END} markers", file=sys.stderr)
        return 1
    head, rest = text.split(BEGIN, 1)
    _, tail = rest.split(END, 1)
    text = f"{head}{BEGIN}\n{table}\n{END}{tail}"
    if serve_table and SERVE_BEGIN in text and SERVE_END in text:
        head, rest = text.split(SERVE_BEGIN, 1)
        _, tail = rest.split(SERVE_END, 1)
        text = f"{head}{SERVE_BEGIN}\n{serve_table}\n{SERVE_END}{tail}"
    readme.write_text(text)
    print(f"bench_table: updated {readme}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
