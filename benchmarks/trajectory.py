"""Perf-trajectory ledger: headline metrics across PR generations.

Every PR that refreshes a full ``BENCH_*.json`` moves a handful of
headline numbers — ingest throughput, service saturation, shard
scaling, replication catch-up, holistic twig speedup.
Each envelope only records *its own* run, so regressions that creep in
over several PRs are invisible unless someone diffs git history by hand.

This script distills the committed full-run envelopes into one headline
record and appends it to ``BENCH_TRAJECTORY.json`` — a label-keyed
ledger (one entry per PR generation) that the perf gate and future
sessions can read to see the trajectory, not just the latest point.
Re-running with an existing label replaces that entry in place
(idempotent), so refreshing a benchmark mid-PR does not duplicate rows.

Metrics are extracted defensively: an absent envelope or summary key
records ``null`` rather than failing, because early generations predate
some benchmarks entirely.

Usage:  python benchmarks/trajectory.py --label PR9
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

TRAJECTORY_SCHEMA = "repro-trajectory/1"


def _get(doc: dict | None, *path: str):
    """``doc[path[0]][path[1]]...`` or ``None`` anywhere along the way."""
    node = doc
    for key in path:
        if not isinstance(node, dict):
            return None
        node = node.get(key)
    return node


def _load(root: Path, name: str) -> dict | None:
    path = root / name
    if not path.exists():
        return None
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    # Smoke envelopes are CI-runner noise, never trajectory points.
    if _get(doc, "params", "smoke"):
        return None
    return doc


def headline(root: Path) -> dict:
    """The headline metrics of every committed full-run envelope."""
    fig16 = _load(root, "BENCH_fig16_insert.json")
    net = _load(root, "BENCH_net.json")
    shard = _load(root, "BENCH_shard.json")
    repl = _load(root, "BENCH_replication.json")
    twig = _load(root, "BENCH_twig.json")
    return {
        "ingest": {
            "batched_speedup": _get(
                fig16, "results", "batched_ingest", "speedup"
            ),
        },
        "net": {
            "saturation_rps": _get(net, "results", "summary", "saturation_rps"),
        },
        "shard": {
            "speedup_n4": _get(shard, "results", "summary", "speedup_n4"),
        },
        "replication": {
            "catch_up_rps": _get(repl, "results", "summary", "catch_up_rps"),
        },
        "twig": {
            "holistic_speedup_median": _get(
                twig, "results", "summary", "holistic_speedup_median"
            ),
            "holistic_speedup_max": _get(
                twig, "results", "summary", "holistic_speedup_max"
            ),
        },
    }


def append(root: Path, label: str) -> dict:
    """Record ``label``'s headline into ``BENCH_TRAJECTORY.json``."""
    path = root / "BENCH_TRAJECTORY.json"
    ledger = {"schema": TRAJECTORY_SCHEMA, "entries": []}
    if path.exists():
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            loaded = None
        if (
            isinstance(loaded, dict)
            and loaded.get("schema") == TRAJECTORY_SCHEMA
            and isinstance(loaded.get("entries"), list)
        ):
            ledger = loaded
    entry = {"label": label, "metrics": headline(root)}
    entries = [e for e in ledger["entries"] if e.get("label") != label]
    entries.append(entry)
    ledger["entries"] = entries
    path.write_text(
        json.dumps(ledger, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"[trajectory] wrote {path} ({len(entries)} entries)")
    return entry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--label", required=True,
        help="generation label for this entry (e.g. PR9); re-using a "
             "label replaces its entry",
    )
    args = parser.parse_args()
    root = Path(__file__).resolve().parent.parent
    entry = append(root, args.label)
    for group, metrics in entry["metrics"].items():
        for name, value in metrics.items():
            if value is None:
                continue
            print(f"    {group}.{name} = {value:.4g}")


if __name__ == "__main__":
    main()
