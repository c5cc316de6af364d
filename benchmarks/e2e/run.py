#!/usr/bin/env python3
"""One command for the end-to-end benchmark of the lazy-update request path.

    python benchmarks/e2e/run.py                       # the four gated workloads
    python benchmarks/e2e/run.py --workload NAME --seed N
    python benchmarks/e2e/run.py --workload NAME --trace 1   # per-layer run
    python benchmarks/e2e/run.py --aa                  # same-code noise check

Every workload runs in a fresh interpreter (``PYTHONHASHSEED=0``, no
``REPRO_*`` switches), prints every metric by name with its unit, checks its
answers against the oracle and exits non-zero on a wrong one.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer ones).

Operation counts are fixed in ``sizes.json``, never derived from a clock:
``--seconds`` is accepted because the driver passes it, and is the length
the counts were sized for (``run_seconds`` in ``BENCHMARK.json``).

See README.md beside this file for what the metrics mean.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: Runs per side of the same-code noise check.
AA_RUNS = 3
#: Seconds before a child interpreter is given up on.
CHILD_TIMEOUT = 170


def read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# the child: one workload in this interpreter


def child_main(args) -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    config = read_json(HERE / "sizes.json")
    sizes = config["workloads"][args.workload]
    if args.trace:
        import tracing

        result = tracing.traced_run(args.workload, sizes, args.seed, args.workdir)
    else:
        pin = config["fingerprints"].get(str(args.seed), {}).get(args.workload)
        result = workloads.WORKLOADS[args.workload](
            sizes, args.seed, args.workdir, started=args.started, pin=pin,
        )
    print(json.dumps(result))
    return 0


def run_workload(workload: str, seed: int, trace: bool, scratch: Path) -> dict:
    """One run of one workload in a fresh interpreter; returns the JSON it
    printed: ``{"correct", "attempted", "failed", "metrics", ...}``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    workdir = scratch / f"{workload}-{seed}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
        "--workdir", str(workdir), "--started", repr(time.time()),
    ]
    # Its own process group, so that a child that has to be given up on
    # takes the server or workers it started with it.
    child = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        output, _ = child.communicate(timeout=CHILD_TIMEOUT)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    if child.returncode != 0:
        raise SystemExit(f"{workload}: child exited with {child.returncode}")
    return json.loads(output.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# the parent: reporting


def report(result: dict, units: dict, stream=sys.stdout) -> None:
    """Every metric by name with its unit, then what the run checked."""
    print(f"== {result['workload']} (seed {result['seed']}) ==", file=stream)
    for name, value in result["metrics"].items():
        print(f"  {name:42s} {value:16.4f} {units[name]}", file=stream)
    print(
        f"  ops_attempted {result['attempted']}  ops_failed {result['failed']}  "
        f"correct {result['correct']}",
        file=stream,
    )
    for name, value in result.get("diagnostics", {}).items():
        shown = f"{value:16d}" if isinstance(value, int) else f"{value:16.4f}"
        print(f"    {name:40s} {shown}", file=stream)
    if "ladder" in result:
        report_ladder(result, stream)
    for problem in result.get("problems", []):
        print(f"  PROBLEM: {problem}", file=stream)


def report_ladder(result: dict, stream) -> None:
    """The layer budget: where the bare round's time goes, and what each
    surface adds to the one below it."""
    print("  share of the bare rung's operation time, by layer (self time):",
          file=stream)
    for layer, share in result["shares"].items():
        print(f"    {layer:12s} {share:7.1%}", file=stream)
    ladder = result["ladder"]
    print("  surface ladder, medians (ms per query / insert / remove):",
          file=stream)
    for rung, row in ladder.items():
        print(
            f"    {rung:16s} {row['query_ms']:9.3f} {row['insert_ms']:9.3f} "
            f"{row['remove_ms']:9.3f}   {row['ops_per_s']:9.1f} ops/s",
            file=stream,
        )
    bare = ladder["bare"]["query_ms"]
    for title, chain in (
        ("embedded -> TCP", ("service", "protocol", "tcp")),
        ("embedded -> sharded", ("shard_inprocess", "shard_process")),
    ):
        below = bare
        parts = []
        for rung in chain:
            parts.append(f"{rung} {ladder[rung]['query_ms'] - below:+.3f}")
            below = ladder[rung]["query_ms"]
        print(
            f"  {title} query gap {below - bare:+.3f} ms = " + ", ".join(parts),
            file=stream,
        )
    own = result["own"]["plain"]["query_p50_ms"]
    surface = {
        "tcp_read_mostly": "tcp", "sharded_update_query": "shard_process",
        "durable_write_heavy": "durable",
    }.get(result["workload"], "bare")
    print(
        f"  residual: the workload's own untraced query_p50_ms {own:.3f} minus "
        f"the {surface} rung {ladder[surface]['query_ms']:.3f} = "
        f"{own - ladder[surface]['query_ms']:+.3f} ms (client count, window and "
        "round count differ from the ladder's)",
        file=stream,
    )
    print(f"  spans written to {result['trace_file']}", file=stream)


def final_line(result: dict, units: dict) -> str:
    return json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    })


def same_code_check(names, seed, benchmark, units, scratch) -> int:
    """A B A B A B on the working tree: both sides are the same code, so
    any difference between their medians is noise; it must stay inside
    every metric's bound.  A pair whose six runs spread wider than the
    bound is unresolved: its medians agreeing says little."""
    bounds = {m["name"]: (m["bound"], m["better"]) for m in benchmark["end_to_end"]}
    verdicts = {"ok": 0, "unresolved": 0, "MISS": 0}
    lines = [
        "| workload | metric | unit | median A | median B | B worse by | "
        "spread of all six | bound | verdict |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for name in names:
        sides = {"A": [], "B": []}
        for i in range(2 * AA_RUNS):
            side = "AB"[i % 2]
            result = run_workload(name, seed, False, scratch)
            if not result["correct"]:
                report(result, units, sys.stderr)
                return 1
            sides[side].append(result["metrics"])
            print(f"  {name} run {i + 1}/{2 * AA_RUNS} (set {side}) done",
                  file=sys.stderr)
        for metric, (bound, better) in bounds.items():
            a = statistics.median(run[metric] for run in sides["A"])
            b = statistics.median(run[metric] for run in sides["B"])
            worse = (b - a) / a if better == "lower" else (a - b) / a
            both = [run[metric] for run in sides["A"] + sides["B"]]
            quartiles = statistics.quantiles(both, n=4)
            spread = (quartiles[2] - quartiles[0]) / statistics.median(both)
            if abs(worse) > bound:
                verdict = "MISS"
            elif spread > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            verdicts[verdict] += 1
            lines.append(
                f"| {name} | {metric} | {units[metric]} | {a:.4f} | {b:.4f} | "
                f"{worse:+.2%} | {spread:.2%} | {bound:.0%} | {verdict} |"
            )
    print("\n".join(lines))
    print(
        f"\n{sum(verdicts.values())} metric x workload pairs: {verdicts['ok']} ok, "
        f"{verdicts['unresolved']} unresolved (spread wider than the bound), "
        f"{verdicts['MISS']} outside their bound"
    )
    return 1 if verdicts["MISS"] else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        help="one workload (default: those of BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (default 1; 2 is the held-out seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted for the driver; operation counts are fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        default=0, help="1 = the separate traced, per-layer run")
    parser.add_argument("--aa", action="store_true",
                        help="same-code noise check over every workload")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--started", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)

    benchmark = read_json(ROOT / "BENCHMARK.json")
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload is not None:
        # sizes.json also holds sharded_update_query, which the driver's
        # list leaves out (README, "Deviations"); it runs when asked for.
        known = list(read_json(HERE / "sizes.json")["workloads"])
        if args.workload not in known:
            parser.error(f"unknown workload {args.workload!r}; one of {known}")
        names = [args.workload]
    units = {
        m["name"]: m["unit"]
        for m in benchmark["per_layer" if args.trace else "end_to_end"]
    }
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.aa:
            return same_code_check(names, args.seed, benchmark, units, scratch)
        status = 0
        for name in names:
            result = run_workload(name, args.seed, bool(args.trace), scratch)
            if result.get("trace_file"):
                kept = OUT / Path(result["trace_file"]).name
                shutil.move(result["trace_file"], kept)
                result["trace_file"] = str(kept)
            report(result, units)
            print(final_line(result, units))
            if not result["correct"]:
                status = 1
        return status
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
