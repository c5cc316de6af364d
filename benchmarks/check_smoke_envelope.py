"""CI gate for the perf-smoke envelopes.

Validates what the perf-smoke job needs beyond "the script exited 0":
every envelope must carry the current ``repro-bench/2`` schema with every
required section present; the rest dispatches on the envelope's
``benchmark`` name.

``replication`` (``BENCH_replication.smoke.json``):

- the catch-up scenario drained every record the partition withheld
  (post-heal lag must be zero — a positive lag means the healed
  follower silently serves stale reads) at a positive rate;
- follower pinned-read latency percentiles are sane (p99 >= p50 > 0)
  and the follower's A//D join answered *identically* to the primary's
  — a pair-count mismatch means replication changed the answers;
- every advertised failover round recorded a positive time-to-promote.

``net_service`` (``BENCH_net.smoke.json``):

- the open-loop sweep covers at least 3 arrival rates over at least 64
  connections, each with sane latency percentiles
  (p99 >= p95 >= p50 > 0) and a positive achieved rate;
- the closed-loop saturation ceiling is positive;
- the overload drill recorded typed sheds (a zero means the drill never
  actually overloaded the server and proves nothing) and **zero untyped
  failures** — overload must degrade into typed ``Overloaded``/``Busy``
  refusals, never hangs or raw socket errors — and the server answered a
  fresh connection afterwards.

``twig`` (``BENCH_twig.smoke.json``):

- every measured pattern answered **identically** under the holistic and
  pairwise executors (``matches_equal`` — a mismatch means the holistic
  evaluator changed the answers, making its timing meaningless) with
  positive timings on both sides and a recorded planner choice;
- the prune drill answered an impossible-path twig with ``[]`` without
  compiling a single read-path column (the cache's miss/entry counters
  did not move);
- the summary's holistic speedups exist and are positive.  Smoke runs on
  shared CI runners, so holistic-beats-pairwise (speedup > 1 on at least
  one branching workload) is asserted on the full ``BENCH_twig.json``.

``shard_scatter`` (``BENCH_shard.smoke.json``):

- results exist for every advertised shard count with sane latency
  percentiles (p99 >= p50 > 0);
- per-query pair counts are identical across shard counts — a mismatch
  means partitioning changed the answers, making every throughput
  number meaningless;
- the N=4 speedup is recorded.  Smoke runs on shared CI runners, so the
  gate only requires it to be positive; the >= 1.5x acceptance target is
  asserted on the full ``BENCH_shard.json`` run.

Usage:  python benchmarks/check_smoke_envelope.py PATH
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REQUIRED_KEYS = {
    "schema", "benchmark", "params", "tables", "sweeps", "results", "metrics",
}
SCHEMA = "repro-bench/2"


def check(path: Path) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc.get("schema") == SCHEMA, f"schema {doc.get('schema')!r}"
    missing = REQUIRED_KEYS - set(doc)
    assert not missing, f"envelope missing sections: {sorted(missing)}"
    benchmark = doc["benchmark"]
    if benchmark == "shard_scatter":
        check_shard(doc)
        return
    if benchmark == "replication":
        check_replication(doc)
        return
    if benchmark == "net_service":
        check_net(doc)
        return
    if benchmark == "twig":
        check_twig(doc)
        return
    raise AssertionError(f"unknown benchmark {benchmark!r}")


def check_twig(doc: dict) -> None:
    results = doc["results"]
    n_patterns = 0
    for family in ("spine", "xmark"):
        groups = results[family]
        flat = (
            [groups] if family == "xmark" else [
                g for g in groups.values() if isinstance(g, dict)
            ]
        )
        for group in flat:
            for expr, rec in group.items():
                if not isinstance(rec, dict) or "speedup" not in rec:
                    continue
                n_patterns += 1
                assert rec["matches_equal"], (
                    f"twig/{expr}: holistic and pairwise answers differ — "
                    f"the holistic executor changed the answers"
                )
                assert rec["twig_ms"] > 0 and rec["pairwise_ms"] > 0, (
                    f"twig/{expr}: non-positive timing"
                )
                assert rec["planner_choice"] in ("twig", "pairwise"), (
                    f"twig/{expr}: no planner decision recorded"
                )
    assert n_patterns > 0, "twig envelope recorded no patterns"

    prune = results["prune"]
    assert prune["result_empty"], "prune drill returned matches"
    assert prune["compiled_zero_columns"], (
        "prune drill compiled read-path columns: the impossible-path twig "
        "was not answered from the path summary alone"
    )

    summary = results["summary"]
    assert summary["holistic_speedup_max"] > 0
    assert summary["holistic_speedup_median"] > 0
    assert summary["all_matches_equal"], "summary contradicts parity"
    if not doc["params"].get("smoke"):
        assert summary["holistic_speedup_max"] > 1.0, (
            "full run: holistic beat pairwise on no branching workload"
        )
    print(
        f"[check_smoke_envelope] OK: twig, {n_patterns} patterns with "
        f"identical answers, holistic speedup median "
        f"{summary['holistic_speedup_median']:.2f}x / max "
        f"{summary['holistic_speedup_max']:.2f}x, prune compiled nothing "
        f"({prune['prune_ms']:.3f} ms)"
    )


def check_shard(doc: dict) -> None:
    results = doc["results"]
    counts = doc["params"]["shard_counts"]
    pair_sets = []
    for n in counts:
        run = results.get(f"N={n}")
        assert run is not None, f"no results for N={n}"
        assert run["throughput_qps"] > 0, f"N={n}: zero throughput"
        assert 0 < run["p50_ms"] <= run["p99_ms"], f"N={n}: bad percentiles"
        pair_sets.append((n, run["pairs"]))
    base = pair_sets[0][1]
    for n, pairs in pair_sets[1:]:
        assert pairs == base, (
            f"N={n} pair counts differ from N={counts[0]}: partitioning "
            f"changed the answers"
        )
    summary = results["summary"]
    assert summary["speedup_n4"] > 0
    print(
        f"[check_smoke_envelope] OK: shard_scatter, {len(counts)} shard "
        f"counts, identical answers, N=4 speedup "
        f"{summary['speedup_n4']:.2f}x"
    )


def check_replication(doc: dict) -> None:
    params = doc["params"]
    results = doc["results"]

    catch_up = results["catch_up"]
    assert catch_up["records"] == params["catch_up_ops"], (
        f"catch-up moved {catch_up['records']} records, expected "
        f"{params['catch_up_ops']}"
    )
    assert catch_up["lag_after"] == 0, (
        f"healed follower still lags by {catch_up['lag_after']} records"
    )
    assert catch_up["throughput_rps"] > 0

    reads = results["follower_reads"]
    assert reads["pins"] == params["read_pins"]
    assert 0 < reads["p50_ms"] <= reads["p99_ms"], "bad read percentiles"
    assert reads["pairs_follower"] == reads["pairs_primary"], (
        f"follower answered {reads['pairs_follower']} pairs, primary "
        f"{reads['pairs_primary']}: replication changed the answers"
    )

    failover = results["failover"]
    assert failover["rounds"] == params["failover_rounds"]
    assert len(failover["rounds_ms"]) == failover["rounds"]
    assert all(t > 0 for t in failover["rounds_ms"])

    summary = results["summary"]
    assert summary["catch_up_rps"] > 0
    assert summary["failover_p50_ms"] > 0
    print(
        f"[check_smoke_envelope] OK: replication, catch-up "
        f"{summary['catch_up_rps']:.0f} rec/s, follower read p50 "
        f"{summary['follower_read_p50_ms']:.3f} ms, failover p50 "
        f"{summary['failover_p50_ms']:.2f} ms, identical answers"
    )


def check_net(doc: dict) -> None:
    params = doc["params"]
    results = doc["results"]
    assert params["connections"] >= 64, (
        f"only {params['connections']} connections; the acceptance "
        "criteria require >= 64"
    )
    rates = params["rates_rps"]
    assert len(rates) >= 3, f"only {len(rates)} arrival rates; need >= 3"

    runs = results["open_loop"]
    assert len(runs) == len(rates), "missing open-loop runs"
    for run in runs:
        label = f"rate={run['rate_rps']:.0f}rps"
        assert run["achieved_rps"] > 0, f"{label}: zero throughput"
        assert 0 < run["p50_ms"] <= run["p95_ms"] <= run["p99_ms"], (
            f"{label}: bad percentiles"
        )
        assert run["completed"] + run["sheds"] + run["errors"] == (
            run["offered"]
        ), f"{label}: requests unaccounted for (lost, not shed)"

    assert results["saturation"]["throughput_rps"] > 0

    drill = results["overload"]
    assert drill["sheds"] > 0, (
        "overload drill shed nothing: the server was never overloaded"
    )
    assert drill["untyped_failures"] == 0, (
        f"{drill['untyped_failures']} untyped failures under overload"
    )
    assert drill["alive_after"], "server unresponsive after overload"
    print(
        f"[check_smoke_envelope] OK: net_service, {len(rates)} rates x "
        f"{params['connections']} conns, saturation "
        f"{results['saturation']['throughput_rps']:.0f} rps, "
        f"{drill['sheds']} typed sheds, 0 untyped"
    )


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python benchmarks/check_smoke_envelope.py PATH")
    check(Path(sys.argv[1]))
