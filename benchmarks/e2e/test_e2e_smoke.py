"""Smoke test of the end-to-end benchmark (``python -m pytest benchmarks/e2e -q``).

Drives every workload function at tiny sizes passed as arguments — the
same code path ``run.py`` takes, only smaller — and checks the output
schema, that inputs are a pure function of the seed, that no operation
fails, that the oracle notices a wrong answer, that a run below the sample
floors is not correct, that samples are scaled by the machine speed of their
round, and that the crash check discards unacknowledged bytes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import surfaces  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracle import Oracle  # noqa: E402

_SITE = dict(
    docs=2, persons=8, items=6, open_auctions=4, closed_auctions=2,
    categories=1, cut_every=4, window=2, warmup_rounds=2, rounds=10,
)
_FORMS = dict(docs=20, window=4, warmup_rounds=2, writes=1, passes=1)
_TRACE = dict(ladder_rounds=3, probe_repeats=1, pings=5, codec_repeats=5)
TINY = {
    "embedded_update_query": dict(_SITE, **_TRACE),
    "twig_read_heavy": dict(_SITE, **_TRACE),
    "sharded_update_query": dict(_SITE, **_TRACE),
    "durable_write_heavy": dict(
        _FORMS, batch_every=4, batch_pairs=2, checkpoint_every=8, rounds=20,
        **_TRACE,
    ),
    "tcp_read_mostly": dict(
        _FORMS, batch_every=0, batch_pairs=0, checkpoint_every=0, rounds=10,
        **_TRACE,
    ),
}


def tiny(name: str) -> dict:
    return dict(TINY[name])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_clean_and_reports_every_metric(name, tmp_path):
    result = workloads.WORKLOADS[name](tiny(name), 1, tmp_path, floors=False)
    assert result["problems"] == []
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == list(workloads.END_TO_END)
    for metric, value in result["metrics"].items():
        assert isinstance(value, float) and value > 0, metric
    drift = abs(
        result["diagnostics"]["elements_at_end"]
        - result["diagnostics"]["elements_after_warmup"]
    )
    assert drift <= 0.02 * result["diagnostics"]["elements_after_warmup"] + 40


def test_benchmark_json_matches_the_code():
    with open(HERE.parents[1] / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    # The driver's list leaves out the sharded replay (README, "Deviations").
    assert [w["name"] for w in benchmark["workloads"]] == [
        name for name in workloads.WORKLOADS if name != "sharded_update_query"
    ]
    assert {m["name"]: (m["unit"], m["better"]) for m in benchmark["end_to_end"]} \
        == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} == tracing.PER_LAYER
    with open(HERE / "sizes.json", encoding="utf-8") as handle:
        sizes = json.load(handle)["workloads"]
    assert set(sizes) == set(workloads.WORKLOADS)
    # The sharded workload replays a prefix of the embedded one's rounds.
    embedded = sizes["embedded_update_query"]
    assert dict(sizes["sharded_update_query"], rounds=embedded["rounds"]) == embedded
    assert sizes["sharded_update_query"]["rounds"] <= embedded["rounds"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(name):
    sizes = tiny(name)
    first = corpus.fingerprint(corpus.build(name, sizes, 1))
    assert corpus.fingerprint(corpus.build(name, sizes, 1)) == first
    assert corpus.fingerprint(corpus.build(name, sizes, 2)) != first


def test_a_shorter_schedule_is_a_prefix_of_a_longer_one():
    sizes = tiny("embedded_update_query")
    short = corpus.build("embedded_update_query", sizes, 1)
    longer = corpus.build(
        "embedded_update_query", dict(sizes, rounds=2 * sizes["rounds"]), 1
    )
    assert longer.rounds[: len(short.rounds)] == short.rounds


def test_the_ten_blocks_of_every_schedule_hold_the_same_steps():
    with open(HERE / "sizes.json", encoding="utf-8") as handle:
        config = json.load(handle)
    for name, sizes in config["workloads"].items():
        rounds = corpus.build(name, sizes, 1).rounds
        per_block = len(rounds) // workloads.BLOCKS
        assert per_block * workloads.BLOCKS == len(rounds), name
        shapes = {
            tuple(sorted(
                (step[0], len(step[1]) if step[0] == "batch" else 0)
                for steps in rounds[i : i + per_block] for step in steps
            ))
            for i in range(0, len(rounds), per_block)
        }
        assert len(shapes) == 1, name


def test_pinned_fingerprints_match_the_generators():
    with open(HERE / "sizes.json", encoding="utf-8") as handle:
        config = json.load(handle)
    assert set(config["fingerprints"]) == {"1", "2"}
    for seed, by_workload in config["fingerprints"].items():
        assert set(by_workload) == set(workloads.WORKLOADS)
        for name, pinned in by_workload.items():
            sizes = config["workloads"][name]
            assert corpus.fingerprint(corpus.build(name, sizes, int(seed))) == pinned


class _LyingSurface:
    """A surface whose third query answer is off by one."""

    def __init__(self, inner):
        self._inner = inner
        self._queries = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def query(self, q):
        self._queries += 1
        return self._inner.query(q) + (self._queries == 3)


def test_the_oracle_catches_a_corrupted_answer(monkeypatch):
    real = workloads.surfaces.embedded
    monkeypatch.setattr(
        workloads.surfaces, "embedded", lambda: _LyingSurface(real())
    )
    result = workloads.embedded_update_query(
        tiny("embedded_update_query"), 1, None, floors=False
    )
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert any("oracle" in problem for problem in result["problems"])


def test_a_run_below_the_sample_floors_is_not_correct():
    result = workloads.embedded_update_query(tiny("embedded_update_query"), 1, None)
    assert result["failed"] == 0
    assert result["correct"] is False
    assert result["problems"] == ["10 insert samples, floor 200"]


def test_a_round_is_scaled_by_the_machine_speed_it_saw(monkeypatch):
    # The calibration loop took twice its reference time: the machine ran at
    # half speed, so the round's samples and busy time count for half.
    monkeypatch.setattr(workloads, "_spin", lambda: 2 * workloads.SPIN_REFERENCE_S)
    rec = workloads.Recorder()
    rec.query.append(0.004)
    rec.insert.extend([0.002, 0.006])
    rec.end_round(0.020)
    monkeypatch.setattr(workloads, "_spin", lambda: workloads.SPIN_REFERENCE_S)
    rec.remove.append(0.010)
    rec.end_round(0.010)
    assert rec.scaled("query") == [0.002]
    assert rec.scaled("insert") == [0.001, 0.003]
    assert rec.scaled("remove") == [0.010]
    assert rec.work_s == pytest.approx(0.020)
    assert rec.insert == [0.002, 0.006]  # the wall-clock samples stay as read


def test_the_crash_check_discards_what_was_not_acknowledged(tmp_path):
    surface = surfaces.durable(tmp_path / "db")
    try:
        surface.insert("<a><b/></a>", 0)
        acked_bytes = surface.journal_bytes()
        surface.insert("<c/>", 0)
        assert surface.journal_bytes() > acked_bytes
        assert surface.crash_and_recover(acked_bytes) is True
        assert surface.text() == "<a><b/></a>"
        assert surface.journal_bytes() == acked_bytes
        # Nothing in flight: nothing torn for recovery to find.
        assert surface.crash_and_recover(acked_bytes) is False
    finally:
        surface.close()


def test_the_oracle_full_check_catches_a_lost_element():
    workload = corpus.build("tcp_read_mostly", tiny("tcp_read_mostly"), 1)
    oracle = Oracle(workload.suite, workload.kind)
    oracle.load(workload.ingest)
    good = {"elements": oracle.text.count("</") + oracle.text.count("/>"),
            "characters": len(oracle.text)}
    assert oracle.full_check(oracle.expected, good) == []
    bad = dict(good, elements=good["elements"] - 1)
    assert oracle.full_check(oracle.expected, bad)
    wrong = list(oracle.expected)
    wrong[0] += 1
    assert oracle.full_check(wrong, good)


def test_traced_run_reports_every_layer_metric_and_exact_counts_repeat(tmp_path):
    name = "durable_write_heavy"
    runs = []
    for attempt in ("a", "b"):
        workdir = tmp_path / attempt / "work"
        workdir.mkdir(parents=True)
        runs.append(tracing.traced_run(name, tiny(name), 1, workdir))
    first, second = runs
    assert first["correct"] is True and first["failed"] == 0
    assert list(first["metrics"]) == list(tracing.PER_LAYER)
    assert Path(first["trace_file"]).is_file()
    for metric in (
        "xml.parse_calls_per_remove", "xml.parsed_bytes_per_input_byte",
        "core.readpath_invalidations_per_update", "joins.pairs_per_cold_join",
        "joins.skip_ratio", "twig.summary_rebuilds_per_update",
        "twig.holistic_share", "twig.pruned_share", "durability.fsyncs_per_op",
        "durability.wal_bytes_per_input_byte", "durability.checkpoint_bytes",
        "service.epoch_publishes_per_write", "net.bytes_per_request",
        "shard.rows_merged_per_query",
    ):
        assert first["metrics"][metric] == second["metrics"][metric], metric
