"""The workloads and the loop that measures them.

Each workload function takes its sizes as an argument (``sizes.json`` holds
the benchmark's; the smoke test passes tiny ones), sets the system up
through its own surface, replays the warm-up, then plays the measured rounds
of the seeded schedule and returns the eight end-to-end metrics.

What keeps the numbers steady (see README.md for the reasons):

- operation counts are fixed by the schedule, never by a clock;
- the state is stationary: every measured insert is matched by the remove
  of the fragment inserted ``window`` rounds earlier;
- a query sample is a round's passes over the suite taken together,
  divided by the queries in them; inserts and removes are separate metrics;
- a fixed calibration loop is timed after every round, and the round's
  samples are scaled to a reference machine speed (:func:`_spin` says why);
- the measured rounds are cut into ten blocks of the same operations, every
  timing metric is taken per block, and the run reports its best block
  (:func:`_best_block` says why);
- ``setup_s`` runs from interpreter start to the first measured operation,
  minus the time spent inside the oracle and the calibration loop, scaled
  the same way;
- a run with fewer samples behind a percentile than its floor is not correct.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from pathlib import Path

import corpus
import surfaces
from oracle import Oracle

__all__ = ["WORKLOADS", "END_TO_END"]

#: name -> (unit, better), in reporting order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "query_p50_ms": ("ms", "lower"),
    "query_p90_ms": ("ms", "lower"),
    "insert_p50_ms": ("ms", "lower"),
    "remove_p50_ms": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "stored_bytes_per_input_byte": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Equal-sized blocks the measured rounds are cut into.
BLOCKS = 10
#: The kinds of latency sample a run gates on.
KINDS = ("query", "insert", "remove")
#: Iterations of the calibration loop played after every round ...
SPIN_ITERATIONS = 30_000
#: ... and the seconds it takes on the quiet sandbox: the machine speed
#: every timing metric is reported at (:func:`_spin` says why).
SPIN_REFERENCE_S = SPIN_ITERATIONS * 31e-9
#: Fewest samples a run may have behind each ``*_p50_ms`` ...
P50_FLOOR = 200
#: ... and behind ``query_p90_ms`` (at least 30 samples beyond it).
P90_FLOOR = 300
#: Oracle re-parses happen after these blocks (and at the end of the run).
CHECK_AFTER_BLOCKS = (2, 5, 7)
#: The acknowledged write the durable workload's crash check must find
#: again, and the write that is in flight when the crash comes.
_CRASH_FRAGMENT = (
    '<registration id="crash-check"><contact><email>crash@example.org</email>'
    "</contact></registration>"
)
_IN_FLIGHT_FRAGMENT = _CRASH_FRAGMENT.replace("crash", "in-flight")


class Abort(Exception):
    """An operation failed, so the schedule can no longer be followed."""


def _spin() -> float:
    """Seconds the calibration loop takes right now.

    The sandbox's two virtual CPUs share a core with other tenants, and for
    seconds or minutes at a time everything on them runs 5-40 % slower, this
    loop included, with no steal time reported.  Timed after every round, it
    says how fast the machine was during that round, and the round's samples
    are scaled to the speed at which the loop takes ``SPIN_REFERENCE_S``.
    The loop is fixed, never touches ``repro`` and works on two local
    variables, so what the system left in the caches does not change its
    time: a change to the system moves a metric by exactly what it saves or
    costs.  On ten runs of one commit the scaled metrics spread a third to a
    half as much as the wall-clock ones (``NOISE.md``).
    """
    start = time.perf_counter()
    x = 0.5
    for _ in range(SPIN_ITERATIONS):
        x = x * 1.0000001 + 1.0
    return time.perf_counter() - start


class Recorder:
    """Samples and counts of one measured phase."""

    def __init__(self):
        self.passes = []  # seconds per suite pass
        self.query = []  # seconds per query: one sample per round, all its passes
        self.insert = []
        self.remove = []
        self.batch = []
        self.checkpoint = []
        # For each query, insert and remove sample, the factor that scales it
        # to the reference machine speed: that of the round it was taken in.
        self.scale = {kind: [] for kind in KINDS}
        self.spins = []  # seconds per calibration loop, one per round
        self.work_s = 0.0  # wall seconds of the rounds, scaled, spins left out
        # Per block: (operations, scaled seconds, then the number of query,
        # insert and remove samples taken when the block ended).
        self.blocks = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.last_counts = None
        self.rows = 0  # result rows of every pass, summed
        self.disk_high_water = 0

    def wrong(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)

    def end_round(self, wall: float) -> None:
        """Calibrate, and scale what the round that took ``wall`` seconds
        added: its samples and its share of the busy time."""
        spin = _spin()
        self.spins.append(spin)
        factor = SPIN_REFERENCE_S / spin
        self.work_s += wall * factor
        for kind, scale in self.scale.items():
            scale.extend([factor] * (len(getattr(self, kind)) - len(scale)))

    def scaled(self, kind: str) -> list[float]:
        """The ``kind`` samples at the reference machine speed."""
        return [s * f for s, f in zip(getattr(self, kind), self.scale[kind])]


class Player:
    """Plays schedule steps against a surface, one closed-loop client.

    With a ``tracer`` every timed operation is a root span, so the spans
    recorded inside the system's wrapped callables hang off the operation
    that caused them.
    """

    def __init__(self, surface, workload, oracle: Oracle, tracer=None):
        self.surface = surface
        self.suite = workload.suite
        self.oracle = oracle
        self.tracer = tracer
        self.handles: dict = {}
        self.oracle_s = 0.0  # time spent in the oracle, for setup_s

    def follow(self, step) -> None:
        start = time.perf_counter()
        self.oracle.apply(step)
        self.oracle_s += time.perf_counter() - start

    def _timed(self, rec: Recorder, kind: str, weight: int, call, *args):
        """Time one operation into ``rec``'s ``kind`` samples; a typed
        failure counts ``weight`` failed operations and ends the run."""
        rec.attempted += weight
        tracer = self.tracer
        if tracer is not None:
            tracer.begin(kind)
        start = time.perf_counter()
        try:
            result = call(*args)
        except surfaces.FAILURES as exc:
            rec.failed += weight
            raise Abort(f"{type(exc).__name__}: {exc}") from exc
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.end()
        getattr(rec, kind).append(elapsed)
        return result

    def play(self, rounds, rec: Recorder) -> None:
        surface = self.surface
        suite = self.suite
        for steps in rounds:
            first_pass = len(rec.passes)
            round_start = time.perf_counter()
            for step in steps:
                kind = step[0]
                if kind == "pass":
                    counts = self._timed(rec, "passes", len(suite), self._pass)
                    rec.last_counts = counts
                    rec.rows += sum(counts)
                    for q, got, want in zip(suite, counts, self.oracle.expected):
                        if got != want:
                            rec.wrong(f"{q}: {got} results, oracle {want}")
                elif kind == "insert":
                    self.follow(step)
                    self.handles[step[1]] = self._timed(
                        rec, "insert", 1, surface.insert, step[2], step[3]
                    )
                elif kind == "remove":
                    self.follow(step)
                    self._timed(
                        rec, "remove", 1, surface.remove, self.handles.pop(step[1])
                    )
                elif kind == "batch":
                    self.follow(step)
                    subs = step[1]
                    made = self._timed(
                        rec, "batch", len(subs), surface.batch, subs, self.handles
                    )
                    for sub, handle in zip(subs, made):
                        if sub[0] == "insert":
                            self.handles[sub[1]] = handle
                        else:
                            del self.handles[sub[1]]
                elif kind == "checkpoint":
                    rec.disk_high_water = max(
                        rec.disk_high_water, _disk(surface.footprint())
                    )
                    self._timed(rec, "checkpoint", 0, surface.checkpoint)
            # A pass after an insert and a pass after a remove can cost
            # differently (a shard worker replays the remove inside the
            # next query), and a median over two populations flips between
            # them: the sample is the round's passes taken together.
            made = rec.passes[first_pass:]
            if made:
                rec.query.append(sum(made) / (len(made) * len(suite)))
            rec.end_round(time.perf_counter() - round_start)

    def _pass(self) -> list[int]:
        query = self.surface.query
        return [query(q) for q in self.suite]

    def surface_counts(self) -> list[int]:
        """An untimed pass, for an oracle check with no timed pass to use."""
        return [self.surface.query(q) for q in self.suite]


def _disk(footprint: dict) -> int:
    return footprint["journal_bytes"] + footprint["checkpoint_bytes"]


def _percentile(samples, share: float) -> float:
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _p90(samples) -> float:
    return _percentile(samples, 0.9)


def _best_block(rec: Recorder, kind: str, statistic) -> float:
    """The lowest, over the blocks, of ``statistic`` of the block's ``kind``
    samples.

    The sandbox's interference comes in bursts of a few seconds, sometimes
    for minutes on end, and only ever adds time.  A median over the whole
    phase moves with the share of it the bursts covered (10-17 % between
    runs of one commit on a bad quarter of an hour), and a 90th percentile
    moves as soon as a tenth of its samples do (30 %).  The blocks replay
    the same operations, so what the system itself costs is in every one of
    them, and the least disturbed block shows it best: between the same
    runs the best block moved half as much.
    """
    column = 2 + KINDS.index(kind)
    samples = rec.scaled(kind)
    values = []
    start = 0
    for block in rec.blocks:
        end = block[column]
        if end > start:
            values.append(statistic(samples[start:end]))
        start = end
    return min(values) if values else 0.0


def _rss_mb() -> float:
    """Peak resident set of this interpreter plus its largest child that
    has been waited for (the TCP server, a shard worker), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _run(name, make_surface, sizes, seed, *, started=None, prepare=None,
         verify=None, pin=None, tracer=None, floors=True):
    """Set up, warm up, measure and check one workload.

    ``started`` is the wall-clock time the interpreter was launched at
    (``time.time()`` of the parent just before the spawn); ``prepare`` runs
    after the bulk load (the durable workload checkpoints and reopens
    there); ``verify`` runs after the final oracle check; ``pin`` is the
    fingerprint the inputs must have (``None`` = not pinned for this seed);
    ``tracer`` records a root span per timed operation; ``floors`` off
    exempts a shorter replay (the traced run's) from the sample floors.
    """
    if started is None:
        started = time.time()
    workload = corpus.build(name, sizes, seed)
    mark = corpus.fingerprint(workload)
    if pin is not None and mark != pin:
        raise SystemExit(
            f"{name}: inputs for seed {seed} have fingerprint {mark}, "
            f"pinned {pin}"
        )
    speed = [_spin()]
    surface = make_surface()
    try:
        surface.load(workload.ingest)
        if prepare is not None:
            prepare(surface)
        speed.append(_spin())
        oracle = Oracle(workload.suite, workload.kind)
        oracle_start = time.perf_counter()
        oracle.load(workload.ingest)
        oracle_s = time.perf_counter() - oracle_start
        play = Player(surface, workload, oracle, tracer)
        rec = Recorder()
        try:
            play.play(workload.warmup, rec)
        except Abort as exc:
            rec.problems.append(f"warm-up aborted: {exc}")
        # Scaled like every other timing: by the machine speed seen before
        # and after the bulk load and after every warm-up round.
        speed.extend(rec.spins)
        setup_raw_s = time.time() - started - oracle_s - play.oracle_s - sum(speed)
        setup_s = setup_raw_s * SPIN_REFERENCE_S / statistics.median(speed)
        # The warm-up's samples are dropped; what it got wrong stays.
        warm, rec = rec, Recorder()
        rec.failed, rec.problems = warm.failed, warm.problems
        after_warmup = surface.footprint()
        rec.problems.extend(oracle.full_check(
            warm.last_counts or play.surface_counts(), after_warmup
        ))
        measured = _measure(play, workload.rounds, rec)
        final = surface.footprint()
        live_bytes = len(oracle.text.encode("utf-8"))
        rec.disk_high_water = max(rec.disk_high_water, _disk(final))
        if verify is not None and not rec.problems:
            rec.problems.extend(verify(surface, oracle))
        drift = abs(final["elements"] - after_warmup["elements"]) / max(
            1, after_warmup["elements"]
        )
        if drift > 0.02:
            rec.problems.append(f"state not stationary: elements moved {drift:.1%}")
        for kind, floor in (
            ("insert", P50_FLOOR), ("remove", P50_FLOOR), ("query", P90_FLOOR),
        ):
            if floors and not rec.problems and len(getattr(rec, kind)) < floor:
                rec.problems.append(
                    f"{len(getattr(rec, kind))} {kind} samples, floor {floor}"
                )
    finally:
        surface.close()

    rates = [block[0] / block[1] for block in rec.blocks]
    speeds = sorted(SPIN_REFERENCE_S / spin for spin in rec.spins) or [0.0]

    def ms(samples, share=None):
        if not samples:
            return 0.0
        if share is None:
            return 1e3 * statistics.median(samples)
        return 1e3 * _percentile(samples, share)

    return {
        "workload": name,
        "seed": seed,
        "fingerprint": mark,
        "metrics": {
            "setup_s": setup_s,
            "query_p50_ms": 1e3 * _best_block(rec, "query", statistics.median),
            "query_p90_ms": 1e3 * _best_block(rec, "query", _p90),
            "insert_p50_ms": 1e3 * _best_block(rec, "insert", statistics.median),
            "remove_p50_ms": 1e3 * _best_block(rec, "remove", statistics.median),
            "ops_per_s": max(rates, default=0.0),
            "stored_bytes_per_input_byte":
                (final["log_bytes"] + rec.disk_high_water) / live_bytes,
            "peak_rss_mb": _rss_mb(),
        },
        "attempted": rec.attempted,
        "failed": rec.failed,
        "correct": not rec.problems and rec.failed == 0,
        "problems": rec.problems,
        "diagnostics": {
            "measured_s": measured,
            # 1.0 = the reference speed; the *_raw_* rows are as the clock
            # read them, over the whole phase, before any scaling.
            "machine_speed_p50": statistics.median(speeds),
            "machine_speed_min": speeds[0],
            "machine_speed_max": speeds[-1],
            "setup_raw_s": setup_raw_s,
            "blocks": len(rec.blocks),
            "query_samples": len(rec.query),
            "insert_samples": len(rec.insert),
            "remove_samples": len(rec.remove),
            "batches": len(rec.batch),
            "checkpoints": len(rec.checkpoint),
            "ops_per_s_median_block": statistics.median(rates) if rates else 0.0,
            "query_p50_raw_ms": ms(rec.query),
            "query_p90_raw_ms": ms(rec.query, 0.9),
            "insert_p50_raw_ms": ms(rec.insert),
            "remove_p50_raw_ms": ms(rec.remove),
            "query_p99_ms": ms(rec.query, 0.99),
            "query_max_ms": ms(rec.query, 1.0),
            "insert_max_ms": ms(rec.insert, 1.0),
            "remove_max_ms": ms(rec.remove, 1.0),
            "batch_p50_ms": ms(rec.batch),
            "checkpoint_p50_ms": ms(rec.checkpoint),
            "elements_after_warmup": after_warmup["elements"],
            "elements_at_end": final["elements"],
            "rows_per_query": rec.rows / max(1, len(rec.passes) * len(workload.suite)),
            "input_bytes": live_bytes,
            "log_bytes": final["log_bytes"],
            "disk_bytes": rec.disk_high_water,
        },
    }


def _measure(play, rounds, rec) -> float:
    """Play the measured rounds in ``BLOCKS`` equal blocks, re-parsing the
    oracle's shadow after some of them; returns the seconds measured."""
    per_block, rest = divmod(len(rounds), BLOCKS)
    if rest or not per_block:
        raise ValueError(f"{len(rounds)} rounds do not make {BLOCKS} equal blocks")
    blocks = [rounds[i : i + per_block] for i in range(0, len(rounds), per_block)]
    measured = 0.0
    for index, block in enumerate(blocks, 1):
        if rec.problems:
            break
        before = rec.attempted, rec.work_s
        start = time.perf_counter()
        try:
            play.play(block, rec)
        except Abort as exc:
            rec.problems.append(f"aborted in block {index}: {exc}")
            break
        measured += time.perf_counter() - start
        rec.blocks.append((
            rec.attempted - before[0], rec.work_s - before[1],
            len(rec.query), len(rec.insert), len(rec.remove),
        ))
        if index in CHECK_AFTER_BLOCKS or index == len(blocks):
            rec.problems.extend(play.oracle.full_check(
                rec.last_counts or play.surface_counts(), play.surface.footprint()
            ))
    return measured


# ----------------------------------------------------------------------
# the workloads


def embedded_update_query(sizes, seed, workdir, **options):
    """Bare ``LazyXMLDatabase``: chopped auction sites, Lazy-Join suite
    after every insert and every remove."""
    return _run("embedded_update_query", surfaces.embedded, sizes, seed, **options)


def twig_read_heavy(sizes, seed, workdir, **options):
    """Bare ``LazyXMLDatabase``: seven twig patterns per pass over mostly
    stable data, one insert and one remove per round."""
    return _run("twig_read_heavy", surfaces.embedded, sizes, seed, **options)


def sharded_update_query(sizes, seed, workdir, **options):
    """``embedded_update_query``'s corpus and schedule through
    ``ShardedDatabase(2, executor="process")``."""
    return _run(
        "sharded_update_query", lambda: surfaces.sharded("process"),
        sizes, seed, **options,
    )


def tcp_read_mostly(sizes, seed, workdir, **options):
    """A ``serve --tcp`` subprocess and one closed-loop connection:
    per-request overhead outweighs engine work."""
    return _run(
        "tcp_read_mostly", lambda: surfaces.Tcp(workdir), sizes, seed, **options
    )


def durable_write_heavy(sizes, seed, workdir, **options):
    """``DurableDatabase``: fsync-per-op inserts and removes, batches and
    checkpoints, recovery inside set-up, a torn-tail crash check at the end."""
    directory = Path(workdir) / "durable"

    def prepare(surface):
        surface.checkpoint()
        surface.reopen()

    def verify(surface, oracle):
        # Killing a process leaves the OS cache intact, so the check itself
        # discards what a crash would lose.  One more insert is
        # acknowledged and the journal's size at that ack recorded; a second
        # insert is in flight (never acknowledged, so the oracle does not
        # follow it) when the crash comes: the journal is cut back to the
        # acknowledged size, half of the in-flight record stays behind it.
        step = ("insert", "crash-check", _CRASH_FRAGMENT, len(oracle.text))
        oracle.apply(step)
        surface.insert(step[2], step[3])
        acked_bytes = surface.journal_bytes()
        surface.insert(_IN_FLIGHT_FRAGMENT, len(oracle.text))
        problems = []
        if not surface.crash_and_recover(acked_bytes):
            problems.append("recovery did not see the torn journal tail")
        if surface.text() != oracle.text:
            problems.append(
                "after the crash the database is not the acknowledged writes"
            )
        problems.extend(oracle.full_check(
            [surface.query(q) for q in oracle.suite], surface.footprint()
        ))
        return problems

    return _run(
        "durable_write_heavy", lambda: surfaces.durable(directory), sizes, seed,
        prepare=prepare, verify=verify, **options,
    )


WORKLOADS = {
    "embedded_update_query": embedded_update_query,
    "twig_read_heavy": twig_read_heavy,
    "durable_write_heavy": durable_write_heavy,
    "tcp_read_mostly": tcp_read_mostly,
    "sharded_update_query": sharded_update_query,
}
