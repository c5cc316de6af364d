"""A dependency-free metrics registry: counters and latency histograms.

A count lives in the object that does the work (the read-path cache's
hits, a server's ``_counters``, the admission controller's per-class
tallies), and ``health``/``stats`` read it there.  The registry keeps
what no object keeps: per-layer latency histograms and the few
process-wide counts something reads by name (DESIGN.md §4d).  Design
constraints:

- **Dependency-free.**  Standard library only; importable from every layer
  (the core structures must not grow a third-party observability stack).
- **Near-free when disabled.**  Every instrumented site guards its work
  with a single attribute check (``if METRICS.enabled:``).  The registry is
  a process-wide singleton that is *never replaced*, so modules cache
  instrument handles at import time and the guard is the only per-event
  cost when the kill switch is off.
- **No wall-clock calls on the hot path** beyond ``time.perf_counter`` —
  used only inside ``if METRICS.enabled`` blocks for latency histograms.
- **Fixed histogram buckets.**  Bucket boundaries are chosen at
  registration and never resized, so ``observe`` is one bisect plus two
  integer adds.

    >>> from repro.obs.metrics import MetricsRegistry
    >>> reg = MetricsRegistry()
    >>> c = reg.counter("demo.events", unit="events", site="doctest")
    >>> c.inc(); c.inc(3)
    >>> reg.snapshot()["demo.events"]["value"]
    4
"""

from __future__ import annotations

from bisect import bisect_right
from time import perf_counter

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "METRICS",
    "LATENCY_BUCKETS",
]

#: Seconds-latency boundaries: 10µs .. 10s, roughly half-decade steps.
LATENCY_BUCKETS = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0
)


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "unit", "site", "value")
    kind = "counter"

    def __init__(self, name: str, unit: str, site: str):
        self.name = name
        self.unit = unit
        self.site = site
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def _reset(self) -> None:
        self.value = 0

    def _snapshot(self) -> dict:
        return {"type": self.kind, "unit": self.unit, "value": self.value}


class Histogram:
    """Fixed-boundary histogram with count/sum/max.

    ``boundaries`` are upper bucket edges (ascending); an observation lands
    in the first bucket whose edge is >= the value, or the overflow bucket.
    """

    __slots__ = ("name", "unit", "site", "boundaries", "counts", "count", "total", "vmax")
    kind = "histogram"

    def __init__(self, name: str, unit: str, site: str, boundaries: tuple):
        if not boundaries or list(boundaries) != sorted(boundaries):
            raise ValueError("histogram boundaries must be non-empty ascending")
        self.name = name
        self.unit = unit
        self.site = site
        self.boundaries = tuple(boundaries)
        self.counts = [0] * (len(boundaries) + 1)
        self.count = 0
        self.total = 0.0
        self.vmax = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.boundaries, value)] += 1
        self.count += 1
        self.total += value
        if value > self.vmax:
            self.vmax = value

    def time(self) -> "_Timer":
        """Context manager observing the elapsed ``perf_counter`` seconds."""
        return _Timer(self)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def _reset(self) -> None:
        self.counts = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.total = 0.0
        self.vmax = 0.0

    def _snapshot(self) -> dict:
        return {
            "type": self.kind,
            "unit": self.unit,
            "count": self.count,
            "sum": self.total,
            "max": self.vmax,
            "mean": self.mean,
            "buckets": {
                "le": list(self.boundaries),
                "counts": list(self.counts),
            },
        }


class _Timer:
    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram):
        self._histogram = histogram

    def __enter__(self) -> "_Timer":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._histogram.observe(perf_counter() - self._start)


class MetricsRegistry:
    """Get-or-create instrument registry with a process-wide kill switch.

    Instruments are registered once (typically at module import) and their
    handles stay valid forever: :meth:`reset` zeroes values *in place*
    instead of discarding objects, so cached module-level handles never go
    stale.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._instruments: dict[str, object] = {}

    # ------------------------------------------------------------------
    # registration (get-or-create; idempotent per name)

    def _register(self, cls, name: str, unit: str, site: str, *args):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        instrument = cls(name, unit, site, *args)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, *, unit: str = "events", site: str = "") -> Counter:
        return self._register(Counter, name, unit, site)

    def histogram(
        self,
        name: str,
        *,
        unit: str = "value",
        site: str = "",
        boundaries: tuple = LATENCY_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram, name, unit, site, boundaries)

    # ------------------------------------------------------------------
    # switches

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Zero every instrument in place (handles stay valid)."""
        for instrument in self._instruments.values():
            instrument._reset()

    # ------------------------------------------------------------------
    # export

    def get(self, name: str):
        """The instrument registered under ``name``, or ``None``."""
        return self._instruments.get(name)

    def value(self, name: str) -> int:
        """The current value of counter ``name``.

        An unknown name raises ``KeyError``, so a reader of a renamed or
        deleted instrument fails instead of reading a fresh zero.
        """
        instrument = self._instruments[name]
        if isinstance(instrument, Histogram):
            raise TypeError(f"metric {name!r} is a histogram: it has no value")
        return instrument.value

    def snapshot(self) -> dict:
        """All instruments as plain JSON-serializable dicts, name-sorted."""
        return {
            name: self._instruments[name]._snapshot()
            for name in sorted(self._instruments)
        }

    def catalogue(self) -> list[dict]:
        """The documented metric catalogue: name, type, unit, emitting site."""
        return [
            {
                "name": name,
                "type": inst.kind,
                "unit": inst.unit,
                "site": inst.site,
            }
            for name, inst in sorted(self._instruments.items())
        ]

    def __len__(self) -> int:
        return len(self._instruments)


#: The process-wide registry.  Never rebound — modules cache instrument
#: handles from it at import time; flip :attr:`MetricsRegistry.enabled`
#: (or call ``enable()``/``disable()``) to control recording globally.
METRICS = MetricsRegistry(enabled=True)
