"""Observability: the metrics registry and per-query trace spans.

See :mod:`repro.obs.metrics` for the registry (counters, fixed-bucket
latency histograms, the process-wide ``METRICS`` singleton and its kill
switch) and :mod:`repro.obs.trace` for the span API.  The metric
catalogue — every instrument's name, type, unit and emitting site — is
documented in DESIGN.md §4d and exported live by
``MetricsRegistry.catalogue()``.
"""

from repro.obs.metrics import (
    METRICS,
    Counter,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import Span, Trace

__all__ = [
    "METRICS",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Trace",
]
