"""The figure experiments: timing helpers, builders and the registry.

:mod:`repro.bench.experiments` holds one function per paper figure and
:data:`~repro.bench.experiments.FIGURES`, the registry that names them;
``benchmarks/figures.py`` at the repository root is the one command that
runs it (``[id ...] [--quick] [--check]``) and the source of every number
in EXPERIMENTS.md.
"""

from repro.bench.builders import build_uniform_segments, insert_under
from repro.bench.experiments import FIGURES, Figure, spine_document
from repro.bench.harness import Sweep, Table, measure, measure_cold_join

__all__ = [
    "measure",
    "measure_cold_join",
    "Table",
    "Sweep",
    "insert_under",
    "build_uniform_segments",
    "spine_document",
    "FIGURES",
    "Figure",
]
