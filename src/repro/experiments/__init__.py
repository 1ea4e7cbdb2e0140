"""Experiment harness: one module per table / figure of the paper's evaluation.

Every module exposes a ``run(...)`` function returning an
:class:`~repro.experiments.common.ExperimentResult` whose rows are the same
rows/series the paper reports (SLO-attainment curves, throughput bars, deployment
breakdowns, ...).  The ``benchmarks/`` directory wires each of these into a
pytest-benchmark target; ``docs/benchmarks.md`` catalogs them and records
where the measured shapes depart from the paper's.

Absolute numbers differ from the paper (our substrate is a simulator, not the
authors' Vast.ai testbed) — the quantities to compare are the *shapes*: which
system wins, by roughly what factor, and where behaviour crosses over.
"""

from repro.experiments.common import ExperimentResult

__all__ = ["ExperimentResult"]
