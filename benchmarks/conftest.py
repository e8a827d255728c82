"""Benchmark configuration.

Every benchmark regenerates one table/figure of the paper at
``REPRO_BENCH_SCALE`` (default 1.0 = the paper's exact instruction
counts; set e.g. 0.1 for a quick pass).  Results are printed as
paper-style tables at the end of the session and recorded in each
benchmark's ``extra_info``.

The *timed* quantity is the wall-clock of the simulation; the quantities
that reproduce the paper are the simulated cycle counts in extra_info —
wall time is only a sanity signal.
"""

from __future__ import annotations

import os
import platform

import pytest

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

_tables: list[str] = []


def record_table(text: str) -> None:
    _tables.append(text)


def host_metadata() -> dict:
    """Host facts stamped into every ``BENCH_*.json`` artifact.

    Wall-clock numbers are only comparable across PRs when the machine
    behind them is known; this makes the perf trajectory interpretable
    (and makes CI-runner numbers distinguishable from workstation runs).
    """
    return {
        "cpu_count": os.cpu_count(),
        "python_version": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def stamp_artifact(payload: dict) -> dict:
    """Attach :func:`host_metadata` to a benchmark payload in place."""
    payload.setdefault("host", host_metadata())
    return payload


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return SCALE


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _tables:
        terminalreporter.write_line("")
        terminalreporter.write_line("=" * 100)
        terminalreporter.write_line(
            f"Paper-figure reproductions (scale={SCALE}):"
        )
        for table in _tables:
            terminalreporter.write_line("")
            for line in table.splitlines():
                terminalreporter.write_line(line)
        terminalreporter.write_line("=" * 100)
