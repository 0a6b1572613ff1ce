"""Tests of the benchmark's tracing: deterministic counts and consistent self times.

Run from the root of a source checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNTERS, SPANS, Tracer  # noqa: E402

# a few cheap ops per workload, so the test takes seconds, not minutes
OPS_PER_WORKLOAD = 3


@pytest.fixture(autouse=True)
def checkout_root(monkeypatch):
    monkeypatch.chdir(ROOT)  # the ops name their files relative to the checkout root


def traced_round(workload: str, seed: int, workdir: Path) -> Tracer:
    ops = workloads.WORKLOADS[workload](ROOT, seed, workdir)
    ops = sorted(ops, key=lambda op: op.label)[:OPS_PER_WORKLOAD]
    tracer = Tracer()
    tracer.install()
    failures: list = []
    try:
        bench.run_round(ops, failures)
    finally:
        tracer.uninstall()
    assert failures == []
    return tracer


def counts(tracer: Tracer) -> dict:
    out = {name: tracer.counters.get(name, 0) for name in COUNTERS}
    out.update({f"{name}.calls": row["calls"] for name, row in tracer.summary().items()})
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly_for_one_seed(workload, tmp_path):
    first = counts(traced_round(workload, 7, tmp_path / "a"))
    second = counts(traced_round(workload, 7, tmp_path / "b"))
    assert first == second
    assert first["cli.main.calls"] == OPS_PER_WORKLOAD


def test_self_times_add_up_to_root_time(tmp_path):
    tracer = traced_round("replicate", 3, tmp_path)
    assert {span[4] for span in tracer.spans} == set(range(OPS_PER_WORKLOAD))
    summary = tracer.summary()
    self_sum = sum(row["self_s"] for row in summary.values())
    assert self_sum == pytest.approx(summary["cli.main"]["total_s"], rel=1e-9)
    assert summary["rng.stream"]["calls"] > 0


def test_uninstall_restores_the_package():
    import proxyauction.cli as cli
    import proxyauction.lp as lp

    before = (cli.solve_exact, lp.solve_exact, cli.main)
    tracer = Tracer()
    tracer.install()
    assert cli.solve_exact is lp.solve_exact is not before[0]
    tracer.uninstall()
    assert (cli.solve_exact, lp.solve_exact, cli.main) == before
    assert tracer.absent == []
    assert len(SPANS) == len({name for name, _, _ in SPANS})
