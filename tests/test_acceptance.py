"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. Every
equality here is exact rational equality (zero tolerance); the two sampling
criteria use the normal-approximation slack stated in their bounds.
"""

import math
import time
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

from fixtures import overlap_demo, prepared, random_feasible_solution
from proxyauction.cli import main
from proxyauction.generators import generate, standard_corpus, truthfulness_corpus
from proxyauction.lp import build_full_lp, solve_column_generation, solve_exact
from proxyauction.mechanism import MechanismConfig, Pipeline, Q_OWN_ITEMS, default_params
from proxyauction.valuations import AdditiveValuation, Instance, ProxyValuation
from proxyauction.verify import (
    check_halt_frequency,
    check_keep_marginals,
    check_monte_carlo,
    check_truthfulness,
    check_welfare_identity,
    enumerate_vertex_optimum,
    exact_distribution,
    optimal_integral_welfare,
)

CORPUS = standard_corpus()
CORPUS_DIR = Path(__file__).parent.parent / "corpus" / "standard"


def report(num: int, text: str) -> None:
    print(f"\n[PASS] criterion {num}: {text}")


def test_criterion_01_welfare_identity_exact():
    started = time.perf_counter()
    assert len(CORPUS) >= 20
    for item in CORPUS:
        res = check_welfare_identity(*prepared(item.instance, item.config))
        assert res.passed, (item.label, res.details)
        assert F(res.details["gap"]) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    report(1, f"expected welfare == p * LP objective exactly on {len(CORPUS)} "
              f"instances ({elapsed:.1f}s)")


def test_criterion_02_keep_marginals_exact():
    entries = 0
    for item in CORPUS:
        res = check_keep_marginals(*prepared(item.instance, item.config))
        assert res.passed, (item.label, res.details)
        assert res.details["deficits"] == []
        entries += res.details["entries"]
    assert entries > 0
    report(2, f"survival marginal == p * x[i,S] exactly for {entries} support entries")


def test_criterion_03_proxy_bound_exhaustive():
    keep_probs = (F(1), F(1, 2), F(1, 3), F(1, 4))
    valuations = [v for item in CORPUS for v in item.instance.valuations]
    # widen to the full stated range with eight-item instances of every kind
    for kind in ("additive", "unit-demand", "xos", "coverage", "explicit-subadditive"):
        valuations.extend(generate(kind, 1, 8, 88).valuations)
    checked = 0
    for v in valuations:
        for c in keep_probs:
            proxy = ProxyValuation(v, c)
            for mask in range(1 << v.m):
                assert proxy._value(mask) >= c * v._value(mask), (v.kind, c, mask)
                checked += 1
    report(3, f"proxy value >= c * value on {checked} (valuation, c, bundle) triples")


def test_criterion_04_approximation_bound():
    for item in CORPUS:
        dist = exact_distribution(Pipeline(item.instance, item.config))
        opt = optimal_integral_welfare(item.instance)
        bound = item.config.c * item.config.p * opt
        assert dist.expected_welfare >= bound, (item.label, dist.expected_welfare, bound)
    report(4, f"expected welfare >= c * p * integral optimum on {len(CORPUS)} instances")


def test_criterion_05_truthfulness_in_expectation():
    started = time.perf_counter()
    corpus = truthfulness_corpus()
    assert len(corpus) >= 10
    assert any("contended" in item.label for item in corpus)  # halts live on one
    cases = 0
    for item in corpus:
        res = check_truthfulness(Pipeline(item.instance, item.config))
        assert res.passed, (item.label, res.witness)
        cases += res.details["misreports_checked"]
    elapsed = time.perf_counter() - started
    assert elapsed < 300
    report(5, f"no profitable misreport among {cases} cases on {len(corpus)} "
              f"explicit instances (one with live halting risk); truthful "
              f"utilities nonnegative ({elapsed:.1f}s)")


def test_criterion_06_halt_frequency_bound():
    m, trials = 64, 10_000
    c, p = default_params(m)
    config = MechanismConfig(c=c, p=p, seed=64)
    instance = Instance(m, tuple(AdditiveValuation([1] * m) for _ in range(12)))
    bound = 1 / m + 3 * math.sqrt(1 / (m * trials))
    freqs = []
    for s in range(5):
        sol = random_feasible_solution(12, m, s, bundles_per_bidder=4, max_bundle_items=6)
        pipeline = Pipeline(instance, replace(config, seed=s), solution=sol)
        res = check_halt_frequency(pipeline, trials)
        assert res.asserted and res.passed, res.details  # 1/c = 233 is the paper's regime
        freqs.append(res.details["frequency"])
    report(6, f"halt frequency {max(freqs):.5f} <= {bound:.5f} over 5 feasible "
              f"solutions at m=64, 1/c={config.inv_c}, {trials} trials each")


def test_criterion_07_lp_cross_validation():
    small = [
        (item.label, item.instance, item.config.c)
        for item in CORPUS
        if item.instance.n <= 2 and item.instance.m <= 3
    ]
    for kind in ("additive", "unit-demand", "xos", "coverage", "explicit-subadditive"):
        for seed in (0, 1):
            small.append((f"{kind}-{seed}", generate(kind, 2, 3, seed), F(1, 2)))
    assert len(small) >= 10
    for label, instance, c in small:
        lp = build_full_lp(instance, instance.proxies(c))
        assert solve_exact(lp).objective == enumerate_vertex_optimum(lp), label
    for item in CORPUS:
        pipe = Pipeline(item.instance, item.config)
        cg = solve_column_generation(item.instance, pipe.proxies)
        assert cg.objective == pipe.solution.objective, item.label
    report(7, f"simplex == vertex enumeration on {len(small)} small instances; "
              f"column generation == full solve on all {len(CORPUS)}")


def test_criterion_08_monte_carlo_consistency():
    trials = 10_000
    for item in CORPUS:
        res = check_monte_carlo(*prepared(item.instance, item.config), trials)
        assert res.passed, (item.label, res.details)
        assert res.details["sigmas"] == 4.0
    report(8, f"sampled mean welfare within 4 sigma of the exact expectation "
              f"({trials} trials) on {len(CORPUS)} instances")


def test_criterion_09_byte_identical_reports(tmp_path):
    instance_file = CORPUS_DIR / "01-additive-n2-m3.json"
    flags = ["--c", "1/2", "--p", "1/20", "--seed", "31"]
    run_a, run_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", str(instance_file), *flags, "--payments", "--out", str(run_a)]) == 0
    assert main(["run", str(instance_file), *flags, "--payments", "--out", str(run_b)]) == 0
    assert run_a.read_bytes() == run_b.read_bytes()
    ver_a, ver_b = tmp_path / "va.json", tmp_path / "vb.json"
    args = ["verify", str(instance_file), *flags, "--checks", "welfare,marginals"]
    assert main([*args, "--out", str(ver_a)]) == 0
    assert main([*args, "--out", str(ver_b)]) == 0
    assert ver_a.read_bytes() == ver_b.read_bytes()
    report(9, "repeated run and verify invocations with fixed flags and seed "
              "produce byte-identical reports")


def test_criterion_10_own_items_variant_undercounts():
    instance, solution = overlap_demo()
    own = MechanismConfig(c=F(1), p=F(1, 20), q_variant=Q_OWN_ITEMS)
    res = check_keep_marginals(*prepared(instance, own, solution=solution))
    deficits = res.details["deficits"]
    assert len(deficits) == 1
    gap = F(deficits[0]["deficit"])
    assert gap == F(1, 160) and gap > 0
    assert F(deficits[0]["target"]) == F(1, 40)
    assert F(deficits[0]["marginal"]) == F(3, 160)
    halt = MechanismConfig(c=F(1), p=F(1, 20))
    exact = check_keep_marginals(*prepared(instance, halt, solution=solution))
    assert exact.passed and exact.details["deficits"] == []
    report(10, "own-items q variant leaves a survival marginal 1/160 below "
               "p * x on the overlap construction; the halt variant is exact there")
