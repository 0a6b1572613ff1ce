"""The benchmark's three workloads: op lists and per-op output checks.

An op is one ``proxyauction.cli.main(argv)`` call. Each workload builds one
round of ops from the workload seed; the program only ever sees the argv and
the files it names. File arguments are relative to the checkout root, which
must be the working directory, so reports do not depend on where the checkout
lives. Every op's report is checked against mathematical
invariants (never report bytes, which later changes may legitimately alter).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from proxyauction import cli

REPLICATIONS = 1000
SIGMAS = 4.0

# auction instances (kind, n, m): n(2^m - 1) = 189, 189, 381 and 508 LP
# columns. They are generated at one fixed generator seed: LP pivot counts, and
# so op times, vary by up to 3x between random instances of one shape, which
# would make the workload's cost depend on the workload seed. The workload seed
# sets the order.
AUCTION_SHAPES = (
    ("xos", 3, 6),
    ("coverage", 3, 6),
    ("mixed", 3, 7),
    ("mixed", 4, 7),
)
AUCTION_GENERATOR_SEED = 1
AUCTION_SOLVERS = ("full", "column-generation")


@dataclass
class Op:
    argv: list
    label: str
    # check(exit code, stdout) -> failure message, or None when the output is right
    check: Callable[[object, str], Optional[str]]


def derive(seed: int, *labels) -> int:
    """Deterministic 63-bit child seed of the workload seed."""
    text = "|".join([str(seed), *map(str, labels)])
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big") >> 1


def rel(root: Path, path: Path) -> str:
    """A file argument, relative to the checkout root."""
    return os.path.relpath(path, root)


def config_flags(config: dict) -> list:
    return [
        "--c", config["c"],
        "--p", config["p"],
        "--q-variant", config["q_variant"],
        "--solver", config["solver"],
        "--seed", str(config["seed"]),
    ]


def quiet_main(argv: list) -> tuple[object, str]:
    """cli.main with stdout captured; returns (exit code or exception, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _report(code, stdout: str) -> dict:
    if code != 0:
        raise ValueError(f"exit status {code!r}")
    return json.loads(stdout)


def manifest(root: Path, corpus: str) -> list:
    data = json.loads((root / "corpus" / corpus / "manifest.json").read_text(encoding="utf-8"))
    return [(root / "corpus" / corpus / item["file"], item["label"], item["config"])
            for item in data["instances"]]


def verify_argvs(root: Path) -> list:
    """(label, argv) per standard instance: verify, default checks, manifest config."""
    return [(label, ["verify", rel(root, path), "--workers", "1", *config_flags(config)])
            for path, label, config in manifest(root, "standard")]


def _reference(root: Path, workload: str) -> dict:
    path = root / "perfbench" / "reference.json"
    return json.loads(path.read_text(encoding="utf-8"))[workload]


# -- certify-standard ----------------------------------------------------------

def certify_values(report: dict) -> dict:
    """The exact objectives a default-checks verify report certifies."""
    details = {r["check"]: r["details"] for r in report["results"]}
    lp = details["lp-agreement"]
    return {
        "simplex_objective": lp["simplex_objective"],
        "column_generation_objective": lp["column_generation_objective"],
        "vertex_enumeration_objective": lp["vertex_enumeration_objective"],
        "integral_opt": details["approximation"]["integral_opt"],
    }


def _certify_check(expected: dict):
    def check(code, stdout):
        report = _report(code, stdout)
        if report["passed"] is not True:
            return "verify report did not pass"
        got = certify_values(report)
        if got != expected:
            return f"objectives {got} differ from reference {expected}"
        return None
    return check


def certify_standard(root: Path, seed: int, workdir: Path) -> list:
    ref = _reference(root, "certify-standard")
    ops = [Op(argv, label, _certify_check(ref[label])) for label, argv in verify_argvs(root)]
    random.Random(seed).shuffle(ops)
    return ops


# -- auction -------------------------------------------------------------------

def _auction_check(label: str, objectives: dict):
    def check(code, stdout):
        report = _report(code, stdout)
        charges = [Fraction(x) for x in report["payments"]]
        if len(charges) != report["instance"]["n"] or any(x < 0 for x in charges):
            return f"charges {report['payments']} are not one nonnegative charge per bidder"
        objective = Fraction(report["lp"]["objective"])
        first = objectives.setdefault(label, objective)
        if objective != first:
            return f"LP objective {objective} differs across solvers ({first})"
        return None
    return check


def auction(root: Path, seed: int, workdir: Path) -> list:
    workdir.mkdir(parents=True, exist_ok=True)
    objectives: dict = {}
    ops = []
    for kind, n, m in AUCTION_SHAPES:
        label = f"{kind}-n{n}-m{m}"
        path = workdir / f"{label}.json"
        code, _ = quiet_main(["generate", "--kind", kind, "--n", str(n), "--m", str(m),
                              "--seed", str(AUCTION_GENERATOR_SEED), "--out", rel(root, path)])
        if code != 0:
            raise RuntimeError(f"generate {label} exited with {code!r}")
        for solver in AUCTION_SOLVERS:
            ops.append(Op(["run", rel(root, path), "--payments", "--solver", solver],
                          f"{label}-{solver}", _auction_check(label, objectives)))
    random.Random(seed).shuffle(ops)
    return ops


# -- replicate -----------------------------------------------------------------

def _replicate_check(expected: dict):
    """Halted outcomes allocate nothing; the mean welfare is p x the LP objective.

    The mean of REPLICATIONS outcomes must lie within SIGMAS standard errors of
    the exact mean, the bound ``check_monte_carlo`` uses. The standard error
    comes from the welfare deviation recorded in reference.json, not from the
    sample: at p = 1/20 about 95% of outcomes have zero welfare, and 1,000 of
    them too often miss the rare large values the sample deviation needs.
    """
    sigma = expected["welfare_sigma"]

    def check(code, stdout):
        report = _report(code, stdout)
        objective = Fraction(report["lp"]["objective"])
        if str(objective) != expected["lp_objective"]:
            return f"LP objective {objective} != reference {expected['lp_objective']}"
        outcomes = report["outcomes"]
        if len(outcomes) != REPLICATIONS:
            return f"{len(outcomes)} outcomes, expected {REPLICATIONS}"
        if any(o["halted"] and (any(o["final"]) or any(o["kept"])) for o in outcomes):
            return "a halted outcome allocates items"
        mean = sum((Fraction(o["welfare"]) for o in outcomes), Fraction(0)) / REPLICATIONS
        exact_mean = Fraction(report["config"]["p"]) * objective
        bound = SIGMAS * sigma / math.sqrt(REPLICATIONS)
        ok = mean == exact_mean if sigma == 0 else abs(float(mean - exact_mean)) <= bound
        if not ok:
            return f"mean welfare {float(mean)} is not within {bound} of {float(exact_mean)}"
        return None
    return check


def replicate(root: Path, seed: int, workdir: Path) -> list:
    ref = _reference(root, "replicate")
    objectives = _reference(root, "certify-standard")
    ops = []
    for path, label, config in manifest(root, "standard"):
        expected = {**ref[label], "lp_objective": objectives[label]["simplex_objective"]}
        config = {**config, "seed": derive(seed, "replicate", label)}
        ops.append(Op(["run", rel(root, path), "--replications", str(REPLICATIONS),
                       *config_flags(config)], label, _replicate_check(expected)))
    random.Random(seed).shuffle(ops)
    return ops


WORKLOADS = {
    "certify-standard": certify_standard,
    "auction": auction,
    "replicate": replicate,
}
