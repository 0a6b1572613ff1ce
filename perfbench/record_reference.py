"""Record the reference values the benchmark's output checks compare against.

Run from the root of a source checkout at a trusted commit:

    python3 perfbench/record_reference.py > perfbench/reference.json

certify-standard records the exact objectives ``verify`` certifies.
replicate records, per standard instance, the standard deviation of one
outcome's realized welfare, estimated from SIGMA_TRIALS outcomes. The
deviation is a property of the outcome law, not of the random source, so it
stays valid when a later change draws different outcomes from the same law.
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from proxyauction import serialize as ser  # noqa: E402
from proxyauction.mechanism import MechanismConfig, Pipeline, realized_welfare  # noqa: E402
from proxyauction.rng import derive_seed  # noqa: E402

SIGMA_TRIALS = 20_000


def verify_references() -> dict:
    reference = {}
    for label, argv in workloads.verify_argvs(ROOT):
        code, stdout = workloads.quiet_main(argv)
        report = json.loads(stdout)
        if code != 0 or not report["passed"]:
            raise SystemExit(f"{label}: verify did not pass (exit {code})")
        reference[label] = workloads.certify_values(report)
    return reference


def welfare_sigma(path: Path, config: dict) -> float:
    """Sample standard deviation of realized welfare over SIGMA_TRIALS outcomes."""
    instance = ser.load_instance(path)
    pipeline = Pipeline(instance, MechanismConfig(
        c=Fraction(config["c"]), p=Fraction(config["p"]), q_variant=config["q_variant"],
        solver=config["solver"], seed=config["seed"],
    ))
    welfares = [realized_welfare(instance, pipeline.sample(derive_seed(config["seed"], "sigma", t)))
                for t in range(SIGMA_TRIALS)]
    mean = sum(welfares, Fraction(0)) / SIGMA_TRIALS
    var = sum(((w - mean) ** 2 for w in welfares), Fraction(0)) / (SIGMA_TRIALS - 1)
    return math.sqrt(var)


def main() -> int:
    os.chdir(ROOT)  # verify_argvs names files relative to the checkout root
    reference = {"certify-standard": verify_references()}
    reference["replicate"] = {
        label: {"welfare_sigma": welfare_sigma(path, config), "trials": SIGMA_TRIALS}
        for path, label, config in workloads.manifest(ROOT, "standard")
    }
    json.dump(reference, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
