"""Command-line harness: generate | solve | run | verify | bench.

Reports are canonical JSON (sorted keys, fixed indentation) and contain no
wall-clock data, so identical flags and seed produce byte-identical output;
pass --timings to print stage durations to stderr instead. The bench command
is the exception: measuring time is its purpose, and its report says so.

Exit status: 0 on success, 1 when verify finds a failed asserted check or an
instance it could not check, or bench finds solvers disagreeing, 2 on usage
or input errors.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from . import serialize as ser
from . import verify as ver
from .errors import AuctionError, CapacityError, FormatError
from .generators import (
    DEFAULT_CORPUS_SEED,
    GENERATOR_KINDS,
    generate,
    standard_corpus,
    truthfulness_corpus,
)
from .lp import LP_ITEM_CAP, build_full_lp, solve_column_generation, solve_exact
from .mechanism import (
    ATOM_CAP,
    MechanismConfig,
    Pipeline,
    Q_HALT,
    Q_OWN_ITEMS,
    SOLVER_COLGEN,
    SOLVER_FULL,
    default_params,
    realized_welfare,
)
from .rng import derive_seed
from .valuations import PROXY_SUBSET_CAP
from .verify import INTEGRAL_CAP, VERTEX_ENUM_CAP

MANIFEST_SCHEMA = "corpus-manifest/1"
REPORT_SCHEMA = "run-report/2"
VERIFY_SCHEMA = "verify-report/1"
# outcomes per bench sample_seconds timing, as in run --replications 1000
BENCH_SAMPLES = 1000

DEFAULT_CHECKS = "welfare,marginals,approximation,proxy-bound,lp"
ALL_CHECKS = (
    "welfare",
    "marginals",
    "approximation",
    "proxy-bound",
    "lp",
    "halt-freq",
    "monte-carlo",
    "truthfulness",
)


def _instance_digest(instance) -> str:
    return hashlib.sha256(
        ser.canonical_dumps(ser.instance_to_dict(instance)).encode("utf-8")
    ).hexdigest()[:16]


CAP_DEFAULTS = {
    "proxy": PROXY_SUBSET_CAP,
    "lp": LP_ITEM_CAP,
    "atoms": ATOM_CAP,
    "integral": INTEGRAL_CAP,
}


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational like 1/20, got {text!r}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _positive_ints(text: str) -> list[int]:
    return [_positive_int(part) for part in text.split(",")]


def _caps(text: str) -> dict[str, int]:
    """Every cap: the key=integer pairs given, the defaults for the rest."""
    caps = dict(CAP_DEFAULTS)
    for part in text.split(",") if text else ():
        key, _, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if key not in caps or not (value.isascii() and value.isdigit()):
            raise argparse.ArgumentTypeError(
                f"bad entry {part!r}; expected key=integer with keys {', '.join(CAP_DEFAULTS)}"
            )
        caps[key] = int(value)
    return caps


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--c", type=_rational, help="keep probability, a rational like 1/267 (default: from m)"
    )
    parser.add_argument("--p", type=_rational, help="survival probability, a rational like 1/20")
    parser.add_argument(
        "--q-variant", choices=[Q_HALT, Q_OWN_ITEMS], help="q event scope (default: halt)"
    )
    parser.add_argument("--seed", type=int, help="master seed (default: 0)")
    parser.add_argument(
        "--solver", choices=[SOLVER_FULL, SOLVER_COLGEN], help="LP method (default: full)"
    )
    parser.add_argument(
        "--caps",
        type=_caps,
        default="",
        help=f"enumeration caps as key=int pairs, comma separated; keys: {', '.join(CAP_DEFAULTS)}",
    )


def _pipeline(instance, config, caps: dict) -> Pipeline:
    return Pipeline(
        instance, config, atom_cap=caps["atoms"], proxy_cap=caps["proxy"], lp_cap=caps["lp"]
    )


def _build_config(args, m: int, base: MechanismConfig | None = None) -> MechanismConfig:
    """Merge CLI flags over a manifest config over built-in defaults."""
    if base is None:
        # only c's default needs m >= 4, so it is computed only without --c
        c = default_params(m)[0] if args.c is None else args.c
        base = MechanismConfig(c=c, p=Fraction(1, 20))
    flags = {
        "c": args.c,
        "p": args.p,
        "q_variant": args.q_variant,
        "seed": args.seed,
        "solver": args.solver,
    }
    return replace(base, **{k: v for k, v in flags.items() if v is not None})


def _emit(args, report: dict, text: str | None = None) -> None:
    if getattr(args, "format", "json") == "table" and text is not None:
        payload = text if text.endswith("\n") else text + "\n"
    else:
        payload = ser.canonical_dumps(report)
    if getattr(args, "out", None):
        Path(args.out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)


def _table(rows: list[list[str]]) -> str:
    if not rows:
        return ""
    widths = [max(len(str(row[i])) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows
    )


# -- generate ----------------------------------------------------------------


def cmd_generate(args) -> int:
    if args.corpus:
        out_dir = Path(args.out_dir or args.corpus + "-corpus")
        out_dir.mkdir(parents=True, exist_ok=True)
        corpus = (
            standard_corpus(args.seed if args.seed is not None else DEFAULT_CORPUS_SEED)
            if args.corpus == "standard"
            else truthfulness_corpus(args.seed if args.seed is not None else DEFAULT_CORPUS_SEED)
        )
        manifest = {"schema": MANIFEST_SCHEMA, "instances": []}
        for item in corpus:
            fname = f"{item.label}.json"
            ser.save_instance(out_dir / fname, item.instance)
            manifest["instances"].append(
                {
                    "file": fname,
                    "label": item.label,
                    "config": ser.config_to_dict(item.config),
                }
            )
        ser.save_json(out_dir / "manifest.json", manifest)
        sys.stderr.write(f"wrote {len(corpus)} instances to {out_dir}/\n")
        return 0
    if args.kind is None or args.n is None or args.m is None:
        raise AuctionError("generate needs either --corpus or all of --kind/--n/--m")
    params = {}
    if args.clauses is not None:
        if args.kind != "xos":
            raise AuctionError("--clauses only applies to --kind xos")
        params["clauses"] = args.clauses
    if args.elements is not None:
        if args.kind != "coverage":
            raise AuctionError("--elements only applies to --kind coverage")
        params["elements"] = args.elements
    instance = generate(
        args.kind, args.n, args.m, args.seed if args.seed is not None else 0, **params
    )
    payload = ser.instance_to_dict(instance)
    if args.out:
        ser.save_json(args.out, payload)
    else:
        sys.stdout.write(ser.canonical_dumps(payload))
    return 0


# -- solve -------------------------------------------------------------------


def cmd_solve(args) -> int:
    instance = ser.load_instance(args.instance)
    if args.valuations == "proxy":
        config = _build_config(args, instance.m)
        oracles = instance.proxies(config.c, subset_cap=args.caps["proxy"])
        objective_kind = "proxy"
    else:
        # the raw objective is the proxy objective at c = 1 (no thinning)
        c = Fraction(1) if args.c is None else args.c
        ns = argparse.Namespace(**{**vars(args), "c": c})
        config = _build_config(ns, instance.m)
        oracles = instance.valuations
        objective_kind = "raw"
    started = time.perf_counter()
    if config.solver == SOLVER_COLGEN:
        solution = solve_column_generation(instance, oracles)
    else:
        lp = build_full_lp(instance, oracles, item_cap=args.caps["lp"])
        solution = solve_exact(lp)
    elapsed = time.perf_counter() - started
    if args.timings:
        sys.stderr.write(f"solve: {elapsed:.4f}s\n")
    report = {
        "schema": REPORT_SCHEMA,
        "command": "solve",
        "instance": {
            "path": str(args.instance),
            "digest": _instance_digest(instance),
            "n": instance.n,
            "m": instance.m,
        },
        "config": ser.config_to_dict(config),
        "objective_kind": objective_kind,
        "semantics": config.semantics(),
        "solution": ser.solution_to_dict(solution),
        "query_counts": instance.query_totals(),
    }
    rows = [["bidder", "bundle", "x"]]
    for i, bundle, x in solution.support():
        rows.append([str(i), repr(bundle), str(x)])
    text = f"objective ({objective_kind}): {solution.objective}\n" + _table(rows)
    _emit(args, report, text)
    return 0


# -- run ---------------------------------------------------------------------


def cmd_run(args) -> int:
    instance = ser.load_instance(args.instance)
    config = _build_config(args, instance.m)
    started = time.perf_counter()
    pipeline = _pipeline(instance, config, args.caps)
    if args.replications is None:
        seeds = [config.seed]
    else:
        seeds = [derive_seed(config.seed, "replication", r) for r in range(args.replications)]
    outcomes = [pipeline.sample(seed) for seed in seeds]
    payments = pipeline.payments() if args.payments else None
    elapsed = time.perf_counter() - started
    if args.timings:
        sys.stderr.write(f"run: {elapsed:.4f}s for {len(seeds)} outcome(s)\n")

    outcome_dicts = []
    for seed, outcome in zip(seeds, outcomes):
        entry = ser.outcome_to_dict(outcome)
        entry["sample_seed"] = seed
        entry["welfare"] = ser.format_value(realized_welfare(instance, outcome))
        outcome_dicts.append(entry)
    report = {
        "schema": REPORT_SCHEMA,
        "command": "run",
        "instance": {
            "path": str(args.instance),
            "digest": _instance_digest(instance),
            "n": instance.n,
            "m": instance.m,
        },
        "config": ser.config_to_dict(config),
        "semantics": config.semantics(),
        "lp": ser.solution_to_dict(pipeline.solution),
        "outcomes": outcome_dicts,
        "payments": None if payments is None else [ser.format_value(x) for x in payments],
        "query_counts": instance.query_totals(),
    }
    rows = [["outcome", "halted", "final bundles", "welfare"]]
    for k, (outcome, entry) in enumerate(zip(outcomes, outcome_dicts)):
        rows.append(
            [
                str(k),
                "yes" if outcome.halted else "no",
                " ".join(repr(b) for b in outcome.final),
                entry["welfare"],
            ]
        )
    text = (
        f"LP objective (proxy): {pipeline.solution.objective}\n"
        + _table(rows)
        + (f"\npayments: {[str(x) for x in payments]}" if payments is not None else "")
    )
    _emit(args, report, text)
    return 0


# -- verify ------------------------------------------------------------------


def _checks_for(instance, config, checks: list[str], trials: int, caps: dict) -> list[dict]:
    # one mechanism and one outcome law per (instance, config), built on first
    # use: proxy-bound alone needs neither
    @functools.cache
    def pipeline() -> Pipeline:
        return _pipeline(instance, config, caps)

    @functools.cache
    def law() -> ver.OutcomeDistribution:
        return ver.exact_distribution(pipeline())

    run = {
        "welfare": lambda: ver.check_welfare_identity(pipeline(), law()),
        "marginals": lambda: ver.check_keep_marginals(pipeline(), law()),
        "approximation": lambda: ver.check_approximation(
            pipeline(), law(), cap=caps["integral"]
        ),
        "proxy-bound": lambda: ver.check_proxy_bound(instance, proxy_cap=caps["proxy"]),
        "lp": lambda: ver.check_lp_agreement(pipeline()),
        "halt-freq": lambda: ver.check_halt_frequency(pipeline(), trials),
        "monte-carlo": lambda: ver.check_monte_carlo(pipeline(), law(), trials),
        "truthfulness": lambda: ver.check_truthfulness(pipeline()),
    }
    results = []
    for name in checks:
        res = run[name]()
        # truthfulness is recorded, not asserted, under the own-items variant
        asserted = name != "truthfulness" or config.q_variant == Q_HALT
        results.append(
            {
                "check": res.check,
                "passed": res.passed,
                "asserted": asserted,
                "details": res.details,
                "witness": res.witness,
            }
        )
    return results


def _error_record(exc: AuctionError) -> dict:
    """A failed result standing for an instance that raised instead of checking."""
    details = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, CapacityError):
        details.update(what=exc.what, required=exc.required, cap=exc.cap)
    return dict(check="error", passed=False, asserted=True, details=details, witness=None)


def _verify_worker(payload: tuple) -> tuple[str, list[dict]]:
    path, config_dict, checks, trials, overrides, caps = payload
    config = None
    try:
        instance = ser.load_instance(path)
        base = ser.config_from_dict(config_dict) if config_dict else None
        ns = argparse.Namespace(**overrides)
        config = _build_config(ns, instance.m, base=base)
        results = _checks_for(instance, config, checks, trials, caps)
    except AuctionError as exc:  # one bad or oversize instance does not end the run
        results = [_error_record(exc)]
    for r in results:
        r["instance"] = str(path)
        r["config"] = None if config is None else ser.config_to_dict(config)
    return str(path), results


def _verify_targets(args) -> list[tuple[str, dict | None]]:
    target = Path(args.target)
    if target.is_dir():
        manifest_path = target / "manifest.json"
        if manifest_path.exists():
            manifest = ser.load_json(manifest_path)
            return [
                (str(target / item["file"]), item.get("config"))
                for item in manifest.get("instances", [])
            ]
        return [(str(p), None) for p in sorted(target.glob("*.json")) if _is_instance_file(p)]
    return [(str(target), None)]


def _is_instance_file(path: Path) -> bool:
    """An instance file, or a file that is not JSON: its worker reports the FormatError."""
    try:
        data = ser.load_json(path)
    except FormatError:
        return True
    return isinstance(data, dict) and data.get("schema") == ser.INSTANCE_SCHEMA


def cmd_verify(args) -> int:
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = [name for name in checks if name not in ALL_CHECKS]
    if unknown:
        raise AuctionError(f"unknown check {unknown[0]!r}; choose from {ALL_CHECKS}")
    if not checks:
        raise AuctionError(f"--checks names no check; choose from {ALL_CHECKS}")
    targets = _verify_targets(args)
    if not targets:
        raise AuctionError(f"no instances found under {args.target}")
    overrides = {
        "c": args.c,
        "p": args.p,
        "q_variant": args.q_variant,
        "seed": args.seed,
        "solver": args.solver,
    }
    payloads = [(path, cfg, checks, args.trials, overrides, args.caps) for path, cfg in targets]
    started = time.perf_counter()
    workers = min(args.workers, len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            collected = list(pool.map(_verify_worker, payloads))
    else:
        collected = [_verify_worker(p) for p in payloads]
    elapsed = time.perf_counter() - started
    if args.timings:
        sys.stderr.write(f"verify: {elapsed:.4f}s over {len(targets)} instance(s)\n")

    results = [r for _, rs in collected for r in rs]
    failed = [r for r in results if r["asserted"] and not r["passed"]]
    report = {
        "schema": VERIFY_SCHEMA,
        "command": "verify",
        "checks": checks,
        "results": results,
        "passed": not failed,
    }
    rows = [["result", "check", "instance"]]
    for r in results:
        if r["check"] == "error":
            status = "ERROR"
        else:
            status = "PASS" if r["passed"] else ("FAIL" if r["asserted"] else "info")
        rows.append([status, r["check"], Path(r["instance"]).name])
    text = _table(rows) + f"\noverall: {'PASS' if not failed else 'FAIL'}"
    _emit(args, report, text)
    return 0 if not failed else 1


# -- bench -------------------------------------------------------------------


def cmd_bench(args) -> int:
    rows = [
        [
            "m",
            "columns",
            "lp-build s",
            "exact-full s",
            "pivots",
            "exact-colgen s",
            "vertex-enum s",
            "sample s",
            "objectives",
        ]
    ]
    records = []
    sample_seeds = [derive_seed(args.seed, "replication", r) for r in range(BENCH_SAMPLES)]
    for m in args.m_list:
        instance = generate(args.kind, args.n, m, args.seed)
        c, p = default_params(m) if m >= 4 else (Fraction(1, 2), Fraction(1, 20))

        def time_it(fn, repeat=args.repeat):
            best, value = None, None
            for _ in range(repeat):
                t0 = time.perf_counter()
                value = fn()
                dt = time.perf_counter() - t0
                best = dt if best is None else min(best, dt)
            return best, value

        # fresh proxies per repeat, so the LP build and column generation
        # both pay for filling the proxy values
        t_build, lp = time_it(lambda: build_full_lp(instance, instance.proxies(c)))
        t_exact, sol_exact = time_it(lambda: solve_exact(lp))
        t_colgen, sol_colgen = time_it(
            lambda: solve_column_generation(instance, instance.proxies(c))
        )
        if ver.basis_count(lp) <= VERTEX_ENUM_CAP:
            t_vertex, vertex_obj = time_it(lambda: ver.enumerate_vertex_optimum(lp))
        else:
            t_vertex = vertex_obj = "skipped"
        # the first repeat also fills the pipeline's q cache
        pipeline = Pipeline(instance, MechanismConfig(c=c, p=p), solution=sol_exact)
        t_sample, _ = time_it(lambda: [pipeline.sample(seed) for seed in sample_seeds])
        agree = (
            sol_exact.objective == sol_colgen.objective
            and vertex_obj in ("skipped", sol_exact.objective)
        )
        rows.append(
            [
                str(m),
                str(len(lp.columns)),
                f"{t_build:.4f}",
                f"{t_exact:.4f}",
                str(sol_exact.pivots),
                f"{t_colgen:.4f}",
                t_vertex if vertex_obj == "skipped" else f"{t_vertex:.4f}",
                f"{t_sample:.4f}",
                "agree" if agree else "MISMATCH",
            ]
        )
        records.append(
            {
                "m": m,
                "columns": len(lp.columns),
                "lp_build_seconds": t_build,
                "exact_full_seconds": t_exact,
                "exact_full_pivots": sol_exact.pivots,
                "exact_colgen_seconds": t_colgen,
                "vertex_enum_seconds": t_vertex,
                "vertex_enum_objective": str(vertex_obj),
                "sample_seconds": t_sample,
                "objective": str(sol_exact.objective),
                "objectives_agree": agree,
            }
        )
    report = {
        "schema": "bench-report/4",
        "command": "bench",
        "kind": args.kind,
        "n": args.n,
        "seed": args.seed,
        "repeat": args.repeat,
        "samples": BENCH_SAMPLES,
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "note": "timings are wall-clock; this report is not byte-reproducible",
        "rows": records,
    }
    _emit(args, report, _table(rows))
    return 0 if all(r["objectives_agree"] for r in records) else 1


# -- entry -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxyauction",
        description=(
            "Truthful-in-expectation combinatorial auction mechanism: instance "
            "generation, configuration-LP solving, randomized allocation runs, "
            "and exact verification of the mechanism's probabilistic identities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="create instance files or a bundled corpus")
    g.add_argument("--kind", choices=GENERATOR_KINDS)
    g.add_argument("--n", type=int, help="bidder count")
    g.add_argument("--m", type=int, help="item count")
    g.add_argument("--seed", type=int)
    g.add_argument("--clauses", type=_positive_int, help="xos only: additive clauses per bidder")
    g.add_argument("--elements", type=_positive_int, help="coverage only: ground-set size")
    g.add_argument("--out", help="instance file (default: stdout)")
    g.add_argument("--corpus", choices=["standard", "truthfulness"])
    g.add_argument("--out-dir", help="directory for --corpus output")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="solve the configuration LP for an instance")
    s.add_argument("instance")
    s.add_argument("--valuations", choices=["raw", "proxy"], default="raw")
    _add_config_flags(s)
    s.add_argument("--format", choices=["json", "table"], default="json")
    s.add_argument("--out")
    s.add_argument("--timings", action="store_true", help="print wall-clock to stderr")
    s.set_defaults(func=cmd_solve)

    r = sub.add_parser("run", help="execute the mechanism on an instance")
    r.add_argument("instance")
    _add_config_flags(r)
    r.add_argument(
        "--replications", type=_positive_int, help="sample R outcomes over derived seeds"
    )
    r.add_argument("--payments", action="store_true", help="also compute charges")
    r.add_argument("--format", choices=["json", "table"], default="json")
    r.add_argument("--out")
    r.add_argument("--timings", action="store_true")
    r.set_defaults(func=cmd_run)

    v = sub.add_parser("verify", help="run certification checks on instances")
    v.add_argument("target", help="instance file, corpus directory, or manifest directory")
    v.add_argument("--checks", default=DEFAULT_CHECKS, help=f"comma list from {ALL_CHECKS}")
    v.add_argument("--trials", type=_positive_int, default=10_000, help="Monte Carlo trials")
    v.add_argument("--workers", type=_positive_int, default=1, help="parallel instance workers")
    _add_config_flags(v)
    v.add_argument("--format", choices=["json", "table"], default="json")
    v.add_argument("--out")
    v.add_argument("--timings", action="store_true")
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser(
        "bench",
        help="time the LP build, the full, column-generation and vertex-enumeration solves and "
        "1,000 outcome samples, and check that the solvers' objectives agree",
    )
    b.add_argument("--kind", choices=GENERATOR_KINDS, default="xos")
    b.add_argument("--n", type=int, default=3)
    b.add_argument("--m-list", type=_positive_ints, default="4,6,8", help="comma list of m")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--repeat", type=_positive_int, default=3, help="runs per timing (best kept)")
    b.add_argument("--format", choices=["json", "table"], default="table")
    b.add_argument("--out")
    b.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AuctionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
