"""Command-line harness: generate | solve | run | verify | bench.

Each command returns (exit code, report or None, table renderer); ``main``
alone writes the report or its table, prints --timings and maps errors to exit
codes. Reports are canonical JSON (sorted keys, fixed indentation) with no
wall-clock data, so identical flags and seed produce byte-identical output;
--timings prints one stderr line, ``<command>: <seconds>s``, the command's
wall-clock time. bench is the exception: measuring time is its purpose, and
its report says so. A missing, unreadable or malformed file is a FormatError
(under verify, an ``error`` record), and ``generate`` rejects ignored flags.

Exit status: 0 on success, 1 when verify finds a failed asserted check or an
instance it could not check, or bench finds solvers disagreeing, 2 on usage
or input errors and on output that cannot be written.
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
from typing import Callable, Optional

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
from .itemsets import bundle_text
from .lp import build_full_lp, solve_column_generation, solve_exact
from .mechanism import (
    MechanismConfig,
    Pipeline,
    Q_HALT,
    Q_OWN_ITEMS,
    SOLVER_COLGEN,
    SOLVER_FULL,
    default_params,
)
from .rng import derive_seeds

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


CONFIG_FIELDS = ("c", "p", "q_variant", "seed", "solver")
CommandResult = tuple[int, Optional[dict], Optional[Callable[[], str]]]


def _rational(text: str) -> Fraction:
    try:
        return ser.parse_value(text)
    except AuctionError as exc:  # a FormatError, or a CapacityError past the length cap
        raise argparse.ArgumentTypeError(f"expected a rational like 1/20 ({exc})") from None


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


def _config_flags(args) -> dict:
    """The mechanism config fields given on the command line."""
    given = vars(args)
    return {key: given[key] for key in CONFIG_FIELDS if given[key] is not None}


def _build_config(flags: dict, m: int, base: MechanismConfig | None = None) -> MechanismConfig:
    """Merge config flags over a manifest config over built-in defaults."""
    if base is None:
        # only c's default needs m >= 4, so it is computed only without --c
        c = flags["c"] if "c" in flags else default_params(m)[0]
        base = MechanismConfig(c=c, p=Fraction(1, 20))
    return replace(base, **flags)


def _instance_block(path, instance) -> dict:
    """The report's ``instance`` block: the path given and a digest of the content."""
    text = ser.canonical_dumps(ser.instance_to_dict(instance))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    return {"path": str(path), "digest": digest, "n": instance.n, "m": instance.m}


def _emit(args, report: dict, table: Callable[[], str]) -> None:
    if args.format == "table":
        text = table()
        payload = text if text.endswith("\n") else text + "\n"
    else:
        payload = ser.canonical_dumps(report)
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)


def _table(rows: list[list[str]]) -> str:
    widths = [max(len(str(row[i])) for row in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows
    )


# -- generate ----------------------------------------------------------------


def cmd_generate(args) -> CommandResult:
    given = vars(args)
    if args.corpus:
        single = ("kind", "n", "m", "out")
        ignored = [flag for flag in single if given[flag] is not None]
        if ignored:
            raise AuctionError(f"--corpus writes a whole corpus; it takes no --{ignored[0]}")
        out_dir = Path(args.out_dir or args.corpus + "-corpus")
        out_dir.mkdir(parents=True, exist_ok=True)
        corpus_of = standard_corpus if args.corpus == "standard" else truthfulness_corpus
        corpus = corpus_of(DEFAULT_CORPUS_SEED if args.seed is None else args.seed)
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
        return 0, None, None
    if args.out_dir is not None:
        raise AuctionError("--out-dir only applies to --corpus")
    if args.kind is None or args.n is None or args.m is None:
        raise AuctionError("generate needs either --corpus or all of --kind/--n/--m")
    instance = generate(args.kind, args.n, args.m, args.seed if args.seed is not None else 0)
    return 0, ser.instance_to_dict(instance), None


# -- solve -------------------------------------------------------------------


def cmd_solve(args) -> CommandResult:
    flags = _config_flags(args)
    if args.valuations == "raw" and "c" in flags:
        raise AuctionError("--c only applies to --valuations proxy")
    instance = ser.load_instance(args.instance)
    if args.valuations == "proxy":
        config = _build_config(flags, instance.m)
        oracles = instance.proxies(config.c)
    else:
        # the raw objective is the proxy objective at c = 1 (no thinning)
        config = _build_config({"c": Fraction(1), **flags}, instance.m)
        oracles = instance.valuations
    if config.solver == SOLVER_COLGEN:
        solution = solve_column_generation(instance, oracles)
    else:
        solution = solve_exact(build_full_lp(instance, oracles))
    report = {
        "schema": REPORT_SCHEMA,
        "command": "solve",
        "instance": _instance_block(args.instance, instance),
        "config": ser.config_to_dict(config),
        "objective_kind": args.valuations,
        "semantics": config.semantics(),
        "solution": ser.solution_to_dict(solution),
        "query_counts": instance.query_totals(),
    }

    def table() -> str:
        rows = [["bidder", "bundle", "x"]]
        rows += [[str(i), bundle_text(bundle), str(x)] for i, bundle, x in solution.support()]
        return f"objective ({args.valuations}): {solution.objective}\n" + _table(rows)

    return 0, report, table


# -- run ---------------------------------------------------------------------


def _outcome_entries(instance, seeds: list, outcomes: list) -> list[dict]:
    """The report's ``outcomes``: each outcome's entry with its sample seed.

    A pipeline returns one ``Outcome`` object for a repeated outcome, so each
    distinct object is encoded once and each sample's entry is that entry
    ``Filled`` with its seed, which ``canonical_dumps`` writes from one
    template; the entries share the base entry and its lists, so they must
    not be mutated in place.
    """
    encoded: dict[int, dict] = {}  # by id: ``outcomes`` holds every object alive
    entries = []
    for seed, outcome in zip(seeds, outcomes):
        entry = encoded.get(id(outcome))
        if entry is None:
            entry = encoded[id(outcome)] = ser.outcome_to_dict(outcome, instance)
        entries.append(ser.Filled(entry, "sample_seed", seed))
    return entries


def cmd_run(args) -> CommandResult:
    instance = ser.load_instance(args.instance)
    config = _build_config(_config_flags(args), instance.m)
    pipeline = Pipeline(instance, config)
    if args.replications is None:
        seeds = [config.seed]
    else:
        seeds = derive_seeds(config.seed, "replication", args.replications)
    outcomes = pipeline.sample(seeds)
    payments = pipeline.payments() if args.payments else None
    outcome_dicts = _outcome_entries(instance, seeds, outcomes)
    report = {
        "schema": REPORT_SCHEMA,
        "command": "run",
        "instance": _instance_block(args.instance, instance),
        "config": ser.config_to_dict(config),
        "semantics": config.semantics(),
        "lp": ser.solution_to_dict(pipeline.solution),
        "outcomes": outcome_dicts,
        "payments": None if payments is None else [ser.format_value(x) for x in payments],
        "query_counts": instance.query_totals(),
    }

    def table() -> str:
        rows = [["outcome", "halted", "final bundles", "welfare"]]
        for k, (outcome, entry) in enumerate(zip(outcomes, outcome_dicts)):
            final = " ".join(map(bundle_text, outcome.final))
            rows.append([str(k), "yes" if outcome.halted else "no", final, entry["welfare"]])
        return (
            f"LP objective (proxy): {pipeline.solution.objective}\n"
            + _table(rows)
            + (f"\npayments: {[str(x) for x in payments]}" if payments is not None else "")
        )

    return 0, report, table


# -- verify ------------------------------------------------------------------


def _checks_for(instance, config, checks: list[str], trials: int) -> list[dict]:
    # One mechanism and one outcome law per (instance, config), built on first
    # use: proxy-bound alone needs neither. A mechanism that cannot be built
    # raises to the caller, which reports the instance as one error record. A
    # check that raises, in its own work or in building the outcome law it
    # reads, becomes that check's error record, and the other checks keep
    # their results.
    @functools.cache
    def pipeline() -> Pipeline:
        return Pipeline(instance, config)

    @functools.cache
    def law_or_error():
        try:
            return ver.exact_distribution(pipeline())
        except AuctionError as exc:
            return exc

    def law() -> ver.OutcomeDistribution:
        # a law that cannot be built is tried once; each check reading it raises
        got = law_or_error()
        if isinstance(got, AuctionError):
            raise got
        return got

    run = {
        "welfare": lambda: ver.check_welfare_identity(pipeline(), law()),
        "marginals": lambda: ver.check_keep_marginals(pipeline(), law()),
        "approximation": lambda: ver.check_approximation(pipeline(), law()),
        "proxy-bound": lambda: ver.check_proxy_bound(instance),
        "lp": lambda: ver.check_lp_agreement(pipeline()),
        "halt-freq": lambda: ver.check_halt_frequency(pipeline()),
        "monte-carlo": lambda: ver.check_monte_carlo(pipeline(), law(), trials),
        "truthfulness": lambda: ver.check_truthfulness(pipeline(), law()),
    }
    results = []
    for name in checks:
        if name != "proxy-bound":
            pipeline()
        try:
            results.append(dict(vars(run[name]())))
        except AuctionError as exc:
            results.append(_error_record(exc, check=name))
    return results


def _error_record(exc: AuctionError, check: Optional[str] = None) -> dict:
    """A failed result standing for an instance, or one ``check``, that raised instead of checking."""
    details = {"error": type(exc).__name__, "message": str(exc)}
    if check is not None:
        details["check"] = check
    if isinstance(exc, CapacityError):
        details.update(what=exc.what, required=exc.required, cap=exc.cap)
    return dict(check="error", passed=False, asserted=True, details=details, witness=None)


def _verify_worker(payload: tuple) -> list[dict]:
    path, config_dict, checks, trials, flags = payload
    config = None
    try:
        instance = ser.load_instance(path)
        base = ser.config_from_dict(config_dict) if config_dict else None
        config = _build_config(flags, instance.m, base=base)
        results = _checks_for(instance, config, checks, trials)
    except AuctionError as exc:  # one bad or oversize instance does not end the run
        results = [_error_record(exc)]
    for r in results:
        r["instance"] = str(path)
        r["config"] = None if config is None else ser.config_to_dict(config)
    return results


def _verify_targets(args) -> list[tuple[str, dict | None]]:
    target = Path(args.target)
    if target.is_dir():
        manifest_path = target / "manifest.json"
        if manifest_path.exists():
            manifest = ser.load_json(manifest_path)
            try:
                return [
                    (str(target / item["file"]), item.get("config"))
                    for item in manifest.get("instances", [])
                ]
            except (AttributeError, KeyError, TypeError) as exc:
                raise FormatError(f"{manifest_path}: malformed manifest ({exc!r})") from exc
        return [(str(p), None) for p in sorted(target.glob("*.json")) if _is_instance_file(p)]
    return [(str(target), None)]


def _is_instance_file(path: Path) -> bool:
    """An instance file, or a file that is not JSON: its worker reports the FormatError."""
    try:
        data = ser.load_json(path)
    except FormatError:
        return True
    return isinstance(data, dict) and data.get("schema") == ser.INSTANCE_SCHEMA


def cmd_verify(args) -> CommandResult:
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = [name for name in checks if name not in ALL_CHECKS]
    if unknown:
        raise AuctionError(f"unknown check {unknown[0]!r}; choose from {ALL_CHECKS}")
    if not checks:
        raise AuctionError(f"--checks names no check; choose from {ALL_CHECKS}")
    targets = _verify_targets(args)
    if not targets:
        raise AuctionError(f"no instances found under {args.target}")
    flags = _config_flags(args)
    payloads = [(path, cfg, checks, args.trials, flags) for path, cfg in targets]
    workers = min(args.workers, len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            collected = list(pool.map(_verify_worker, payloads))
    else:
        collected = [_verify_worker(p) for p in payloads]
    results = [r for rs in collected for r in rs]
    failed = [r for r in results if r["asserted"] and not r["passed"]]
    report = {
        "schema": VERIFY_SCHEMA,
        "command": "verify",
        "checks": checks,
        "results": results,
        "passed": not failed,
    }

    def table() -> str:
        rows = [["result", "check", "instance"]]
        for r in results:
            check = r["check"]
            if check == "error":
                status, check = "ERROR", r["details"].get("check", check)
            else:
                status = ("PASS" if r["passed"] else "FAIL") if r["asserted"] else "info"
            rows.append([status, check, Path(r["instance"]).name])
        return _table(rows) + f"\noverall: {'PASS' if not failed else 'FAIL'}"

    return (1 if failed else 0), report, table


# -- bench -------------------------------------------------------------------

# the bench table: (header, record key) per column
BENCH_COLUMNS = (
    ("m", "m"),
    ("columns", "columns"),
    ("lp-build s", "lp_build_seconds"),
    ("exact-full s", "exact_full_seconds"),
    ("pivots", "exact_full_pivots"),
    ("exact-colgen s", "exact_colgen_seconds"),
    ("colgen pivots", "exact_colgen_pivots"),
    ("vertex-enum s", "vertex_enum_seconds"),
    ("points", "vertex_enum_points"),
    ("integral s", "integral_seconds"),
    ("sample s", "sample_seconds"),
    ("plans", "sample_plans"),
    ("outcomes", "sample_outcomes"),
    ("encode s", "encode_seconds"),
    ("pay-full s", "payments_full_seconds"),
    ("pay pivots", "payments_full_pivots"),
    ("pay-colgen s", "payments_colgen_seconds"),
    ("pay-colgen pivots", "payments_colgen_pivots"),
    ("pay demands", "payments_colgen_demand_queries"),
    ("objectives", "objectives_agree"),
)


def _bench_cell(value) -> str:
    if isinstance(value, bool):
        return "agree" if value else "MISMATCH"
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def cmd_bench(args) -> CommandResult:
    records = []
    sample_seeds = derive_seeds(args.seed, "replication", BENCH_SAMPLES)
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
        if ver.basis_count(lp) <= ver.VERTEX_ENUM_CAP:

            def cold_vertex_optimum():
                # the points are cached per constraint matrix: time the walk
                ver._feasible_points.cache_clear()
                return ver.enumerate_vertex_optimum(lp)

            t_vertex, vertex_obj = time_it(cold_vertex_optimum)
            vertex_points = len(ver.basic_feasible_points(lp))
        else:
            t_vertex = vertex_obj = vertex_points = "skipped"
        t_integral, _ = time_it(lambda: ver.optimal_integral_welfare(instance))
        # built as run builds them, so payments skip the bidders without mass;
        # the first repeat also fills the pipeline's q cache
        pipeline = Pipeline(instance, MechanismConfig(c=c, p=p))
        t_sample, outcomes = time_it(lambda: pipeline.sample(sample_seeds))
        t_encode, _ = time_it(
            lambda: ser.canonical_dumps(_outcome_entries(instance, sample_seeds, outcomes))
        )
        t_pay_full, charges_full = time_it(pipeline.payments)
        colgen = Pipeline(instance, MechanismConfig(c=c, p=p, solver=SOLVER_COLGEN))
        demands = instance.query_totals()["demand_queries"]
        t_pay_colgen, charges_colgen = time_it(colgen.payments)
        demands = (instance.query_totals()["demand_queries"] - demands) // args.repeat
        records.append(
            {
                "m": m,
                "columns": len(lp.columns),
                "lp_build_seconds": t_build,
                "exact_full_seconds": t_exact,
                "exact_full_pivots": sol_exact.pivots,
                "exact_colgen_seconds": t_colgen,
                # the pivots every master round performed
                "exact_colgen_pivots": sol_colgen.pivots,
                "vertex_enum_seconds": t_vertex,
                "vertex_enum_objective": str(vertex_obj),
                # distinct basic feasible points the walk found
                "vertex_enum_points": vertex_points,
                "integral_seconds": t_integral,
                "sample_seconds": t_sample,
                # distinct tentative assignments over the samples: each is planned once
                "sample_plans": len(pipeline.plans),
                "sample_outcomes": len(set(outcomes)),
                # the samples' entries and their text, as run --replications writes them
                "encode_seconds": t_encode,
                "payments_full_seconds": t_pay_full,
                "payments_full_pivots": pipeline.payment_pivots,
                "payments_colgen_seconds": t_pay_colgen,
                "payments_colgen_pivots": colgen.payment_pivots,
                "payments_colgen_demand_queries": demands,
                "objective": str(sol_exact.objective),
                # each charge sum is p * (sum of the zeroed optima - (n - 1) * OPT),
                # which does not depend on the vertex either solver returns
                "objectives_agree": sol_exact.objective == sol_colgen.objective
                and sum(charges_full) == sum(charges_colgen)
                and vertex_obj in ("skipped", sol_exact.objective),
            }
        )
    report = {
        "schema": "bench-report/10",
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

    def table() -> str:
        rows = [[header for header, _ in BENCH_COLUMNS]]
        rows += [[_bench_cell(r[key]) for _, key in BENCH_COLUMNS] for r in records]
        return _table(rows)

    return (0 if all(r["objectives_agree"] for r in records) else 1), report, table


# -- entry -------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once, on first use; each parse converts
    the string default of ``--m-list`` afresh."""
    parser = argparse.ArgumentParser(
        prog="proxyauction",
        description=(
            "Truthful-in-expectation combinatorial auction mechanism: instance "
            "generation, configuration-LP solving, randomized allocation runs, "
            "and exact verification of the mechanism's probabilistic identities."
        ),
    )
    parser.set_defaults(format="json", timings=False)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="create instance files or a bundled corpus")
    g.add_argument("--kind", choices=GENERATOR_KINDS)
    g.add_argument("--n", type=int, help="bidder count")
    g.add_argument("--m", type=int, help="item count")
    g.add_argument("--seed", type=int)
    g.add_argument("--out", help="instance file (default: stdout)")
    g.add_argument("--corpus", choices=["standard", "truthfulness"])
    g.add_argument("--out-dir", help="directory for --corpus output")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="solve the configuration LP for an instance")
    s.add_argument("instance")
    s.add_argument("--valuations", choices=["raw", "proxy"], default="raw")
    s.set_defaults(func=cmd_solve)

    r = sub.add_parser("run", help="execute the mechanism on an instance")
    r.add_argument("instance")
    r.add_argument(
        "--replications", type=_positive_int, help="sample R outcomes over derived seeds"
    )
    r.add_argument("--payments", action="store_true", help="also compute charges")
    r.set_defaults(func=cmd_run)

    v = sub.add_parser("verify", help="run certification checks on instances")
    v.add_argument("target", help="instance file, corpus directory, or manifest directory")
    v.add_argument("--checks", default=DEFAULT_CHECKS, help=f"comma list from {ALL_CHECKS}")
    v.add_argument("--trials", type=_positive_int, default=10_000, help="monte-carlo samples")
    v.add_argument("--workers", type=_positive_int, default=1, help="parallel instance workers")
    v.set_defaults(func=cmd_verify)

    for cmd in (s, r, v):
        cmd.add_argument("--c", type=_rational, help="keep probability (default: from m)")
        cmd.add_argument("--p", type=_rational, help="survival probability, a rational like 1/20")
        cmd.add_argument("--q-variant", choices=[Q_HALT, Q_OWN_ITEMS], help="q event scope")
        cmd.add_argument("--seed", type=int, help="master seed (default: 0)")
        cmd.add_argument("--solver", choices=[SOLVER_FULL, SOLVER_COLGEN], help="LP method")
        cmd.add_argument("--format", choices=["json", "table"], default="json")
        cmd.add_argument("--out")
        cmd.add_argument("--timings", action="store_true", help="print wall-clock to stderr")

    b = sub.add_parser(
        "bench",
        help="time the LP build, the full, column-generation and vertex-enumeration solves, "
        "1,000 outcome samples and their report text, and both solvers' payments, and check "
        "that the solvers' objectives and charge sums agree",
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
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        code, report, table = args.func(args)
        if report is not None:
            _emit(args, report, table)
    except AuctionError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:  # reads raise FormatError, so this is a write
        sys.stderr.write(f"error: cannot write {exc.filename} ({exc.strerror})\n")
        return 2
    if args.timings:
        sys.stderr.write(f"{args.command}: {time.perf_counter() - started:.4f}s\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
