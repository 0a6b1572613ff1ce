import contextlib
import hashlib
import io
import json
import os
import platform
import re
import tempfile
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fixtures import rows_against_columns
from oracles import canonical_dumps_by_json, solution_from_dict
from proxyauction import cli, generators, lp, mechanism, valuations
from proxyauction import rng as rngmod
from proxyauction import verify as ver
from proxyauction.cli import main
from proxyauction.errors import FormatError
from proxyauction.serialize import (
    NESTING_CAP,
    VALUE_LENGTH_CAP,
    canonical_dumps,
    config_from_dict,
    load_json,
    save_instance,
)

ROOT = Path(__file__).parent.parent
CORPUS_DIR = ROOT / "corpus" / "standard"


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    assert main(["generate", "--kind", "additive", "--n", "2", "--m", "3",
                 "--seed", "7", "--out", str(path)]) == 0
    return path


def run_flags(path, *extra):
    return ["run", str(path), "--c", "1/2", "--p", "1/20", "--seed", "5", *extra]


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["generate", "--kind", "xos", "--n", "2", "--m", "3", "--seed", "1", "--out", str(a)])
    main(["generate", "--kind", "xos", "--n", "2", "--m", "3", "--seed", "1", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_solve_report(instance_file, tmp_path):
    out = tmp_path / "solve.json"
    code = main(["solve", str(instance_file), "--valuations", "proxy", "--c", "1/2",
                 "--out", str(out)])
    assert code == 0
    report = load_json(out)
    assert report["command"] == "solve"
    assert report["objective_kind"] == "proxy"
    assert report["solution"]["entries"]
    assert report["query_counts"]["proxy_value_queries"] > 0


def test_run_reports_are_byte_identical(instance_file, tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(run_flags(instance_file, "--payments", "--out", str(r1))) == 0
    assert main(run_flags(instance_file, "--payments", "--out", str(r2))) == 0
    assert r1.read_bytes() == r2.read_bytes()
    report = load_json(r1)
    assert report["payments"] is not None
    assert len(report["outcomes"]) == 1


def test_run_replications_use_derived_seeds(instance_file, tmp_path):
    out = tmp_path / "r.json"
    assert main(run_flags(instance_file, "--replications", "4", "--out", str(out))) == 0
    report = load_json(out)
    seeds = [o["sample_seed"] for o in report["outcomes"]]
    assert len(seeds) == 4 and len(set(seeds)) == 4


def test_verify_single_instance(instance_file, tmp_path, capsys):
    code = main(["verify", str(instance_file), "--c", "1/2", "--p", "1/20",
                 "--checks", "welfare,marginals,approximation"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert {r["check"] for r in report["results"]} == {
        "welfare-identity", "keep-marginals", "approximation",
    }


def test_verify_corpus_manifest_subset(tmp_path, capsys):
    # restrict to two instances to keep the unit test quick
    manifest = load_json(CORPUS_DIR / "manifest.json")
    small = tmp_path / "corpus"
    small.mkdir()
    for item in manifest["instances"][:2]:
        (small / item["file"]).write_text((CORPUS_DIR / item["file"]).read_text())
    (small / "manifest.json").write_text(json.dumps(
        {"schema": manifest["schema"], "instances": manifest["instances"][:2]}
    ))
    code = main(["verify", str(small), "--checks", "welfare,marginals"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["results"]) == 4
    # manifest configs carry the per-instance parameters
    assert all(r["config"]["p"] == "1/20" for r in report["results"])


def test_verify_exit_status_reflects_failures(instance_file, monkeypatch):
    def always_fails(pipeline, law):
        return ver.CheckResult("welfare-identity", False, {"forced": True})

    monkeypatch.setattr(ver, "check_welfare_identity", always_fails)
    code = main(["verify", str(instance_file), "--c", "1/2", "--p", "1/20",
                 "--checks", "welfare", "--out", "/dev/null"])
    assert code == 1


def test_verify_unknown_check_is_an_error(instance_file):
    code = main(["verify", str(instance_file), "--c", "1/2", "--checks", "vibes"])
    assert code == 2


def test_verify_without_checks_is_an_error(instance_file, capsys):
    # an empty check list would certify nothing and still report a pass
    assert main(["verify", str(instance_file), "--c", "1/2", "--checks", ","]) == 2
    assert "names no check" in capsys.readouterr().err


def test_unknown_flag_rejected(instance_file):
    with pytest.raises(SystemExit):
        main(["run", str(instance_file), "--frobnicate"])


def test_table_format(instance_file, capsys):
    code = main(["solve", str(instance_file), "--format", "table"])
    assert code == 0
    text = capsys.readouterr().out
    assert "objective" in text and "bidder" in text


def test_reports_round_trip_as_json(instance_file, tmp_path):
    # every report value is JSON-native, so parse(serialize(x)) == x
    from proxyauction.serialize import canonical_dumps

    out = tmp_path / "report.json"
    main(run_flags(instance_file, "--payments", "--out", str(out)))
    report = load_json(out)
    assert json.loads(canonical_dumps(report)) == report
    vout = tmp_path / "verify.json"
    main(["verify", str(instance_file), "--c", "1/2", "--p", "1/20",
          "--checks", "welfare,marginals,proxy-bound", "--out", str(vout)])
    vreport = load_json(vout)
    assert json.loads(canonical_dumps(vreport)) == vreport


def _report(argv) -> dict:
    args = cli.build_parser().parse_args(argv)
    return args.func(args)[1]


def test_reports_encode_as_the_json_module_writes_them():
    manifest = load_json(CORPUS_DIR / "manifest.json")
    reports = [
        _report(["run", str(CORPUS_DIR / item["file"]), "--replications", "200",
                 *(f"--{key}={item['config'][key]}" for key in ("c", "p", "seed"))])
        for item in manifest["instances"]
    ]
    reports.append(_report(["verify", str(CORPUS_DIR / "22-xos-n3-m4-contended.json")]))
    # a bench report holds floats
    reports.append(_report(["bench", "--kind", "additive", "--n", "2", "--m-list", "2",
                            "--repeat", "1"]))
    for report in reports:
        assert canonical_dumps(report) == canonical_dumps_by_json(report)


def test_bench_smoke(tmp_path):
    out = tmp_path / "bench.json"
    code = main(["bench", "--kind", "additive", "--n", "2", "--m-list", "4",
                 "--repeat", "1", "--format", "json", "--out", str(out)])
    assert code == 0
    report = load_json(out)
    assert report["schema"] == "bench-report/10"
    assert report["repeat"] == 1
    assert report["samples"] == 1000
    assert report["python"] == platform.python_version()
    assert report["cpu_count"] == os.cpu_count()
    assert report["rows"][0]["objectives_agree"] is True
    assert report["rows"][0]["exact_full_pivots"] > 0
    assert report["rows"][0]["sample_seconds"] > 0
    # at least one tentative assignment, and no more than the samples drawn
    assert 1 <= report["rows"][0]["sample_plans"] <= 1000
    # distinct outcomes: at least one per plan, and no more than the samples drawn
    assert report["rows"][0]["sample_plans"] <= report["rows"][0]["sample_outcomes"] <= 1000
    assert report["rows"][0]["encode_seconds"] > 0
    assert report["rows"][0]["integral_seconds"] > 0
    assert report["rows"][0]["payments_full_seconds"] > 0
    assert report["rows"][0]["payments_colgen_seconds"] > 0
    # the warm start's forced pivots count, and colgen payments ask demand queries
    assert report["rows"][0]["payments_full_pivots"] > 0
    assert report["rows"][0]["payments_colgen_demand_queries"] > 0
    # column generation's master rounds pivot, in the main solve and the payments
    assert report["rows"][0]["exact_colgen_pivots"] > 0
    assert report["rows"][0]["payments_colgen_pivots"] > 0


def test_bench_exits_nonzero_on_solver_mismatch(monkeypatch, capsys):
    real = cli.solve_column_generation

    def off_by_one(*args, **kwargs):
        return replace(real(*args, **kwargs), objective=F(-1))

    monkeypatch.setattr(cli, "solve_column_generation", off_by_one)
    code = main(["bench", "--kind", "additive", "--n", "2", "--m-list", "4", "--repeat", "1"])
    assert code == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_bench_exits_nonzero_on_a_charge_sum_mismatch(monkeypatch, capsys):
    real = mechanism.Pipeline.payments

    def colgen_off_by_one(self):
        charges = real(self)
        if self.config.solver == mechanism.SOLVER_COLGEN:
            charges = (charges[0] + 1, *charges[1:])
        return charges

    monkeypatch.setattr(mechanism.Pipeline, "payments", colgen_off_by_one)
    code = main(["bench", "--kind", "additive", "--n", "2", "--m-list", "4", "--repeat", "1"])
    assert code == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_bench_checks_vertex_enumeration_under_the_cap(tmp_path):
    out = tmp_path / "bench.json"
    code = main(["bench", "--kind", "additive", "--n", "2", "--m-list", "2,4",
                 "--repeat", "1", "--format", "json", "--out", str(out)])
    assert code == 0
    report = load_json(out)
    assert report["schema"] == "bench-report/10"
    small, large = report["rows"]
    assert not any("float" in key for key in small)
    assert small["vertex_enum_objective"] == small["objective"]
    assert small["vertex_enum_seconds"] >= 0
    # n = 2, m = 2: zero, each of the six columns alone, the two pairs of
    # disjoint singletons, and two half-integral points where one bidder
    # splits over both singletons and the other takes half of the pair
    assert small["vertex_enum_points"] == 11
    # n = 2, m = 4: 1,947,792 bases, beyond the enumeration cap
    assert large["vertex_enum_seconds"] == large["vertex_enum_objective"] == "skipped"
    assert large["vertex_enum_points"] == "skipped"
    assert large["objectives_agree"] is True


def test_main_parses_fresh_defaults_on_every_call(monkeypatch):
    # the parser is built once per process; each parse converts the string
    # default of --m-list afresh, so no call sees another's values
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    parse, seen = parser.parse_args, []

    def recording(argv):
        args = parse(argv)
        seen.append(args)
        args.func = lambda args: (0, None, None)
        return args

    monkeypatch.setattr(parser, "parse_args", recording)
    for argv in (["bench", "--m-list", "2,3"], ["bench"], ["bench"]):
        assert main(argv) == 0
    listed, default, default_again = seen
    assert listed.m_list == [2, 3]
    assert default.m_list == default_again.m_list == [4, 6, 8]
    assert default.m_list is not default_again.m_list


def test_bench_exits_nonzero_on_vertex_enumeration_mismatch(monkeypatch, capsys):
    real = ver.enumerate_vertex_optimum
    monkeypatch.setattr(ver, "enumerate_vertex_optimum", lambda lp: real(lp) + 1)
    code = main(["bench", "--kind", "additive", "--n", "2", "--m-list", "2", "--repeat", "1"])
    assert code == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_verify_builds_one_mechanism_per_instance(monkeypatch, instance_file, tmp_path):
    calls = Counter()
    out = tmp_path / "verify.json"

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module in (mechanism, ver):
        counted(module, "solve_exact")
    counted(mechanism, "build_full_lp")
    counted(ver, "exact_distribution")
    real_init = mechanism.Pipeline.__init__

    def init(self, *args, **kwargs):
        calls["Pipeline"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(mechanism.Pipeline, "__init__", init)
    flags = ["verify", str(instance_file), "--c", "1/2", "--p", "1/20"]
    assert main([*flags, "--out", "/dev/null"]) == 0
    assert calls == {"Pipeline": 1, "build_full_lp": 1, "solve_exact": 1, "exact_distribution": 1}

    # the truthful run is the verified pipeline with its one law; each
    # misreport builds its own of both
    calls.clear()
    assert main([*flags, "--checks", "welfare,truthfulness", "--out", str(out)]) == 0
    [_, truthfulness] = load_json(out)["results"]
    misreports = truthfulness["details"]["misreports_checked"]
    assert calls["Pipeline"] == calls["exact_distribution"] == 1 + misreports


def test_sampling_checks_reuse_the_verified_pipeline(monkeypatch, tmp_path):
    calls = Counter()
    for module in (mechanism, ver):
        real = module.solve_exact

        def wrapper(*args, real=real, **kwargs):
            calls["solve_exact"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, "solve_exact", wrapper)
    monkeypatch.chdir(ROOT)  # a relative path keeps the report independent of the checkout
    out = tmp_path / "verify.json"
    code = main(["verify", "corpus/standard/08-xos-n3-m4.json", "--c", "1/2", "--p", "1/20",
                 "--checks", "welfare,halt-freq,monte-carlo", "--trials", "200",
                 "--out", str(out)])
    assert code == 0
    assert calls == {"solve_exact": 1}
    # the report each check built its own Pipeline for, byte for byte, but
    # halt-frequency's ``asserted`` (c = 1/2 lies outside the paper's regime)
    # and its details, the exact halt probability in place of sampled halts
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "5a1eb60b6dcc8898cd12fdcfa974f69766140293edc06b9a7cceecf30232c92b"


@pytest.mark.parametrize("solver", ["full", "column-generation"])
def test_lp_check_runs_only_the_other_solver(solver, monkeypatch):
    calls = Counter()
    for module in (mechanism, ver):
        for name in ("solve_exact", "solve_column_generation"):
            real = getattr(module, name)

            def wrapper(*args, real=real, name=name, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
    path = str(CORPUS_DIR / "08-xos-n3-m4.json")
    argv = ["verify", path, "--c", "1/2", "--checks", "lp", "--solver", solver]
    assert main([*argv, "--out", "/dev/null"]) == 0
    # one solve by the pipeline's solver, one by the other in the check
    assert calls == {"solve_exact": 1, "solve_column_generation": 1}


def test_verify_workers_clamp_to_the_targets(monkeypatch, instance_file, tmp_path):
    one, four = tmp_path / "one.json", tmp_path / "four.json"
    flags = ["verify", str(instance_file), "--c", "1/2", "--p", "1/20"]
    assert main([*flags, "--workers", "1", "--out", str(one)]) == 0

    def no_pool(*args, **kwargs):
        raise AssertionError("one target must not start a worker pool")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    assert main([*flags, "--workers", "4", "--out", str(four)]) == 0
    assert four.read_bytes() == one.read_bytes()


def test_verify_and_run_honour_the_proxy_cap(monkeypatch, capsys):
    # an xos proxy over m = 4 items needs a 2^4-bundle table, bounded like
    # every value table by TABLE_CAP
    path = str(CORPUS_DIR / "08-xos-n3-m4.json")
    monkeypatch.setattr(valuations, "TABLE_CAP", 2)
    assert main(["run", path]) == 2
    assert "value table over all bundles" in capsys.readouterr().err
    assert main(["verify", path, "--checks", "lp"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    [record] = report["results"]
    assert record["check"] == "error"
    assert record["details"]["error"] == "CapacityError"
    assert (record["details"]["required"], record["details"]["cap"]) == (16, 4)
    monkeypatch.setattr(valuations, "TABLE_CAP", 4)
    assert main(["verify", path, "--checks", "lp"]) == 0


def test_verify_and_run_honour_the_lp_cap(monkeypatch, capsys):
    # the full LP over m = 5 items has 2^5 - 1 columns per bidder
    path = str(CORPUS_DIR / "05-unit-demand-n3-m5.json")
    monkeypatch.setattr(lp, "LP_ITEM_CAP", 2)
    assert main(["run", path]) == 2
    assert "full LP column enumeration" in capsys.readouterr().err
    assert main(["verify", path, "--checks", "lp"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    [record] = report["results"]
    assert record["check"] == "error"
    assert record["details"]["error"] == "CapacityError"
    assert (record["details"]["required"], record["details"]["cap"]) == (32, 4)
    monkeypatch.setattr(lp, "LP_ITEM_CAP", 5)
    assert main(["verify", path, "--checks", "lp"]) == 0


@pytest.mark.parametrize(
    "m, solver, what",
    [
        (lp.LP_ITEM_CAP + 1, "full", "full LP column enumeration"),
        (valuations.TABLE_CAP + 1, "column-generation", "value table over all bundles"),
    ],
    ids=["lp", "table"],
)
def test_the_default_caps_refuse_one_item_more(m, solver, what, tmp_path, capsys):
    # one item past a cap over 2^m bundles: run exits 2, and verify reports the instance
    path = str(tmp_path / "wide.json")
    assert main(["generate", "--kind", "additive", "--n", "2", "--m", str(m), "--out", path]) == 0
    assert main(["run", path, "--solver", solver]) == 2
    message = f"error: {what}: {1 << m} exceeds the cap of {1 << (m - 1)}\n"
    assert capsys.readouterr().err == message
    argv = ["verify", path, "--solver", solver, "--checks", "lp"]
    assert cap_error(capsys, argv) == (what, 1 << m, 1 << (m - 1))


def cap_error(capsys, argv) -> tuple:
    """(what, required, cap) of the one error record a capped verify reports."""
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    [record] = report["results"]
    assert record["check"] == "error" and record["details"]["error"] == "CapacityError"
    details = record["details"]
    return details["what"], details["required"], details["cap"]


def test_run_and_verify_refuse_sample_counts_past_the_cap(monkeypatch, capsys):
    def no_hash(data):
        raise AssertionError("a refused count hashed a seed")

    monkeypatch.setattr(rngmod, "sha256", no_hash)
    path = str(CORPUS_DIR / "08-xos-n3-m4.json")
    assert main(["run", path, "--c", "1/2", "--p", "1/20", "--replications", "100001"]) == 2
    assert capsys.readouterr().err == "error: derived seeds: 100001 exceeds the cap of 100000\n"
    argv = ["verify", path, "--trials", "100001", "--checks", "monte-carlo"]
    assert cap_error(capsys, argv) == ("derived seeds", 100_001, 100_000)


@pytest.mark.parametrize(
    "flags, what",
    [
        (["--kind", "additive", "--n", "1001"], "generated bidders"),
    ],
    ids=["n"],
)
def test_generate_refuses_counts_past_the_cap(flags, what, monkeypatch, capsys):
    def no_valuation(*args):
        raise AssertionError("a refused count built a valuation")

    monkeypatch.setattr(generators.random, "Random", no_valuation)
    assert main(["generate", *flags, "--m", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {what}: 1001 exceeds the cap of 1000\n"


@pytest.mark.parametrize("corpus", ["standard", "truthfulness"])
def test_generate_corpus_writes_the_committed_files(corpus, tmp_path, capsys):
    # the writer side of the instance format: every kind, manifests included
    assert main(["generate", "--corpus", corpus, "--out-dir", str(tmp_path)]) == 0
    committed = ROOT / "corpus" / corpus
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in committed.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (committed / name).read_bytes(), name


CONTENDED = ["verify", str(CORPUS_DIR / "22-xos-n3-m4-contended.json"), "--c", "1/2", "--p", "1/20"]


def test_verify_law_honours_the_atom_cap(monkeypatch, capsys):
    # the contended instance's law has 12 joint tentative draws: each check that
    # reads the law reports the cap, and the checks that do not keep their results
    for cap in (6, 11):
        monkeypatch.setattr(mechanism, "ATOM_CAP", cap)
        assert main(CONTENDED) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False
        errors = [r for r in report["results"] if r["check"] == "error"]
        assert [r["details"]["check"] for r in errors] == ["welfare", "marginals", "approximation"]
        for record in errors:
            details = record["details"]
            assert record["asserted"] and details["error"] == "CapacityError"
            assert (details["what"], details["required"], details["cap"]) == (
                "joint tentative enumeration", 12, cap,
            )
        passed = [r["check"] for r in report["results"] if r["check"] != "error"]
        assert passed == ["proxy-bound", "lp-agreement"]
        assert all(r["passed"] for r in report["results"] if r["check"] != "error")
    monkeypatch.setattr(mechanism, "ATOM_CAP", 12)
    assert main(CONTENDED) == 0


def test_a_law_that_cannot_be_built_is_tried_once(monkeypatch, capsys):
    # at p = 9/10 cancellation needs q_i <= 1/10, and the contended instance has q_i = 1/9
    calls = []
    real = ver.exact_distribution

    def counting(pipeline):
        calls.append(pipeline)
        return real(pipeline)

    monkeypatch.setattr(ver, "exact_distribution", counting)
    assert main([*CONTENDED[:4], "--p", "9/10"]) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert [(r["check"], r["details"].get("check")) for r in results] == [
        ("error", "welfare"), ("error", "marginals"), ("error", "approximation"),
        ("proxy-bound", None), ("lp-agreement", None),
    ]
    assert all(r["details"]["error"] == "ParameterError" for r in results[:3])
    assert all(r["passed"] for r in results[3:])
    assert len(calls) == 1


def test_a_plan_that_always_halts_meets_the_cancellation_bound(tmp_path, capsys):
    # every tentative draw halts, so q_i = 1 > 1 - p for every support entry
    path = tmp_path / "rows-against-columns.json"
    save_instance(path, rows_against_columns())
    assert main(["run", str(path), "--c", "1", "--p", "1/20", "--payments"]) == 2
    assert "q_i = 1 >" in capsys.readouterr().err
    argv = ["verify", str(path), "--c", "1", "--p", "1/20",
            "--checks", "welfare,marginals,truthfulness,lp"]
    assert main(argv) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert [(r["check"], r["details"].get("check")) for r in results] == [
        ("error", "welfare"), ("error", "marginals"), ("error", "truthfulness"),
        ("lp-agreement", None),
    ]
    assert all(r["details"]["error"] == "ParameterError" for r in results[:3])
    assert results[3]["passed"]


def test_truthfulness_honours_the_lp_and_atom_caps(monkeypatch, capsys):
    argv = [*CONTENDED, "--checks", "truthfulness"]
    with monkeypatch.context() as patch:
        patch.setattr(lp, "LP_ITEM_CAP", 2)
        assert cap_error(capsys, argv) == ("full LP column enumeration", 16, 4)
    monkeypatch.setattr(mechanism, "ATOM_CAP", 1)
    assert cap_error(capsys, argv) == ("joint tentative enumeration", 12, 1)


def test_approximation_honours_the_integral_cap(monkeypatch, capsys):
    # the subset DP over n = 3 bidders and m = 4 items takes 3 * 3^4 steps
    argv = [*CONTENDED, "--checks", "approximation"]
    monkeypatch.setattr(ver, "INTEGRAL_CAP", 242)
    assert cap_error(capsys, argv) == ("integral optimum by subset DP", 243, 242)
    monkeypatch.setattr(ver, "INTEGRAL_CAP", 243)
    assert main(argv) == 0


def test_a_raising_check_keeps_the_other_checks_results(monkeypatch, capsys):
    monkeypatch.setattr(ver, "INTEGRAL_CAP", 242)
    argv = [*CONTENDED, "--checks", "welfare,approximation"]
    assert main(argv) == 1
    welfare, error = json.loads(capsys.readouterr().out)["results"]
    assert welfare["check"] == "welfare-identity" and welfare["passed"]
    assert error["check"] == "error" and error["asserted"] and not error["passed"]
    assert error["details"]["check"] == "approximation"
    assert error["details"]["required"] == 243 and error["config"] is not None
    assert main([*argv, "--format", "table"]) == 1
    assert capsys.readouterr().out.splitlines()[1:3] == [
        "PASS    welfare-identity  22-xos-n3-m4-contended.json",
        "ERROR   approximation     22-xos-n3-m4-contended.json",
    ]


def test_own_items_checks_report_without_asserting(tmp_path, monkeypatch, capsys):
    # the mixed instance's LP is fractional at c = 1, where own-items
    # undercancels: each check fails, and none is asserted
    monkeypatch.chdir(tmp_path)
    assert main([*GENERATED["mixed-n3-m4.json"], "--out", "mixed.json"]) == 0
    argv = ["verify", "mixed.json", "--c", "1", "--q-variant", "own-items",
            "--checks", "welfare,marginals,truthfulness"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert [(r["check"], r["passed"], r["asserted"]) for r in report["results"]] == [
        ("welfare-identity", False, False),
        ("keep-marginals", False, False),
        ("truthfulness", False, False),
    ]
    assert main([*argv, "--format", "table"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows[1:-1]] == ["info"] * 3
    assert rows[-1] == "overall: PASS"
    # a check that raises is an error record, asserted under either variant
    monkeypatch.setattr(mechanism, "ATOM_CAP", 1)
    assert main(argv) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert [(r["check"], r["asserted"]) for r in results] == [("error", True)] * 3


def test_a_passing_check_that_is_not_asserted_reads_info(capsys):
    # no halt at c = 1/2 on instance 08, a verdict outside the paper's regime
    argv = ["verify", str(CORPUS_DIR / "08-xos-n3-m4.json"), "--c", "1/2", "--p", "1/20",
            "--checks", "halt-freq"]
    assert main(argv) == 0
    [record] = json.loads(capsys.readouterr().out)["results"]
    assert (record["passed"], record["asserted"]) == (True, False)
    assert main([*argv, "--format", "table"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "result  check           instance",
        "info    halt-frequency  08-xos-n3-m4.json",
        "overall: PASS",
    ]


def test_verify_certifies_the_envelope(tmp_path, capsys):
    # five bidders over ten items: 6^10 item assignments, past the integral
    # cap for an enumeration; the subset DP takes 5 * 3^10 steps
    path = tmp_path / "xos-n5-m10.json"
    assert main(["generate", "--kind", "xos", "--n", "5", "--m", "10", "--seed", "1",
                 "--out", str(path)]) == 0
    code = main(["verify", str(path), "--solver", "column-generation",
                 "--checks", "welfare,marginals,approximation"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["passed"] is True
    results = report["results"]
    assert [r["check"] for r in results] == ["welfare-identity", "keep-marginals", "approximation"]
    assert all(r["passed"] for r in results)
    assert results[2]["details"]["integral_opt"] == "159/2"


def test_verify_reports_a_malformed_file_in_a_plain_directory(tmp_path, capsys):
    # a directory without a manifest: every instance file, and every file that is not JSON
    (tmp_path / "a.json").write_text((CORPUS_DIR / "01-additive-n2-m3.json").read_text())
    (tmp_path / "b.json").write_text("{not json")
    (tmp_path / "c.json").write_text(json.dumps({"schema": "verify-report/1"}))
    (tmp_path / "d.json").write_text("[1, 2]")
    code = main(["verify", str(tmp_path), "--c", "1/2", "--p", "1/20", "--checks", "welfare"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["passed"] is False
    good, bad = report["results"]
    assert Path(good["instance"]).name == "a.json" and good["passed"]
    assert Path(bad["instance"]).name == "b.json" and bad["check"] == "error"
    assert bad["details"]["error"] == "FormatError" and bad["config"] is None
    # named on its own, a JSON file that is not an object is a malformed instance
    assert main(["verify", str(tmp_path / "d.json"), "--c", "1/2", "--checks", "welfare"]) == 1
    [record] = json.loads(capsys.readouterr().out)["results"]
    assert record["details"]["error"] == "FormatError"


def test_verify_corpus_reports_each_oversize_instance(monkeypatch, capsys):
    # a table cap of 3: only instances with m <= 3 fit; the rest become error records
    monkeypatch.setattr(valuations, "TABLE_CAP", 3)
    code = main(["verify", str(CORPUS_DIR)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["passed"] is False
    by_file = {}
    for record in report["results"]:
        by_file.setdefault(Path(record["instance"]).name, []).append(record)
    manifest = load_json(CORPUS_DIR / "manifest.json")
    assert sorted(by_file) == sorted(item["file"] for item in manifest["instances"])
    errors = 0
    for name, records in by_file.items():
        instance = load_json(CORPUS_DIR / name)
        if instance["m"] <= 3:
            assert all(r["check"] != "error" and r["passed"] for r in records), name
        else:
            errors += 1
            [record] = records
            assert record["check"] == "error" and record["asserted"], name
            details = record["details"]
            assert details["what"] == "value table over all bundles", name
            assert (details["required"], details["cap"]) == (1 << instance["m"], 8), name
            assert record["config"] is not None
    assert errors > 0


def test_raw_solve_rejects_c(instance_file, tmp_path, capsys):
    # the raw objective has no c, so a report must not record one
    out = tmp_path / "solve.json"
    argv = ["solve", str(instance_file), "--valuations", "raw", "--out", str(out)]
    assert main([*argv, "--c", "1/2"]) == 2
    assert "--c only applies to --valuations proxy" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv) == 0
    assert load_json(out)["config"]["c"] == "1"
    assert main([*argv[:3], "proxy", *argv[4:], "--c", "1/2"]) == 0
    assert load_json(out)["config"]["c"] == "1/2"


def test_missing_generate_arguments():
    assert main(["generate", "--kind", "additive"]) == 2


def test_float_arithmetic_is_rejected(instance_file, tmp_path):
    config = {"c": "1/2", "p": "1/20", "seed": 3}
    assert config_from_dict({**config, "arithmetic": "exact"}) == config_from_dict(config)
    with pytest.raises(FormatError):
        config_from_dict({**config, "arithmetic": "float"})
    out = tmp_path / "solve.json"
    assert main(["solve", str(instance_file), "--out", str(out)]) == 0
    solution = load_json(out)["solution"]
    assert solution["arithmetic"] == "exact"
    with pytest.raises(FormatError):
        solution_from_dict({**solution, "arithmetic": "float"})
    with pytest.raises(SystemExit) as exc:
        main(run_flags(instance_file, "--mode", "float"))
    assert exc.value.code == 2


# SHA-256 of reports: the verify digests were taken before float mode was
# removed, the run-payments digest after the switch to counter-based draws
# (run-report/2), the auction digests before the simplex took 0/1 supports,
# the --format table digests before the commands returned their reports to
# main, the mixed and unit-demand column-generation digests while additive and
# unit-demand valuations still had closed-form values and demands; a change
# that alters one byte of a pinned report fails here
PINNED_REPORTS = {
    "verify-standard": (
        ["verify", "corpus/standard"],
        "61fbf318209172f448b69311dee3a4ab7c740075c5ff5aaefb7c44b0873a0418",
    ),
    "verify-standard-colgen": (
        ["verify", "corpus/standard", "--solver", "column-generation"],
        "58c36b7453ae3c2b9e69db1d6ca93bef5f34a5e88bca0d0a6bf3b4eac8ec75b4",
    ),
    "verify-truthfulness": (
        ["verify", "corpus/truthfulness", "--checks", "truthfulness"],
        "6cf5db0ac1700c91daeb2a5e52a530b23368c8d6129c44861aca4f0b179003f9",
    ),
    "run-payments": (
        ["run", "corpus/standard/08-xos-n3-m4.json", "--c", "1/2", "--p", "1/20",
         "--replications", "50", "--payments"],
        "855733db0a2ea04d7d06b37c5bd22f7e4fb2966d6d60a1b19b8e74662b60228e",
    ),
    "run-payments-table": (
        ["run", "corpus/standard/08-xos-n3-m4.json", "--c", "1/2", "--p", "1/20",
         "--replications", "5", "--payments", "--format", "table"],
        "f20b29f513f4cbeac409b56f24e5928572be37cdc4ab124a1908de68ca3c44bd",
    ),
    "verify-standard-table": (
        ["verify", "corpus/standard", "--format", "table"],
        "208714ec2e80b45fe8dac0f2e51268c2a1618a8a195f68fc0d27d95d5107de09",
    ),
    # exact halt probabilities, at the manifests' c, outside the paper's regime
    "verify-standard-halt-freq": (
        ["verify", "corpus/standard", "--checks", "halt-freq"],
        "acb8caf94c6794b5635ec23ecabfb3c2dd613495ef51ba0daa9194abf42a5db7",
    ),
    "solve-proxy-table": (
        ["solve", "corpus/standard/08-xos-n3-m4.json", "--valuations", "proxy", "--c", "1/2",
         "--format", "table"],
        "4836e0abc1fa856fc59cc3930891f7c63ef1e66cf3c1ccbbc361d6d93db5b82d",
    ),
    "run-xos-n3-m6-full": (
        ["run", "xos-n3-m6.json", "--payments", "--solver", "full"],
        "8042012dc115e0302ee3578ab1179cb1d3ee7ca383a1dba530dc33632ae6f2d1",
    ),
    "run-xos-n3-m6-colgen": (
        ["run", "xos-n3-m6.json", "--payments", "--solver", "column-generation"],
        "991664c26aaae970f6b0fa30ada0467b051cc4363f4d08edba8b1bec1140983d",
    ),
    "run-mixed-payments-colgen": (
        ["run", "corpus/standard/16-mixed-n2-m4.json", "--c", "1/2", "--p", "1/20",
         "--payments", "--replications", "20", "--solver", "column-generation"],
        "5a939bfce283282a576d16323a9b59a18a8a1ab4750d8b59bc9704103a81c8bd",
    ),
    "solve-unit-demand-raw-colgen": (
        ["solve", "corpus/standard/05-unit-demand-n3-m5.json", "--valuations", "raw",
         "--solver", "column-generation"],
        "62a64955d2897a002bd002a01bc301422ecbdc406a992aa56167fec40a82d0bc",
    ),
    # live q values and halts: every sampling step runs
    "run-contended-replications": (
        ["run", "corpus/standard/22-xos-n3-m4-contended.json", "--c", "1/2", "--p", "1/20",
         "--replications", "2000"],
        "702011c6f2ef1518830cc7217fed4a24e06b972f1e9960b311a31926e487b014",
    ),
    # c = 1: every kept item comes from the plan's base masks, with live
    # tentative draws and halts (the contended corpus instances draw q_i = 1 there)
    "run-mixed-c1-own-items-replications": (
        ["run", "mixed-n3-m4.json", "--c", "1", "--p", "1/20", "--q-variant", "own-items",
         "--replications", "2000"],
        "cb77ef098703a791980d9c9784de19806bbf11078fcb82e74cbb0a67472c693f",
    ),
    "run-truthfulness-own-items-colgen-replications": (
        ["run", "corpus/truthfulness/T12-explicit-n3-m4-contended.json", "--c", "1/2",
         "--p", "1/20", "--q-variant", "own-items", "--solver", "column-generation",
         "--seed", "27", "--replications", "2000"],
        "dab3d1fdff6fc1abd3e07028a57f8d1aac944c6e1b64f24bed1caea5ffca2f17",
    ),
}

# instances generated into the working directory: the benchmark's xos auction
# shape, and a mixed instance whose LP is fractional at c = 1
GENERATED = {
    "xos-n3-m6.json": ["generate", "--kind", "xos", "--n", "3", "--m", "6", "--seed", "1"],
    "mixed-n3-m4.json": ["generate", "--kind", "mixed", "--n", "3", "--m", "4", "--seed", "8"],
}


def _pinned_report(name, monkeypatch, capsys, tmp_path) -> str:
    argv = PINNED_REPORTS[name][0]
    # a relative path keeps the report independent of the checkout
    if argv[1] in GENERATED:
        monkeypatch.chdir(tmp_path)
        assert main([*GENERATED[argv[1]], "--out", argv[1]]) == 0
        capsys.readouterr()
    else:
        monkeypatch.chdir(ROOT)
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_reports_keep_their_bytes(name, monkeypatch, capsys, tmp_path):
    out = _pinned_report(name, monkeypatch, capsys, tmp_path)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_REPORTS[name][1]


# Column generation's payment runs start warm, so they ask other demand
# queries than a cold start; everything else in these reports keeps its bytes.
PINNED_WITHOUT_QUERY_COUNTS = {
    "run-xos-n3-m6-colgen": "932d1340f55e9a557d8511c1fde2c6b7f68a1dd0eac13f75441e12ca2126514d",
    "run-mixed-payments-colgen": "65976fe63af543427960ef74248ddb2741bd7dc26b5977e4b1ac3d890fff00ce",
}


@pytest.mark.parametrize("name", sorted(PINNED_WITHOUT_QUERY_COUNTS))
def test_colgen_payment_reports_keep_their_bytes_but_query_counts(
    name, monkeypatch, capsys, tmp_path
):
    report = json.loads(_pinned_report(name, monkeypatch, capsys, tmp_path))
    del report["query_counts"]
    digest = hashlib.sha256(canonical_dumps(report).encode("utf-8")).hexdigest()
    assert digest == PINNED_WITHOUT_QUERY_COUNTS[name]


INSTANCE = str(CORPUS_DIR / "08-xos-n3-m4.json")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", INSTANCE, "--c", "abc"], "argument --c: expected a rational"),
        (["run", INSTANCE, "--c", "1/0"], "argument --c: expected a rational"),
        (["run", INSTANCE, "--p", "x"], "argument --p: expected a rational"),
        # past the interpreter's 4,300-digit limit once written out
        (["solve", INSTANCE, "--valuations", "proxy", "--c", "1e-5000"],
         "argument --c: expected a rational like 1/20 (bad exact value '1e-5000': "
         "write it without an exponent)"),
        (["run", INSTANCE, "--c", "1/2", "--p", "1e-5000"], "argument --p: expected a rational"),
        (["run", INSTANCE, "--c", "1/" + "9" * 200],
         "argument --c: expected a rational like 1/20 (exact value characters: 202 exceeds"),
        (["verify", INSTANCE, "--checks", "monte-carlo", "--trials", "0"],
         "argument --trials: expected a positive integer"),
        (["bench", "--repeat", "0"], "argument --repeat: expected a positive integer"),
        (["bench", "--m-list", "x"], "argument --m-list: expected a positive integer"),
        (["run", INSTANCE, "--replications", "-3"],
         "argument --replications: expected a positive integer"),
        # every cap is a module constant, not a flag
        (["verify", INSTANCE, "--caps", "lp=3"], "unrecognized arguments: --caps lp=3"),
    ],
    ids=["c-text", "c-zero-denominator", "p-text", "c-exponent", "p-exponent", "c-oversize",
         "trials-zero", "repeat-zero", "m-list-text",
         "replications-negative", "caps-unrecognized"],
)
def test_bad_numeric_flags_are_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize("command", ["solve", "run", "verify"])
def test_timings_add_one_stderr_line(command, capsys):
    # solve takes --c only for the proxy objective
    objective = ["--valuations", "proxy"] if command == "solve" else []
    argv = [command, INSTANCE, *objective, "--c", "1/2", "--p", "1/20"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main([*argv, "--timings"]) == 0
    timed = capsys.readouterr()
    assert timed.out == plain.out and plain.err == ""
    assert re.fullmatch(rf"{command}: \d+\.\d{{4}}s\n", timed.err)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", str(CORPUS_DIR / "01-additive-n2-m3.json"), "--c", "1/2", "--out"],
        ["generate", "--corpus", "standard", "--out-dir"],
    ],
    ids=["verify-out", "generate-out-dir"],
)
def test_an_unwritable_output_is_an_error(argv, tmp_path, capsys):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    target = blocker / "out"
    assert main([*argv, str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}")
    assert len(captured.err.splitlines()) == 1


def write_manifest(directory, files, *other_items):
    items = [{"file": name, "config": {"c": "1/2", "p": "1/20"}} for name in files]
    (directory / "manifest.json").write_text(
        json.dumps({"schema": "corpus-manifest/1", "instances": [*items, *other_items]})
    )


def test_a_missing_file_is_a_format_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    assert "nope.json: cannot read" in capsys.readouterr().err
    # a manifest naming a missing file: that instance is an error record, the other is checked
    (tmp_path / "a.json").write_text((CORPUS_DIR / "01-additive-n2-m3.json").read_text())
    write_manifest(tmp_path, ["a.json", "gone.json"])
    for workers in ("1", "2"):
        code = main(["verify", str(tmp_path), "--checks", "welfare", "--workers", workers])
        good, missing = json.loads(capsys.readouterr().out)["results"]
        assert code == 1
        assert Path(good["instance"]).name == "a.json" and good["passed"]
        assert Path(missing["instance"]).name == "gone.json" and missing["check"] == "error"
        assert missing["details"]["error"] == "FormatError"


GOOD_INSTANCE = json.loads((CORPUS_DIR / "01-additive-n2-m3.json").read_text())
# fields replaced in a good m = 3 instance; None stands for a manifest item without "file"
MALFORMED = {
    "bidder-not-an-object": {"bidders": ["additive"]},
    "weights-not-a-list": {"bidders": [{"kind": "additive", "weights": 5}]},
    "bidders-not-a-list": {"bidders": 5},
    "null-weight": {"bidders": [{"kind": "additive", "weights": [None, "1", "2"]}]},
    "cover-element-not-an-int": {
        "bidders": [{"kind": "coverage", "element_weights": ["1"], "covers": [["0"], [], []]}]
    },
    # a string where a list belongs would iterate as its characters
    "weights-a-string": {"bidders": [{"kind": "additive", "weights": "123"}]},
    "unit-demand-weights-a-string": {"bidders": [{"kind": "unit-demand", "weights": "123"}]},
    "clauses-a-string": {"bidders": [{"kind": "xos", "clauses": "123"}]},
    "clause-a-string": {"bidders": [{"kind": "xos", "clauses": ["123"]}]},
    "element-weights-a-string": {
        "bidders": [{"kind": "coverage", "element_weights": "12", "covers": [[0], [1], []]}]
    },
    "covers-a-string": {
        "bidders": [{"kind": "coverage", "element_weights": ["1"], "covers": "000"}]
    },
    "explicit-values-a-list": {"bidders": [{"kind": "explicit", "values": ["1"] * 8}]},
    "metadata-not-an-object": {"metadata": "seed 7"},
    "m-a-bool": {"m": True},
    "manifest-item-without-file": None,
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_is_a_format_error(case, tmp_path, capsys):
    (tmp_path / "good.json").write_text(json.dumps(GOOD_INSTANCE))
    if MALFORMED[case] is None:
        write_manifest(tmp_path, ["good.json"], {"label": "no file"})
        assert main(["verify", str(tmp_path), "--checks", "welfare"]) == 2
        assert "malformed manifest" in capsys.readouterr().err
        return
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**GOOD_INSTANCE, **MALFORMED[case]}))
    for argv in (["run", str(bad), "--c", "1/2"], ["solve", str(bad)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
    # in a corpus, the malformed instance is an error record and the other is checked
    write_manifest(tmp_path, ["good.json", "bad.json"])
    assert main(["verify", str(tmp_path), "--checks", "welfare"]) == 1
    good, record = json.loads(capsys.readouterr().out)["results"]
    assert good["passed"] and record["check"] == "error"
    assert record["details"]["error"] == "FormatError"


@pytest.mark.parametrize("field", ["c", "p"])
def test_a_manifest_config_past_the_digit_limit_is_an_error_record(field, tmp_path, capsys):
    for name in ("good.json", "bad.json"):
        (tmp_path / name).write_text(json.dumps(GOOD_INSTANCE))
    config = {"c": "1/2", "p": "1/20", field: "1e-5000"}
    write_manifest(tmp_path, ["good.json"], {"file": "bad.json", "config": config})
    assert main(["verify", str(tmp_path), "--checks", "welfare"]) == 1
    good, record = json.loads(capsys.readouterr().out)["results"]
    assert good["passed"] and Path(good["instance"]).name == "good.json"
    assert Path(record["instance"]).name == "bad.json" and record["check"] == "error"
    assert record["details"] == {
        "error": "FormatError",
        "message": "bad exact value '1e-5000': write it without an exponent",
    }
    assert record["config"] is None


# exact values past Python's 4,300-digit int-to-str limit, as written or once parsed
OVERSIZE = {"exponent": '"1e5000"', "long-string": f'"{"1" * 5000}"', "long-integer": "1" * 5000}


@pytest.mark.parametrize("case", OVERSIZE)
def test_an_oversize_exact_value_is_an_error_record(case, tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(GOOD_INSTANCE))
    bad = json.loads(good.read_text())
    bad["bidders"][0]["weights"][0] = "@"
    (tmp_path / "bad.json").write_text(json.dumps(bad).replace('"@"', OVERSIZE[case]))
    assert main(["solve", str(tmp_path / "bad.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    if case == "long-string":
        assert err.endswith("exact value characters: 5000 exceeds the cap of 100\n")
    # next to a good file, the bad one is an error record and the good one is checked
    assert main(["verify", str(tmp_path), "--c", "1/2", "--p", "1/20", "--checks", "welfare"]) == 1
    record, checked = json.loads(capsys.readouterr().out)["results"]
    assert Path(record["instance"]).name == "bad.json" and record["check"] == "error"
    assert record["details"]["error"] == ("CapacityError" if case == "long-string" else "FormatError")
    assert Path(checked["instance"]).name == "good.json" and checked["passed"]


INSTANCE_FILES = sorted(p.name for p in CORPUS_DIR.glob("*.json") if p.name != "manifest.json")


def nested_text(depth: int) -> str:
    return "[" * depth + "1" + "]" * depth


# what a mutation writes in place of a value: other JSON types, exponent and
# decimal strings, values around the length cap, lists of other lengths, and
# nesting around the nesting cap and past the decoder's own limit (written as
# text, since json.dumps cannot write it)
REPLACEMENTS = st.one_of(
    st.sampled_from([None, True, False, 0, -1, 2, 7, 10**5, 0.5, -1e308, "", "x", [], {}]),
    st.sampled_from(["1e5", "2E-3", "1/1e2", "0.5", "-0.0", ".5", "1_000", " 3", "1/0",
                     "nan", "inf", "3/-4", "\u0663", "0x10"]),
    st.integers(1, 3 * VALUE_LENGTH_CAP).map(lambda k: "9" * k),
    st.integers(0, 12).map(lambda k: ["1"] * k),
    st.sampled_from([2, NESTING_CAP - 2, NESTING_CAP + 1, 5000]).map(nested_text),
)


@st.composite
def mutated_instance_texts(draw):
    """A standard-corpus instance file with one to three values replaced, removed or added.

    Each mutation walks from the top down a random path and then replaces the
    value it reached, removes it from its list or object, or adds an extra key
    beside it.
    """
    doc = json.loads((CORPUS_DIR / draw(st.sampled_from(INSTANCE_FILES))).read_text())
    texts = {}  # marker string -> the text that replaces it
    for _ in range(draw(st.integers(1, 3))):
        parent, key = None, None
        node = doc
        while isinstance(node, (list, dict)) and node and draw(st.booleans()):
            parent, key = node, draw(st.sampled_from(list(node) if isinstance(node, dict)
                                                     else range(len(node))))
            node = parent[key]
        new = draw(REPLACEMENTS)
        if isinstance(new, str) and new.startswith("["):
            texts[f"@{len(texts)}@"] = new
            new = f"@{len(texts) - 1}@"
        action = draw(st.sampled_from(["replace", "remove", "add"]))
        if parent is None:
            doc = new if action == "replace" else doc
        elif action == "replace":
            parent[key] = new
        elif action == "remove":
            del parent[key]
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(["extra", "m", "kind", "weights", ""]))] = new
        else:
            parent.append(new)
    text = json.dumps(doc)
    for marker, replacement in texts.items():
        text = text.replace(json.dumps(marker), replacement)
    return text


def quiet_main(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(text=mutated_instance_texts())
def test_a_mutated_instance_file_ends_in_a_report_or_an_error(text):
    # an exception other than AuctionError would leave main() with a traceback
    with tempfile.TemporaryDirectory() as workdir:
        folder = Path(workdir)
        (folder / "bad.json").write_text(text, encoding="utf-8")
        (folder / "good.json").write_text(json.dumps(GOOD_INSTANCE))
        code, out, err = quiet_main(["solve", str(folder / "bad.json")])
        assert (code, err[:7]) in ((0, ""), (2, "error: ")) and "Traceback" not in err
        write_manifest(folder, ["bad.json", "good.json"])
        code, out, err = quiet_main(["verify", str(folder), "--checks", "welfare"])
        assert code in (0, 1) and err == ""
        records = json.loads(out)["results"]
        assert [Path(r["instance"]).name for r in records] == ["bad.json", "good.json"]
        assert records[1]["passed"]


@pytest.mark.parametrize("seed", [1.9, True, "12", None], ids=["float", "bool", "string", "null"])
def test_a_manifest_seed_that_is_not_an_integer_is_a_format_error(seed, tmp_path, capsys):
    (tmp_path / "good.json").write_text(json.dumps(GOOD_INSTANCE))
    (tmp_path / "bad.json").write_text(json.dumps(GOOD_INSTANCE))
    write_manifest(tmp_path, ["good.json"])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    config = {"c": "1/2", "p": "1/20", "seed": seed}
    manifest["instances"].append({"file": "bad.json", "config": config})
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert main(["verify", str(tmp_path), "--checks", "welfare"]) == 1
    good, record = json.loads(capsys.readouterr().out)["results"]
    assert good["passed"] and record["check"] == "error" and record["config"] is None
    assert record["details"]["error"] == "FormatError"
    assert "seed" in record["details"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--corpus", "standard", "--out", "x.json"],
        ["--corpus", "standard", "--kind", "xos"],
        ["--corpus", "truthfulness", "--n", "2"],
        ["--corpus", "standard", "--m", "3"],
        ["--kind", "xos", "--n", "2", "--m", "3", "--out-dir", "corpus-dir"],
    ],
    ids=["corpus-out", "corpus-kind", "corpus-n", "corpus-m", "out-dir-without-corpus"],
)
def test_generate_rejects_flags_it_would_ignore(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["generate", *argv]) == 2
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []
