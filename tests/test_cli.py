import hashlib
import json
import os
import platform
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from proxyauction import cli, mechanism
from proxyauction import verify as ver
from proxyauction.cli import main
from proxyauction.errors import FormatError
from proxyauction.serialize import config_from_dict, load_json, solution_from_dict

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


def test_bench_smoke(tmp_path):
    out = tmp_path / "bench.json"
    code = main(["bench", "--kind", "additive", "--n", "2", "--m-list", "4",
                 "--repeat", "1", "--format", "json", "--out", str(out)])
    assert code == 0
    report = load_json(out)
    assert report["schema"] == "bench-report/4"
    assert report["repeat"] == 1
    assert report["samples"] == 1000
    assert report["python"] == platform.python_version()
    assert report["cpu_count"] == os.cpu_count()
    assert report["rows"][0]["objectives_agree"] is True
    assert report["rows"][0]["exact_full_pivots"] > 0
    assert report["rows"][0]["sample_seconds"] > 0


def test_bench_exits_nonzero_on_solver_mismatch(monkeypatch, capsys):
    real = cli.solve_column_generation

    def off_by_one(*args, **kwargs):
        return replace(real(*args, **kwargs), objective=F(-1))

    monkeypatch.setattr(cli, "solve_column_generation", off_by_one)
    code = main(["bench", "--kind", "additive", "--n", "2", "--m-list", "4", "--repeat", "1"])
    assert code == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_bench_checks_vertex_enumeration_under_the_cap(tmp_path):
    out = tmp_path / "bench.json"
    code = main(["bench", "--kind", "additive", "--n", "2", "--m-list", "2,4",
                 "--repeat", "1", "--format", "json", "--out", str(out)])
    assert code == 0
    report = load_json(out)
    assert report["schema"] == "bench-report/4"
    small, large = report["rows"]
    assert not any("float" in key for key in small)
    assert small["vertex_enum_objective"] == small["objective"]
    assert small["vertex_enum_seconds"] >= 0
    # n = 2, m = 4: 1,947,792 bases, beyond the enumeration cap
    assert large["vertex_enum_seconds"] == large["vertex_enum_objective"] == "skipped"
    assert large["objectives_agree"] is True


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

    # the truthful run is the verified pipeline; each misreport builds its own
    calls.clear()
    assert main([*flags, "--checks", "welfare,truthfulness", "--out", str(out)]) == 0
    [_, truthfulness] = load_json(out)["results"]
    assert calls["Pipeline"] == 1 + truthfulness["details"]["misreports_checked"]


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
    # the report each check built its own Pipeline for, byte for byte
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "a1230a90c4b01408a81f2d01b5d7bedaba561545a7b5d48fb0a4e014562bacba"


def test_verify_workers_clamp_to_the_targets(monkeypatch, instance_file, tmp_path):
    one, four = tmp_path / "one.json", tmp_path / "four.json"
    flags = ["verify", str(instance_file), "--c", "1/2", "--p", "1/20"]
    assert main([*flags, "--workers", "1", "--out", str(one)]) == 0

    def no_pool(*args, **kwargs):
        raise AssertionError("one target must not start a worker pool")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    assert main([*flags, "--workers", "4", "--out", str(four)]) == 0
    assert four.read_bytes() == one.read_bytes()


def test_verify_and_run_honour_the_proxy_cap(capsys):
    # an xos proxy over m = 4 items needs a 2^4-bundle table
    path = str(CORPUS_DIR / "08-xos-n3-m4.json")
    assert main(["run", path, "--caps", "proxy=2"]) == 2
    assert "proxy table over all bundles" in capsys.readouterr().err
    assert main(["verify", path, "--caps", "proxy=2", "--checks", "lp"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    [record] = report["results"]
    assert record["check"] == "error"
    assert record["details"]["error"] == "CapacityError"
    assert (record["details"]["required"], record["details"]["cap"]) == (16, 4)
    assert main(["verify", path, "--caps", "proxy=4", "--checks", "lp"]) == 0


def test_verify_and_run_honour_the_lp_cap(capsys):
    # the full LP over m = 5 items has 2^5 - 1 columns per bidder
    path = str(CORPUS_DIR / "05-unit-demand-n3-m5.json")
    assert main(["run", path, "--caps", "lp=2"]) == 2
    assert "full LP column enumeration" in capsys.readouterr().err
    assert main(["verify", path, "--caps", "lp=2", "--checks", "lp"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    [record] = report["results"]
    assert record["check"] == "error"
    assert record["details"]["error"] == "CapacityError"
    assert (record["details"]["required"], record["details"]["cap"]) == (32, 4)
    assert main(["verify", path, "--caps", "lp=5", "--checks", "lp"]) == 0


def cap_error(capsys, argv) -> tuple:
    """(what, required, cap) of the one error record a capped verify reports."""
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    [record] = report["results"]
    assert record["check"] == "error" and record["details"]["error"] == "CapacityError"
    details = record["details"]
    return details["what"], details["required"], details["cap"]


CONTENDED = ["verify", str(CORPUS_DIR / "22-xos-n3-m4-contended.json"), "--c", "1/2", "--p", "1/20"]


def test_verify_law_honours_the_atom_cap(capsys):
    # the contended instance's law has 12 joint tentative draws
    for cap in (6, 11):
        assert cap_error(capsys, [*CONTENDED, "--caps", f"atoms={cap}"]) == (
            "joint tentative enumeration", 12, cap,
        )
    assert main([*CONTENDED, "--caps", "atoms=12"]) == 0


def test_truthfulness_honours_the_lp_and_atom_caps(capsys):
    argv = [*CONTENDED, "--checks", "truthfulness"]
    assert cap_error(capsys, [*argv, "--caps", "lp=2"]) == ("full LP column enumeration", 16, 4)
    assert cap_error(capsys, [*argv, "--caps", "atoms=1"]) == ("joint tentative enumeration", 12, 1)


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


def test_verify_corpus_reports_each_oversize_instance(capsys):
    # proxy=3: only closed-form bidders or m <= 3 fit; the rest become error records
    code = main(["verify", str(CORPUS_DIR), "--caps", "proxy=3"])
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
        kinds = {v["kind"] for v in instance["bidders"]}
        if instance["m"] <= 3 or kinds <= {"additive", "unit-demand"}:
            assert all(r["check"] != "error" and r["passed"] for r in records), name
        else:
            errors += 1
            [record] = records
            assert record["check"] == "error" and record["asserted"], name
            details = record["details"]
            assert details["what"] == "proxy table over all bundles", name
            assert (details["required"], details["cap"]) == (1 << instance["m"], 8), name
            assert record["config"] is not None
    assert errors > 0


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
# (run-report/2), the auction digests before the simplex took 0/1 supports;
# a change that alters one byte of a pinned report fails here
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
    "run-xos-n3-m6-full": (
        ["run", "xos-n3-m6.json", "--payments", "--solver", "full"],
        "8042012dc115e0302ee3578ab1179cb1d3ee7ca383a1dba530dc33632ae6f2d1",
    ),
    "run-xos-n3-m6-colgen": (
        ["run", "xos-n3-m6.json", "--payments", "--solver", "column-generation"],
        "56fa548b213ecc34b57834ba8382cba131616e45096ee4ea0f9ccabbf6bbbd7b",
    ),
}

# instances generated into the working directory: the benchmark's xos auction shape
GENERATED = {
    "xos-n3-m6.json": ["generate", "--kind", "xos", "--n", "3", "--m", "6", "--seed", "1"],
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_reports_keep_their_bytes(name, monkeypatch, capsys, tmp_path):
    argv, digest = PINNED_REPORTS[name]
    # a relative path keeps the report independent of the checkout
    if argv[1] in GENERATED:
        monkeypatch.chdir(tmp_path)
        assert main([*GENERATED[argv[1]], "--out", argv[1]]) == 0
        capsys.readouterr()
    else:
        monkeypatch.chdir(ROOT)
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest


INSTANCE = str(CORPUS_DIR / "08-xos-n3-m4.json")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", INSTANCE, "--c", "abc"], "argument --c: expected a rational"),
        (["run", INSTANCE, "--c", "1/0"], "argument --c: expected a rational"),
        (["run", INSTANCE, "--p", "x"], "argument --p: expected a rational"),
        (["verify", INSTANCE, "--checks", "monte-carlo", "--trials", "0"],
         "argument --trials: expected a positive integer"),
        (["bench", "--repeat", "0"], "argument --repeat: expected a positive integer"),
        (["bench", "--m-list", "x"], "argument --m-list: expected a positive integer"),
        (["run", INSTANCE, "--replications", "-3"],
         "argument --replications: expected a positive integer"),
        (["generate", "--kind", "xos", "--n", "2", "--m", "3", "--clauses", "0"],
         "argument --clauses: expected a positive integer"),
        # a superscript digit passes str.isdigit but not int()
        (["verify", INSTANCE, "--caps", "proxy=\u00b2"],
         "argument --caps: bad entry 'proxy=\u00b2'"),
        (["run", INSTANCE, "--caps", "atoms"], "argument --caps: bad entry 'atoms'"),
    ],
    ids=["c-text", "c-zero-denominator", "p-text", "trials-zero", "repeat-zero", "m-list-text",
         "replications-negative", "clauses-zero", "caps-superscript", "caps-without-value"],
)
def test_bad_numeric_flags_are_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err.splitlines()[-1]
