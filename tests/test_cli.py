import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plateaulab import circuits, cli, game, info, training
from plateaulab.cli import (
    DEFAULT_SEED,
    EXIT_BAD_CONFIG,
    EXIT_BOUND_VIOLATION,
    EXIT_INTERNAL_ERROR,
    EXIT_OK,
    build_parser,
    main,
)
from plateaulab.rng import BLOCK_BYTES, RandomStack
from plateaulab.torus import GridShift, TorusPoint

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _read(path):
    return path.read_bytes()


def test_bounds_csv(tmp_path):
    out = tmp_path / "bounds.csv"
    code = main(["bounds", "--n-max", "12", "--format", "csv", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,delta,p_exact,p_hoeffding"
    assert len(lines) == 13


def test_bounds_json_report(tmp_path):
    out = tmp_path / "bounds.json"
    code = main(["bounds", "--n-max", "6", "--format", "json", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["config_digest"]
    assert all(c["passed"] for c in report["checks"])
    assert "wall_time_s" in report


def test_train_default_alpha_rejected_for_small_n(tmp_path):
    code = main(["train", "--algo", "random", "--n", "3", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_BAD_CONFIG


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--bogus"])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_mi_fixed_requires_point(tmp_path):
    code = main(["mi", "--n", "1", "--strategy", "fixed", "--out", str(tmp_path / "x")])
    assert code == EXIT_BAD_CONFIG


def test_identify_small(tmp_path):
    out = tmp_path / "id.csv"
    code = main(
        ["identify", "--n", "2", "--trials", "500", "--seed", "14", "--out", str(out)]
    )
    assert code == EXIT_OK
    header, row = out.read_text().strip().splitlines()
    assert header == "n,trials,unique_rate,correct_rate,ambiguous"
    assert row.split(",")[3] == "1"


_SWEEPS = [
    (["train", "--n", "4", "--budget", "50"], "--trials"),
    (["exit-time", "--n", "6", "--m-max", "10"], "--trials"),
    (["diverge", "--n", "6", "--m", "4"], "--trials"),
    (["mi", "--n", "1", "--m", "3"], "--transcripts"),
    (["identify", "--n", "2"], "--trials"),
]


@pytest.mark.parametrize(
    "argv",
    [
        ["game", "--n", "4", "--trials", "2500", "--m-max", "15"],
        *[pytest.param(["game", "--n", "4", "--trials", "2500", "--m-max", "15",
                        "--strategy", strategy], id=f"game-{strategy}")
          for strategy in ("adaptive", "grid")],
        ["train", "--n", "4", "--trials", "1500", "--budget", "50"],
        ["exit-time", "--n", "6", "--trials", "1500", "--m-max", "10"],
        ["diverge", "--n", "6", "--m", "4", "--trials", "1500"],
        ["mi", "--n", "1", "--m", "3", "--transcripts", "1500"],
        ["identify", "--n", "2", "--trials", "1500"],
        # counts whose chunks depend on the pool size
        *[pytest.param([*argv, flag, str(count)], id=f"{argv[0]}-{count}")
          for argv, flag in _SWEEPS for count in (1, 2, 100, 999, 1001)],
    ],
    ids=lambda argv: argv[0],
)
def test_csv_workers_byte_identical(tmp_path, argv):
    # twice round, so later calls run on the pool the first parallel call started
    outs = []
    for i, workers in enumerate(("1", "2", "3") * 2):
        out = tmp_path / f"{i}-w{workers}.csv"
        code = main(argv + ["--seed", "9", "--workers", workers, "--out", str(out)])
        assert code in (EXIT_OK, EXIT_BOUND_VIOLATION)
        outs.append(_read(out))
    assert outs == outs[:1] * len(outs)


def test_train_json_resolves_alpha_and_summarises(tmp_path):
    out = tmp_path / "t.json"
    argv = ["train", "--n", "5", "--trials", "20", "--budget", "500", "--format", "json"]
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["config"]["alpha"] == training.default_alpha(5)
    rows = report["rows"]
    assert report["summary"] == {
        "median_queries": float(np.median([r["queries_total"] for r in rows])),
        "success_rate": sum(r["succeeded"] for r in rows) / len(rows),
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--n", "5", "--trials", "0"],
        ["exit-time", "--n", "5", "--trials", "0"],
        ["mi", "--n", "2", "--transcripts", "0"],
        ["mi", "--n", "2", "--m", "-1"],
        ["identify", "--n", "20", "--trials", "1"],
        ["game", "--n", "4", "--trials", "10", "--m-max", "-1"],
        ["exit-time", "--n", "5", "--trials", "10", "--m-max", "-1"],
        # refused before the 16 GB histogram is allocated
        ["game", "--n", "4", "--m-max", "2000000000", "--trials", "10"],
        ["exit-time", "--n", "6", "--m-max", "2000000000", "--trials", "10"],
        ["verify-circuit", "--trials", "0"],
        ["verify-circuit", "--n-max", "0"],
        ["verify-circuit", "--tol", "nan"],
        ["verify-circuit", "--tol", "-1"],
        ["bounds", "--n-max", "0"],
        ["bounds", "--n-max", "3000"],  # refused before any row: 3,000 rows would take minutes
        ["mi", "--n", "0", "--m", "0"],
        ["identify", "--n", "0"],
        ["identify", "--n", "2", "--tol", "nan"],
        ["mi", "--n", "1", "--strategy", "fixed", "--point", "inf"],
        ["mi", "--n", "1", "--strategy", "fixed", "--point", "nan"],
        # the point is parsed before m = 0 returns, as eta is
        ["mi", "--n", "2", "--strategy", "fixed", "--point", "nan", "--m", "0"],
        ["mi", "--n", "2", "--strategy", "fixed", "--point", "0.1", "--m", "0"],
        ["game", "--n", "0"],
        ["exit-time", "--n", "0"],
        ["train", "--n", "0", "--alpha", "0.5"],
        ["train", "--n", "5", "--alpha", "2"],
        ["train", "--n", "5", "--budget", "0"],
        ["diverge", "--n", "5", "--m", "0", "--eta", "5"],
        ["game", "--n", "3", "--trials", "5", "--workers", "-3"],
    ],
    ids=" ".join,
)
def test_bad_sizes_exit_2(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path / "x")]) == EXIT_BAD_CONFIG


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mi", "--n", "2", "--strategy", "fixed", "--point", "0.1,inf"], "must be finite"),
        (["mi", "--n", "1", "--strategy", "fixed", "--point", "nan"], "must be finite"),
        (["mi", "--n", "2", "--strategy", "fixed", "--point", "nan", "--m", "0"],
         "must be finite"),
        (["mi", "--n", "2", "--strategy", "fixed", "--point", "0.1", "--m", "0"],
         "wrong dimension"),
        (["mi", "--n", "3", "--strategy", "uniform", "--point", "0.1,0.2,0.3"],
         "--point applies only to --strategy fixed"),
        (["game", "--n", "0"], "n must be >= 1"),
        (["game", "--n", "4", "--m-max", "2000000000"], "exceeds CDF-table cap 1000000"),
        (["exit-time", "--n", "6", "--m-max", "1000001"], "rows need about 0.55 GB"),
        (["exit-time", "--n", "0"], "n must be >= 1"),
        (["diverge", "--n", "5", "--m", "0", "--eta", "5"], "eta must lie in [-1, 1]"),
        (["game", "--n", "3", "--trials", "5", "--workers", "-3"], "--workers must be >= 1"),
        # run_chunks' own check, for every front end that has no other
        (["game", "--n", "3", "--trials", "0"], "trials must be >= 1"),
        (["train", "--n", "5", "--trials", "0"], "trials must be >= 1"),
        (["exit-time", "--n", "3", "--trials", "0"], "trials must be >= 1"),
        (["diverge", "--n", "5", "--trials", "0"], "trials must be >= 1"),
        (["identify", "--n", "2", "--trials", "0"], "trials must be >= 1"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else v,
)
def test_bad_input_names_the_problem(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path / "x")]) == EXIT_BAD_CONFIG
    assert message in capsys.readouterr().err


_EXPONENT_FORM = [
    ("diverge --n 5 --trials 10 --eta -1e-3", -1e-3, None),
    ("diverge --n 5 --trials 10 --eta -.5e-1", -0.05, None),
    ("diverge --n 5 --trials 10 --eta -1E+2", -100.0, "eta must lie in [-1, 1]"),
    ("train --n 5 --trials 5 --alpha -1e-3", -1e-3, "alpha must lie in (0, 2)"),
    ("train --n 5 --trials 5 --alpha -1E+2", -100.0, "alpha must lie in (0, 2)"),
    ("train --n 5 --trials 5 --alpha -.5e-1", -0.05, "alpha must lie in (0, 2)"),
    ("identify --n 2 --trials 10 --tol -1e-3", -1e-3, "tol must be positive"),
    ("verify-circuit --n-max 1 --trials 2 --tol -1E+2", -100.0, "tol must be >= 0"),
    ("verify-circuit --n-max 1 --trials 2 --tol -.5e-1", -0.05, "tol must be >= 0"),
    ("mi --n 1 --m 2 --transcripts 10 --strategy fixed --point -1e-3", "-1e-3", None),
    ("mi --n 2 --m 2 --transcripts 10 --strategy fixed --point -.5e-1,-1E+2",
     "-.5e-1,-1E+2", None),
]


@pytest.mark.parametrize(
    "argv, value, message", _EXPONENT_FORM, ids=[case[0] for case in _EXPONENT_FORM]
)
def test_negative_values_in_exponent_form(tmp_path, capsys, argv, value, message):
    # argparse's own matcher reads -1e-3 as an option: "expected one argument"
    argv = argv.split()
    assert vars(build_parser().parse_args(argv))[argv[-2].lstrip("-")] == value
    code = main(argv + ["--out", str(tmp_path / "x")])
    if message is None:
        assert code == EXIT_OK
    else:
        assert code == EXIT_BAD_CONFIG and message in capsys.readouterr().err


_HUGE_N = [
    ["game", "--trials", "3", "--m-max", "3"],
    ["exit-time", "--trials", "3", "--m-max", "3"],
    ["diverge", "--trials", "3", "--m", "2"],
    ["train", "--trials", "2", "--budget", "3"],
    ["identify", "--trials", "3"],
    ["mi", "--transcripts", "3", "--m", "2"],
]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("argv", _HUGE_N, ids=lambda argv: argv[0])
def test_n_whose_shift_count_overflows_a_float_exits_2_before_fan_out(
    tmp_path, monkeypatch, capsys, argv, workers
):
    def no_sweep(*args):
        raise AssertionError("a sweep started before n was checked")

    for module in (game, training, info):
        monkeypatch.setattr(module, "run_chunks", no_sweep)
    cases = [("647", "n=647 exceeds 646"), ("10000", "n=10000 exceeds 646")]
    if argv[0] == "identify":  # the candidate-table cap, whose size estimate no longer overflows
        cases.append(("646", "n=646 exceeds candidate-table cap 13"))
    if argv[0] == "mi":  # its own cap, whose message gives 3^n in short form
        cases.append(("646", "n=646 exceeds posterior cap 8"))
    for n, message in cases:
        argv_n = [*argv, "--n", n, "--workers", workers, "--out", str(tmp_path / "x")]
        assert main(argv_n) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert message in err and len(err) < 200


@pytest.mark.parametrize("argv", _HUGE_N[:4], ids=lambda argv: argv[0])
def test_n_at_the_float_limit_still_runs(tmp_path, argv):
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.csv"
        code = main([*argv, "--n", "646", "--seed", "3", "--workers", workers, "--out", str(out)])
        assert code in (EXIT_OK, EXIT_BOUND_VIOLATION)
        outs.append(_read(out))
    assert outs[0] == outs[1]


def test_internal_error_exits_3(monkeypatch, capsys):
    def crash(n):
        raise RuntimeError("boom")

    monkeypatch.setattr(game, "bounds", crash)
    assert main(["bounds", "--n-max", "2"]) == EXIT_INTERNAL_ERROR
    assert "error: internal error: RuntimeError: boom" in capsys.readouterr().err


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_write_error_exits_3(capsys):
    assert main(["bounds", "--n-max", "2", "--out", "/dev/full"]) == EXIT_INTERNAL_ERROR
    assert "error: internal error: OSError" in capsys.readouterr().err


def test_identify_at_tiny_tol_is_consistent(tmp_path):
    # the oracle value is read from the candidate table, so even a tol
    # far below float rounding finds the hidden shift
    out = tmp_path / "x.csv"
    argv = ["identify", "--n", "4", "--trials", "500", "--tol", "1e-16", "--out", str(out)]
    assert main(argv) == EXIT_OK
    header, row = out.read_text().strip().splitlines()
    assert float(dict(zip(header.split(","), row.split(",")))["correct_rate"]) == 1.0


@pytest.mark.parametrize("command", ["game", "exit-time"])
def test_m_max_0_writes_header_only(tmp_path, command):
    out = tmp_path / "x.csv"
    argv = [command, "--n", "5", "--trials", "10", "--m-max", "0", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert out.read_text() == "m,cdf,stderr,bound,exceeded\n"


def test_out_into_missing_directory_exits_2_before_running(tmp_path, monkeypatch, capsys):
    def must_not_run(n):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(game, "bounds", must_not_run)
    out = tmp_path / "missing" / "x.csv"
    assert main(["bounds", "--n-max", "2", "--out", str(out)]) == EXIT_BAD_CONFIG
    assert "does not exist" in capsys.readouterr().err
    assert not out.parent.exists()


def test_out_naming_a_directory_exits_2_before_running(tmp_path, monkeypatch, capsys):
    def must_not_run(n):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(game, "bounds", must_not_run)
    assert main(["bounds", "--n-max", "2", "--out", str(tmp_path)]) == EXIT_BAD_CONFIG
    assert "is a directory" in capsys.readouterr().err


def test_benchmark_reference_replay(tmp_path, monkeypatch):
    """Every benchmark step at the pinned seed reproduces its recorded CSV."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import workloads

    for steps in workloads.WORKLOADS.values():
        for step in steps:
            out = tmp_path / f"{step.label}.csv"
            code = main(step.cli_argv(DEFAULT_SEED, 1, str(out)))
            assert code in (EXIT_OK, EXIT_BOUND_VIOLATION), step.label
            reference = (PERFBENCH / "reference" / f"{step.label}.csv").read_text()
            assert checks.against_reference(step, out.read_text(), reference) == []


def test_bounds_refuses_n_max_above_the_cap_before_any_row(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(game, "bounds", lambda n: pytest.fail("a row was computed"))
    assert main(["bounds", "--n-max", "3000", "--out", str(tmp_path / "x")]) == EXIT_BAD_CONFIG
    assert "n_max must lie in [1, 646], got 3000" in capsys.readouterr().err


def test_diverge_csv(tmp_path):
    out = tmp_path / "d.csv"
    code = main(
        ["diverge", "--n", "8", "--m", "5", "--trials", "1000", "--seed", "4", "--out", str(out)]
    )
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,m,trials,divergence_rate,stderr,bound,exceeded"


def _json_report(tmp_path, argv):
    out = tmp_path / "r.json"
    code = main([*argv, "--format", "json", "--out", str(out)])
    return code, json.loads(out.read_text())


def test_cdf_margin_pinned_at_a_small_config(tmp_path):
    # row 2, not row 1, is the least (bound - cdf) / stderr here
    code, report = _json_report(
        tmp_path, ["game", "--n", "1", "--strategy", "grid", "--trials", "500", "--m-max", "10",
                   "--seed", "9"])
    (check,) = report["checks"]
    assert code == EXIT_OK and check["passed"]
    assert (check["margin_sigmas"], check["worst"]) == (0.2205994565770452, 2)
    row = report["rows"][1]
    assert row["m"] == 2 and check["margin_sigmas"] == (row["bound"] - row["cdf"]) / row["stderr"]


@pytest.mark.parametrize(
    "argv, violated",
    [
        *[(["game", "--n", "4", "--trials", "2500", "--m-max", "15", "--strategy", name], False)
          for name in sorted(game.STRATEGIES)],
        *[(["exit-time", "--n", "6", "--m-max", "10", "--trials", trials], False)
          for trials in ("1", "2", "100", "999", "1001", "1500")],
        # a rate of 0 puts every bound at 0, so every row with cdf > 0 exceeds it
        (["exit-time", "--n", "6", "--m-max", "10", "--trials", "1500"], True),
    ],
)
def test_cdf_margin_below_minus_3_exactly_when_the_check_fails(tmp_path, monkeypatch, argv,
                                                                violated):
    if violated:
        monkeypatch.setattr(training, "p_exact_fraction", lambda n: 0)
        monkeypatch.setattr(training, "delta_bound", lambda n: 0.0)
    code, report = _json_report(tmp_path, [*argv, "--seed", "9"])
    (check,) = report["checks"]
    assert check["passed"] is not violated
    assert code == (EXIT_BOUND_VIOLATION if violated else EXIT_OK)
    margin = check["margin_sigmas"]
    assert (margin is not None and margin < -3) == violated
    rows = [r for r in report["rows"] if r["stderr"] > 0]
    if rows:  # else a single trial, every cdf 0 or 1
        assert min(((r["bound"] - r["cdf"]) / r["stderr"], r["m"]) for r in rows) == (
            margin, check["worst"])
    else:
        assert margin is None and check["worst"] is None


def test_cdf_row_of_stderr_0_that_fails_is_worst_without_a_margin(tmp_path):
    # one trial: every row has stderr 0, and row m = 2 (cdf 1.0) exceeds its bound 0.936
    code, report = _json_report(
        tmp_path, ["exit-time", "--n", "6", "--trials", "1", "--m-max", "10", "--seed", "0"])
    (check,) = report["checks"]
    assert code == EXIT_BOUND_VIOLATION and not check["passed"]
    assert (check["margin_sigmas"], check["worst"]) == (None, 2)
    assert [r["m"] for r in report["rows"] if r["exceeded"]] == [2]


def test_mi_margin_pinned_at_a_small_config(tmp_path):
    # 0.3204 +- 0.0073 bits, far nearer 0 than n log2 3 = 3.17
    code, report = _json_report(
        tmp_path, ["mi", "--n", "2", "--m", "4", "--transcripts", "300", "--seed", str(DEFAULT_SEED)])
    (check,) = report["checks"]
    (row,) = report["rows"]
    assert code == EXIT_OK and check["passed"] and check["worst"] is None
    assert check["margin_sigmas"] == 43.790998113185125
    assert check["margin_sigmas"] == row["mi_bits"] / row["stderr"]


def test_diverge_bound_adds_eta_to_delta(tmp_path):
    # inside the plateau |f| < delta, and the coupled answers differ with probability
    # |f - eta| / 2: at eta = 0.3 the rate 0.7402 +- 0.0044 is far above delta m / 2 = 0.439
    argv = ["diverge", "--n", "12", "--m", "10", "--trials", "10000", "--seed", str(DEFAULT_SEED)]
    code, report = _json_report(tmp_path, [*argv, "--eta", "0.3"])
    (row,) = report["rows"]
    (check,) = report["checks"]
    assert code == EXIT_OK and check["passed"] and row["exceeded"] is False
    assert row["bound"] == 1.9389574759945127 == (game.delta_bound(12) + 0.3) * 10 / 2.0
    assert row["divergence_rate"] == 0.7402
    assert check["margin_sigmas"] == (row["bound"] - row["divergence_rate"]) / row["stderr"]
    # at eta = 0 the bound is delta m / 2, the same float as before eta entered it
    _, report = _json_report(tmp_path, argv)
    assert report["rows"][0]["bound"] == game.delta_bound(12) * 10 / 2.0


@pytest.mark.parametrize(
    "argv, checks",
    [
        # criterion 09's config: 2 of 10,000 trials are ambiguous at n = 4
        (["identify", "--n", "4", "--trials", "10000"],
         [("single-query-identification", False, 4)]),
        # at tol 0 the statevector's rounding fails the first n already
        (["verify-circuit", "--n-max", "2", "--trials", "3", "--tol", "0"],
         [("tensor-vs-analytic-agreement", False, 1), ("single-qubit-anchor-values", True, None)]),
    ],
    ids=["identify", "verify-circuit"],
)
def test_failing_exact_check_names_its_row(tmp_path, argv, checks):
    code, report = _json_report(tmp_path, [*argv, "--seed", str(DEFAULT_SEED)])
    assert code == EXIT_BOUND_VIOLATION
    assert [(c["name"], c["passed"], c["worst"]) for c in report["checks"]] == checks
    assert all(c["margin_sigmas"] is None for c in report["checks"])


def _check_by_brute_force(rows):
    """_check's rule restated row by row: (passed, margin_sigmas, worst)."""
    fails = [value > bound + 3 * stderr for _, value, bound, stderr in rows]
    for (label, _, _, stderr), fail in zip(rows, fails):
        if fail and stderr == 0:
            return not any(fails), None, label
    margin = worst = None
    for label, value, bound, stderr in rows:
        if stderr > 0 and (margin is None or (bound - value) / stderr < margin):
            margin, worst = (bound - value) / stderr, label
    return not any(fails), margin, worst


# few distinct values, so that margins tie and stderr-0 rows sit on their bound
_CHECK_ROW = st.tuples(
    st.none() | st.integers(0, 3),
    st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0]) | st.floats(-2, 2),
    st.sampled_from([0.0, 0.5, 1.0]) | st.floats(-2, 2),
    st.sampled_from([0.0, 0.0, 0.25, 0.5]) | st.floats(0, 1),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_CHECK_ROW, max_size=6))
def test_check_follows_its_rule_on_random_rows(rows):
    check = cli._check("name", rows)
    assert list(check) == ["name", "passed", "margin_sigmas", "worst"]
    assert (check["passed"], check["margin_sigmas"], check["worst"]) == _check_by_brute_force(rows)
    assert type(check["passed"]) is bool


_TINY = [
    ["verify-circuit", "--n-max", "1", "--trials", "2"],
    ["bounds", "--n-max", "2"],
    ["game", "--n", "2", "--trials", "20", "--m-max", "3"],
    ["train", "--n", "4", "--trials", "2", "--budget", "20"],
    ["exit-time", "--n", "4", "--trials", "20", "--m-max", "3"],
    ["diverge", "--n", "4", "--m", "2", "--trials", "20"],
    ["mi", "--n", "1", "--m", "2", "--transcripts", "20"],
    ["identify", "--n", "2", "--trials", "20"],
]


def test_every_check_has_four_keys_and_is_in_readme(tmp_path):
    section = (ROOT / "README.md").read_text().split("\n### Checks\n", 1)[1].split("\n#", 1)[0]
    commands = build_parser()._subparsers._group_actions[0].choices
    assert sorted(argv[0] for argv in _TINY) == sorted(commands)
    names = []
    for argv in _TINY:
        code, report = _json_report(tmp_path, argv)
        assert code in (EXIT_OK, EXIT_BOUND_VIOLATION)
        for check in report["checks"]:
            assert list(check) == ["name", "passed", "margin_sigmas", "worst"]
            assert f"`{check['name']}`" in section, check["name"]
            names.append(check["name"])
    assert len(set(names)) == len(names) == 9


_COLUMNS = {
    "verify-circuit": "n,trials,max_abs_dev",
    "bounds": "n,delta,p_exact,p_hoeffding",
    "game": "m,cdf,stderr,bound,exceeded",
    "train": "trial,queries_total,succeeded,first_exit",
    "exit-time": "m,cdf,stderr,bound,exceeded",
    "diverge": "n,m,trials,divergence_rate,stderr,bound,exceeded",
    "mi": "n,m,transcripts,mi_bits,stderr",
    "identify": "n,trials,unique_rate,correct_rate,ambiguous",
}
_CAPS = {"--trials": 300, "--transcripts": 300, "--budget": 2000}


def _readme_commands():
    """The argv of each plateaulab line in README's "## Command line" sh block."""
    text = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("plateaulab ")]


def test_readme_lists_every_subcommand():
    commands = build_parser()._subparsers._group_actions[0].choices
    assert sorted(argv[0] for argv in _readme_commands()) == sorted(commands) == sorted(_COLUMNS)


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_readme_command_lines_run(tmp_path, argv):
    # README's own lines, with sizes cut to test scale and --out into tmp_path
    argv = list(argv)
    for i, tok in enumerate(argv[:-1]):
        if tok in _CAPS:
            argv[i + 1] = str(min(int(argv[i + 1]), _CAPS[tok]))
        elif tok == "--out":
            argv[i + 1] = out = str(tmp_path / Path(argv[i + 1]).name)
    assert main(argv) in (EXIT_OK, EXIT_BOUND_VIOLATION)  # identify may hit criterion 09
    text = Path(out).read_text()
    if "json" in argv:
        report = json.loads(text)
        assert ",".join(report["columns"]) == _COLUMNS[argv[0]] and report["checks"]
    else:
        assert text.splitlines()[0] == _COLUMNS[argv[0]]


def test_verify_circuit(tmp_path):
    out = tmp_path / "v.json"
    code = main(
        ["verify-circuit", "--trials", "20", "--format", "json", "--out", str(out)]
    )
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert {c["name"] for c in report["checks"]} == {
        "tensor-vs-analytic-agreement",
        "single-qubit-anchor-values",
    }


def test_verify_circuit_refuses_n_max_above_cap_before_any_trial(tmp_path, monkeypatch, capsys):
    def no_sim(points, trits):
        raise AssertionError("tensor_sim_rows ran before the cap was checked")

    monkeypatch.setattr(circuits, "tensor_sim_rows", no_sim)
    argv = ["verify-circuit", "--n-max", "11", "--trials", "5", "--out", str(tmp_path / "x")]
    assert main(argv) == EXIT_BAD_CONFIG
    assert "n_max=11 exceeds statevector cap 10" in capsys.readouterr().err
    # the patched kernel is the one the command calls
    argv[2] = "1"
    assert main(argv) == EXIT_INTERNAL_ERROR
    assert "tensor_sim_rows ran" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["--trials", "0"], ["--n-max", "11"], ["--tol", "nan"]], ids=" ".join
)
def test_verify_circuit_bad_input_exits_2_before_any_draw(tmp_path, monkeypatch, argv):
    def no_draw(*args):
        raise AssertionError("verify-circuit drew before checking its input")

    monkeypatch.setattr(cli, "stream_bases", no_draw)
    monkeypatch.setattr(cli, "uniform_block", no_draw)
    assert main(["verify-circuit", *argv, "--out", str(tmp_path / "x")]) == EXIT_BAD_CONFIG


def _verify_circuit_loop(seed, n_max, trials):
    """verify-circuit's CSV from its per-trial loop, the oracle of its row
    blocks, and each trial's (shift trits, point): stream n pops each trial's
    shift, then its point."""
    lines, drawn = ["n,trials,max_abs_dev"], []
    for n in range(1, n_max + 1):
        stack = RandomStack(seed, n)
        max_dev = 0.0
        for _ in range(trials):
            hidden = GridShift.from_index(n, stack.pop_index(3**n))
            f = circuits.ShiftedProductFunction(n, hidden)
            x = TorusPoint((stack.pop_batch(n) + 1.0) / 2.0)
            max_dev = max(max_dev, abs(circuits.tensor_sim(f, x) - f(x)))
            drawn.append((hidden.trits, x.coords))
        lines.append(f"{n},{trials},{max_dev:.17g}")
    return "\n".join(lines) + "\n", drawn


# verify-circuit's sub-block at n, BLOCK_BYTES // (16 * 2**n + 64 * (n + 1)) rows: the
# counts straddle its edges at n = 10 and n = 9, besides a few fixed small counts
_VC_EDGES = [BLOCK_BYTES // (16 * 2**n + 64 * (n + 1)) for n in (10, 9)]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize(
    "trials", sorted({1, 7, 8, 9, 14, 15, 17, *(e + d for e in _VC_EDGES for d in (0, 1, 2))}))
def test_verify_circuit_csv_equals_the_per_trial_loop(tmp_path, monkeypatch, trials, workers):
    want, want_drawn = _verify_circuit_loop(2718, 10, trials)
    kernel, drawn = circuits.tensor_sim_rows, []

    def recording_kernel(points, trits):  # the max in the CSV hides most trials
        drawn.extend(zip(map(tuple, trits.tolist()), map(tuple, points.tolist())))
        return kernel(points, trits)

    monkeypatch.setattr(circuits, "tensor_sim_rows", recording_kernel)
    out = tmp_path / "v.csv"
    argv = ["verify-circuit", "--n-max", "10", "--trials", str(trials), "--seed", "2718",
            "--workers", workers, "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert out.read_text() == want
    assert drawn == want_drawn


@pytest.mark.parametrize("n_max", ["1", "4", "10"])
def test_verify_circuit_peak_traced_allocation(tmp_path, n_max):
    # 5000 trials of 2**10 amplitudes would be 80 MB as one block; at small n
    # a row's draws and trits outweigh its amplitudes
    build_parser()
    tracemalloc.start()
    try:
        code = main(["verify-circuit", "--n-max", n_max, "--trials", "5000",
                     "--out", str(tmp_path / "v.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak <= 4.5 * BLOCK_BYTES, peak / BLOCK_BYTES


@pytest.fixture
def heap_setting_unmade():
    """_keep_freed_heap as in a process whose main has not run yet."""
    cli._keep_freed_heap.cache_clear()
    yield
    cli._keep_freed_heap.cache_clear()


def test_keep_freed_heap_calls_mallopt_once_per_process(tmp_path, monkeypatch, heap_setting_unmade):
    calls = []
    libc = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)))
    monkeypatch.setattr(cli.platform, "libc_ver", lambda: ("glibc", "2.36"))
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
    for i in range(3):
        assert main(["bounds", "--n-max", "2", "--out", str(tmp_path / f"{i}.csv")]) == EXIT_OK
    # M_MMAP_THRESHOLD, then M_TRIM_THRESHOLD
    assert calls == [(-3, 32 * BLOCK_BYTES), (-1, 64 * BLOCK_BYTES)]


@pytest.mark.parametrize("libc", ["not glibc", "no mallopt"])
def test_keep_freed_heap_is_a_silent_no_op_elsewhere(tmp_path, monkeypatch, capsys,
                                                     heap_setting_unmade, libc):
    def cdll(name):
        assert libc == "no mallopt", "loaded the C library off glibc"
        return SimpleNamespace()

    name = "" if libc == "not glibc" else "glibc"  # libc_ver's name on musl is ""
    monkeypatch.setattr(cli.platform, "libc_ver", lambda: (name, ""))
    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    out = tmp_path / "b.csv"
    assert main(["bounds", "--n-max", "2", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr() == ("", "")
    assert out.read_text().startswith("n,delta,p_exact,p_hoeffding\n")


def test_output_bytes_do_not_depend_on_the_heap_setting(tmp_path):
    # two fresh interpreters: one keeps freed heap (on glibc), one looks off glibc
    # and keeps the allocator's defaults; pool workers fork from each
    child = (
        "import json, platform, sys\n"
        "if sys.argv[1] == 'off':\n"
        "    platform.libc_ver = lambda *a, **k: ('', '')\n"
        "from plateaulab import cli\n"
        "for i, argv in enumerate(json.loads(sys.argv[2])):\n"
        "    cli.main(argv + ['--out', f'{sys.argv[1]}-{i}.csv'])\n"
    )
    argvs = [
        ["train", "--algo", "random", "--n", "7", "--budget", "200000", "--trials", "100"],
        ["train", "--algo", "random", "--n", "7", "--budget", "200000", "--trials", "100",
         "--workers", "2"],
        ["game", "--n", "16", "--trials", "500"],
        ["mi", "--n", "8", "--m", "10", "--transcripts", "10"],
        ["verify-circuit", "--n-max", "10", "--trials", "40"],
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    for setting in ("on", "off"):
        subprocess.run([sys.executable, "-c", child, setting, json.dumps(argvs)],
                       cwd=tmp_path, env=env, check=True, timeout=120)
    for i in range(len(argvs)):
        assert _read(tmp_path / f"on-{i}.csv") == _read(tmp_path / f"off-{i}.csv")


def test_seed_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("PLATEAULAB_SEED", "777")
    out1 = tmp_path / "e1.csv"
    out2 = tmp_path / "e2.csv"
    main(["game", "--n", "4", "--trials", "500", "--m-max", "5", "--out", str(out1)])
    main(
        [
            "game",
            "--n",
            "4",
            "--trials",
            "500",
            "--m-max",
            "5",
            "--seed",
            "777",
            "--out",
            str(out2),
        ]
    )
    assert _read(out1) == _read(out2)


def test_seed_env_read_at_each_call(tmp_path, monkeypatch):
    argv = ["mi", "--n", "2", "--m", "3", "--transcripts", "200", "--format", "json"]
    outs = {}
    for seed in ("777", "778"):
        monkeypatch.setenv("PLATEAULAB_SEED", seed)
        outs[seed] = tmp_path / f"env{seed}.json"
        assert main(argv + ["--out", str(outs[seed])]) == EXIT_OK
    monkeypatch.delenv("PLATEAULAB_SEED")
    explicit = tmp_path / "explicit.json"
    assert main(argv + ["--seed", "778", "--out", str(explicit)]) == EXIT_OK
    second = json.loads(outs["778"].read_text())
    assert second["config"]["seed"] == 778
    assert second["rows"] == json.loads(explicit.read_text())["rows"]
    assert second["rows"] != json.loads(outs["777"].read_text())["rows"]


def test_bad_seed_env_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("PLATEAULAB_SEED", "abc")
    assert main(["bounds", "--n-max", "2"]) == EXIT_BAD_CONFIG
    assert "PLATEAULAB_SEED" in capsys.readouterr().err


def _floats(lo, hi):
    return st.one_of(st.floats(lo, hi), st.sampled_from([float("nan"), float("inf"), -1.0, 0.0]))


def _opts(**opts):
    """argv fragment of drawn options, each as --opt value (so a drawn -1e-05
    must parse as a value); a None value leaves the option out."""
    return st.fixed_dictionaries(opts).map(lambda d: [
        tok for k, v in d.items() if v is not None for tok in (f"--{k.replace('_', '-')}", str(v))
    ])


_SIZE = st.integers(-1, 2500)  # up to three chunks; below 1 is refused
_ALGO = st.sampled_from(training.ALGORITHMS)
_COMMANDS = {
    "verify-circuit": _opts(n_max=st.integers(-1, 3), trials=st.integers(-1, 20),
                            tol=_floats(0, 1e-6)),
    "bounds": _opts(n_max=st.integers(-1, 12)),
    "game": _opts(n=st.integers(-1, 8), strategy=st.sampled_from(sorted(game.STRATEGIES)),
                  trials=_SIZE, m_max=st.integers(-1, 20)),
    "train": _opts(algo=_ALGO, n=st.integers(3, 6), alpha=st.none() | _floats(0, 2.5),
                   trials=st.integers(0, 300), budget=st.integers(0, 200)),
    "exit-time": _opts(algo=_ALGO, n=st.integers(-1, 8), trials=_SIZE, m_max=st.integers(-1, 20)),
    "diverge": _opts(algo=_ALGO, n=st.integers(3, 8), m=st.integers(-1, 8), trials=_SIZE,
                     eta=_floats(-1, 1)),
    "mi": _opts(n=st.integers(-1, 4), m=st.integers(-1, 6), transcripts=st.integers(-1, 1500),
                strategy=st.sampled_from(["uniform", "fixed"]),
                point=st.none() | st.lists(_floats(-2, 2), min_size=1, max_size=4).map(
                    lambda xs: ",".join(map(str, xs)))),
    "identify": _opts(n=st.integers(-1, 5), trials=_SIZE, tol=_floats(-1, 0.5)),
}


# the row keys of a check row's label and value; mi's rows hold no bound
_CHECK_KEYS = {"game": ("m", "cdf"), "exit-time": ("m", "cdf"),
               "diverge": (None, "divergence_rate"), "mi": (None, None)}


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(_COMMANDS)).flatmap(
        lambda c: _COMMANDS[c].map(lambda opts: [c, *opts])),
    _opts(seed=st.integers(-(2**70), 2**70), workers=st.integers(1, 3),
          format=st.sampled_from(["csv", "json"])),
)
def test_random_configs_never_crash(command_argv, common):
    """Random small configs of every subcommand exit 0, 1 or 2: never 3, never a traceback."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(command_argv + common)
    assert code in (EXIT_OK, EXIT_BOUND_VIOLATION, EXIT_BAD_CONFIG)
    command = command_argv[0]
    if code != EXIT_BAD_CONFIG and "json" in common and command in _CHECK_KEYS:
        # a check fails where its margin is below -3, or where a row of stderr 0
        # exceeds its bound: the first such row is then worst, with no margin
        report = json.loads(out.getvalue())
        (check,) = report["checks"]
        margin, (label, value) = check["margin_sigmas"], _CHECK_KEYS[command]
        flat = [r[label] if label else None for r in report["rows"]
                if value and r["stderr"] == 0 and r[value] > r["bound"]]
        assert check["passed"] is not ((margin is not None and margin < -3) or bool(flat))
        if flat:
            assert (margin, check["worst"]) == (None, flat[0])
        if command == "diverge":  # its one row carries its rate, stderr and bound
            (row,) = report["rows"]
            config = report["config"]
            assert row["bound"] == (
                game.delta_bound(config["n"]) + abs(config["eta"])) * config["m"] / 2.0
            assert row["exceeded"] is not check["passed"] and check["worst"] is None
            if row["stderr"] > 0:
                assert margin == (row["bound"] - row["divergence_rate"]) / row["stderr"]
