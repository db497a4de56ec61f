import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plateaulab import game, training
from plateaulab.cli import (
    DEFAULT_SEED,
    EXIT_BAD_CONFIG,
    EXIT_BOUND_VIOLATION,
    EXIT_INTERNAL_ERROR,
    EXIT_OK,
    build_parser,
    main,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["game", "--n", "4", "--trials", "2500", "--m-max", "15"],
        ["train", "--n", "4", "--trials", "1500", "--budget", "50"],
        ["exit-time", "--n", "6", "--trials", "1500", "--m-max", "10"],
        ["diverge", "--n", "6", "--m", "4", "--trials", "1500"],
        ["mi", "--n", "1", "--m", "3", "--transcripts", "1500"],
        ["identify", "--n", "2", "--trials", "1500"],
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
        ["verify-circuit", "--trials", "0"],
        ["verify-circuit", "--n-max", "0"],
        ["verify-circuit", "--tol", "nan"],
        ["verify-circuit", "--tol", "-1"],
        ["bounds", "--n-max", "0"],
        ["mi", "--n", "0", "--m", "0"],
        ["identify", "--n", "0"],
        ["identify", "--n", "2", "--tol", "nan"],
        ["mi", "--n", "1", "--strategy", "fixed", "--point", "inf"],
        ["mi", "--n", "1", "--strategy", "fixed", "--point", "nan"],
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
        (["game", "--n", "0"], "n must be >= 1"),
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


def test_diverge_csv(tmp_path):
    out = tmp_path / "d.csv"
    code = main(
        ["diverge", "--n", "8", "--m", "5", "--trials", "1000", "--seed", "4", "--out", str(out)]
    )
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,m,trials,divergence_rate,stderr,bound,exceeded"


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


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(_COMMANDS)).flatmap(
        lambda c: _COMMANDS[c].map(lambda opts: [c, *opts])),
    _opts(seed=st.integers(-(2**70), 2**70), workers=st.integers(1, 3),
          format=st.sampled_from(["csv", "json"])),
)
def test_random_configs_never_crash(command_argv, common):
    """Random small configs of every subcommand exit 0, 1 or 2: never 3, never a traceback."""
    assert main(command_argv + common) in (EXIT_OK, EXIT_BOUND_VIOLATION, EXIT_BAD_CONFIG)
