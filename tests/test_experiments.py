"""Experiment configs, reports, replay determinism, and the command line."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from walklab import cli, experiments
from walklab.experiments import (
    ConfigError,
    ExperimentConfig,
    json_safe,
    list_experiments,
    run_experiment,
)

F = Fraction


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults():
    cfg = ExperimentConfig("E6")
    assert cfg.seed == 7
    assert cfg.fmt == "json"
    assert cfg.p == F(3, 4)


def test_config_from_text_full():
    cfg = ExperimentConfig.from_text("""
        # which experiment to run
        experiment = E4
        seed = 11
        k_grid = 2, 8, 32
        n_max = 6
        tol = 1e-3
        p = 2/3
        fmt = csv
    """)
    assert cfg.experiment == "E4"
    assert cfg.seed == 11
    assert cfg.k_grid == (2, 8, 32)
    assert cfg.n_max == 6
    assert cfg.tol == 1e-3
    assert cfg.p == F(2, 3)
    assert cfg.fmt == "csv"


def test_config_round_trip_through_dict():
    cfg = ExperimentConfig("E2", seed=3, k_grid=(1, 2), p=F(2, 3))
    data = cfg.to_dict()
    assert data["experiment"] == "E2"
    assert data["k_grid"] == [1, 2]
    assert data["p"] == "2/3"


@pytest.mark.parametrize("text,message", [
    ("experiment = E9", "unknown experiment"),
    ("seed = 1", "must set 'experiment'"),
    ("experiment = E1\nseed = x", "bad value"),
    ("experiment = E1\np = 1/0", "bad value"),
    ("experiment = E1\nseed = 1\nseed = 2", "duplicate"),
    ("experiment = E1\nwidth = 3", "unknown config key"),
    ("experiment E1", "expected 'key = value'"),
])
def test_config_from_text_errors(text, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_text(text)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig("E1", fmt="yaml")
    with pytest.raises(ConfigError):
        ExperimentConfig("E1", k_grid=(0,))
    with pytest.raises(ConfigError):
        ExperimentConfig("E1", p=F(5, 4))
    # experiments run in rational mode only, so there is no 'exact' key
    for value in ("true", "false"):
        with pytest.raises(ConfigError, match="unknown config key 'exact'"):
            ExperimentConfig.from_text(f"experiment = E6\nexact = {value}")


# ---------------------------------------------------------------------------
# strict-JSON scrubbing


def test_json_safe_replaces_nonfinite():
    nan = float("nan")
    inf = float("inf")
    out = json_safe({"a": nan, "b": [1.5, inf], "c": (nan, "s"), "d": 3})
    assert out == {"a": None, "b": [1.5, None], "c": [None, "s"], "d": 3}
    assert json.loads(json.dumps(out)) == out


# ---------------------------------------------------------------------------
# registry and reports


def test_registry_lists_seven_experiments():
    entries = list_experiments()
    assert [ident for ident, _ in entries] == [f"E{i}" for i in range(1, 8)]
    assert all(desc for _, desc in entries)


def test_unknown_experiment_id_rejected():
    with pytest.raises(ConfigError):
        run_experiment("E9")


@pytest.fixture(scope="module")
def e6_report():
    return run_experiment("E6")


def test_report_shape(e6_report):
    rep = e6_report
    assert rep.experiment == "E6"
    assert rep.passed
    assert rep.expectations and all(e["passed"] for e in rep.expectations)
    assert rep.config["experiment"] == "E6"
    assert rep.wall_clock_s > 0
    assert rep.timestamp


def test_replay_payload_is_deterministic(e6_report):
    again = run_experiment(ExperimentConfig("E6"))
    assert again.replay_payload() == e6_report.replay_payload()


def test_to_json_differs_only_in_timing(e6_report):
    again = run_experiment("E6")
    a = json.loads(e6_report.to_json())
    b = json.loads(again.to_json())
    for doc in (a, b):
        doc.pop("wall_clock_s")
        doc.pop("timestamp")
    assert a == b


def test_json_output_is_strict(e6_report):
    json.loads(e6_report.to_json(), parse_constant=lambda s: pytest.fail(s))


def test_ladder_csv_rows():
    rep = run_experiment(ExperimentConfig("E4", k_grid=(2,), n_max=4))
    csv = rep.ladder_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "measure,n,H,ratio,diff"
    assert len(lines) > 5
    assert any(line.split(",")[1] == "4" for line in lines[1:])


def test_ladder_cache_checks_the_law(monkeypatch):
    # E4's cache labels do not name p; a second p must not reuse the first
    monkeypatch.setattr(experiments, "_LADDER_CACHE", {})

    def e4(p):
        cfg = ExperimentConfig("E4", n_max=4, k_grid=(2,), p=p)
        return run_experiment(cfg).replay_payload()

    e4(F(3, 4))
    warm = e4(F(2, 3))
    experiments._LADDER_CACHE.clear()
    assert warm == e4(F(2, 3))


def test_ladder_cache_checks_the_support_cap(tmp_path, capsys, monkeypatch):
    # a ladder built under the default cap must not serve a smaller --cap
    monkeypatch.setattr(experiments, "_LADDER_CACHE", {})
    run_experiment(ExperimentConfig("E4", k_grid=(2,), n_max=3))
    warm = dict(experiments._LADDER_CACHE)
    cfg = tmp_path / "e4.txt"
    cfg.write_text("experiment = E4\nk_grid = 2\nn_max = 3\n")
    assert cli.main(["experiment", "run", str(cfg), "--cap", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "cap 5" in captured.err
    assert not captured.out
    # under the cap they were built with, the same ladders are served again
    assert cli.main(["experiment", "run", str(cfg)]) == 0
    capsys.readouterr()
    assert all(experiments._LADDER_CACHE[key] is ladder
               for key, ladder in warm.items())


# sha256 of each experiment's replay payload at the default config (seed 7),
# recorded with Python 3.11, numpy 2.4 and mpmath 1.3 on x86-64.  A refactor
# must leave them unchanged; a deliberate change of numbers or report layout
# updates them.
REPLAY_SHA256 = {
    "E1": "b1e931d433cc65fb3f6c7318213d3340738e2dce7dd301aa00e31169f519c4d9",
    "E2": "20f6358a3e1cdcd5f30abe73b15512a49d42dd9b8fbb1c2f7f28f3aad3843f9c",
    "E3": "1b97890d862222bb33d146036f812659f7d0dca0bcd965157083d1e45bf8b3c6",
    "E4": "bf7f585a8b34fe1a3c18517afe605b73ed5921bdd008321fa2dfd7046ecccdd3",
    "E5": "b1f1a60ddcb44db2c9e7e285416b976ed0a54145f443ce37985ea6fa8e0d7872",
    "E6": "894bb9f3f7a216d59f47793208d8107dadd0fc5358ccc536aa33f57b5b189a58",
    "E7": "39b5f51dcd0a612c33500b32710e64ddad02d45cbb5cbc10924d8b70a5566b1f",
}


def test_replay_payloads_match_pinned_hashes(experiment_reports):
    reports = dict(experiment_reports[0])
    for ident in ("E6", "E7"):
        reports[ident] = run_experiment(ident)
    digests = {ident: hashlib.sha256(r.replay_payload().encode()).hexdigest()
               for ident, r in reports.items()}
    assert digests == REPLAY_SHA256


def test_seed_changes_monte_carlo_results():
    a = run_experiment(ExperimentConfig("E6", seed=1))
    b = run_experiment(ExperimentConfig("E6", seed=2))
    assert a.replay_payload() != b.replay_payload()


# ---------------------------------------------------------------------------
# command line


def test_cli_list(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "E1" in out and "E7" in out


def test_cli_ladder_csv(capsys):
    assert cli.main(["ladder", "z_drift(k=2)", "--nmax", "3",
                     "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "n,H,ratio,diff"
    assert len(out.strip().splitlines()) == 5


def test_cli_ladder_json_is_strict(capsys):
    assert cli.main(["ladder", "z_drift(k=2)", "--nmax", "3"]) == 0
    doc = json.loads(capsys.readouterr().out,
                     parse_constant=lambda s: pytest.fail(s))
    assert doc["rows"][0]["ratio"] is None
    assert doc["n_max"] == 3 and doc["group"] == "Z"


def test_cli_global_flags_after_subcommand(capsys):
    assert cli.main(["ladder", "--format", "csv", "z_drift(k=2)",
                     "--nmax", "2"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["ladder", "z_drift(k=2)", "--nmax", "2",
                     "--format", "csv"]) == 0
    assert capsys.readouterr().out == first


def test_cli_escape_exact(capsys):
    assert cli.main(["escape", "z_drift()", "--method", "exact"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "exact-series"
    assert doc["lo"] <= 0.5 <= doc["hi"]


def test_cli_escape_recurrence_certificate(capsys):
    assert cli.main(["escape", "z_drift(k=2)", "--method", "exact"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "recurrence-zero"
    assert doc["value"] == 0.0


def test_cli_escape_csv(capsys):
    assert cli.main(["escape", "bs11(k=2)", "--method", "mc", "--horizon",
                     "200", "--samples", "10", "--format", "csv"]) == 0
    header, row = csv.reader(capsys.readouterr().out.splitlines())
    assert cli.main(["escape", "bs11(k=2)", "--method", "mc", "--horizon",
                     "200", "--samples", "10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert header == ["method", "value", "lo", "hi", "horizon", "n",
                      "samples", "seed", "group", "measure"]
    assert row == [str(doc[key]) if doc[key] is not None else ""
                   for key in header]
    assert row[header.index("group")] == "BS(1,-1)"


def test_cli_magnus_check_identity(capsys):
    code = cli.main(["magnus", "check-identity", "[x1, x2]",
                     "--d", "2", "--m", "1"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) is True
    code = cli.main(["magnus", "check-identity", "[x1, x2]",
                     "--d", "2", "--m", "2"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) is False


def test_cli_magnus_embed(capsys):
    assert cli.main(["magnus", "embed", "x1", "--d", "2", "--m", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["word"] == "x1"
    assert doc["group"] == "S(2,2)"
    assert "lamp" in doc["image"]
    assert doc["is_identity"] is False


def test_cli_experiment_run(capsys):
    assert cli.main(["experiment", "run", "E6"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["experiment"] == "E6" and doc["passed"] is True
    assert "[PASS]" in captured.err


def test_cli_experiment_run_to_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["experiment", "run", "E6", "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["experiment"] == "E6"


def test_cli_experiment_run_honours_config_format_and_out(tmp_path, capsys):
    csv_out = tmp_path / "ladders.csv"
    cfg = tmp_path / "e4.txt"
    cfg.write_text(f"experiment = E4\nk_grid = 2\nn_max = 3\n"
                   f"fmt = csv\nout = {csv_out}\n")
    assert cli.main(["experiment", "run", str(cfg)]) == 0
    assert capsys.readouterr().out == ""
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "measure,n,H,ratio,diff"
    assert lines[1].startswith("e4-nu(k=2),0,")
    # flags on the command line override the file
    json_out = tmp_path / "report.json"
    assert cli.main(["experiment", "run", str(cfg), "--format", "json",
                     "--out", str(json_out)]) == 0
    capsys.readouterr()
    assert json.loads(json_out.read_text())["config"]["fmt"] == "json"


def _assert_unrecognized(capsys, argv, flag):
    """argparse refuses ``flag`` in ``argv``: exit 2, nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2, argv
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {flag}" in captured.err, argv
    assert captured.out == ""


def test_cli_experiment_run_rejects_float(capsys):
    _assert_unrecognized(capsys, ["experiment", "run", "E6", "--float"],
                         "--float")


def test_cli_has_no_exact_flag(capsys):
    """Weights are always rational; no flag selects a weight mode."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["ladder", "z_drift(k=2)", "--exact"])
    assert exc.value.code == 2
    assert "--exact" in capsys.readouterr().err


def test_cli_lists_experiments_in_one_place(capsys):
    """``walklab list`` lists the experiments; ``experiment`` only runs them."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["experiment", "list"])
    assert exc.value.code == 2
    assert "invalid choice: 'list'" in capsys.readouterr().err


def _ladder_tables(*argv):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(root / "scripts" / "ladder_tables.py"), *argv],
        capture_output=True, text=True, env=env)


def test_ladder_tables_rejects_p_for_z_drift():
    run = _ladder_tables("z_drift", "--k", "2", "--nmax", "2", "--p", "1/2")
    assert run.returncode == 2
    assert "z_drift takes no --p" in run.stderr
    run = _ladder_tables("dinf", "--k", "2", "--nmax", "2", "--format", "csv")
    assert run.returncode == 0
    assert run.stdout.splitlines()[1].startswith("dinf(p=3/4, k=2),0,")


def test_cli_error_exit_codes(capsys):
    assert cli.main(["ladder", "nosuch(k=2)"]) == 2
    assert "error" in capsys.readouterr().err.lower()
    assert cli.main(["escape", 'measure { atom "a" 1 }']) == 2
    capsys.readouterr()
    assert cli.main(["experiment", "run", "E9"]) == 2
    capsys.readouterr()
    assert cli.main(["ladder", "z_drift(p=1/2, k=3)"]) == 2
    assert "error" in capsys.readouterr().err.lower()
    assert cli.main(["escape", "z_drift()", "--cap", "10"]) == 2
    assert "--cap" in capsys.readouterr().err
    for command in ("embed", "check-identity"):
        for flags in (["--cap", "5"], ["--format", "csv"], ["--seed", "5"]):
            argv = ["magnus", command, "x1", "--d", "2", "--m", "2", *flags]
            assert cli.main(argv) == 2, argv
            captured = capsys.readouterr()
            assert flags[0] in captured.err and not captured.out
    no_float_flag = [
        ["magnus", "embed", "x1", "--d", "2", "--m", "2", "--float"],
        ["magnus", "check-identity", "x1", "--d", "2", "--m", "2", "--float"],
        ["escape", "z_drift()", "--method", "exact", "--float"],
        ["escape", "z_drift(k=limit)", "--method", "range", "--float"],
        ["escape", "z_drift(k=2)", "--method", "mc", "--float",
         "--horizon", "100", "--samples", "20"],
        ["ladder", "dinf(k=2)", "--float"],
        ["list", "--float"],
        ["magnus", "suite", "--pairs", "2", "--float"],
    ]
    for argv in no_float_flag:
        _assert_unrecognized(capsys, argv, "--float")
    ignored = [
        ["list", "--format", "csv"],
        ["list", "--cap", "3"],
        ["ladder", "dinf(p=3/4, k=2)", "--nmax", "2", "--seed", "5"],
    ]
    for argv in ignored:
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert argv[-1 if argv[-1].startswith("--") else -2] in captured.err
        assert not captured.out
    faults = [  # a support-cap hit, and input nested past the bound
        ["ladder", "dinf(p=3/4, k=5)", "--nmax", "6", "--cap", "10"],
        ["experiment", "run", "E4", "--cap", "5"],
        ["magnus", "suite", "--pairs", "2", "--cap", "5"],
        ["magnus", "check-identity", "[" * 3000, "--d", "2", "--m", "2"],
        ["ladder", "--group", "wreath(C2, " * 3000, 'measure { atom "e" 1 }'],
        ["ladder", "--group", "tower(" + "; ".join(["Z"] * 2000) + ")",
         'measure { atom "e" 1 }'],
        ["magnus", "check-identity", "x1", "--d", "2", "--m", "3000"],
    ]
    for argv in faults:
        assert cli.main(argv) == 2, argv[:2]
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and not captured.out
    # the same flags where the command honours them
    assert cli.main(["escape", "z_drift(k=2)", "--method", "mc", "--seed", "5",
                     "--horizon", "100", "--samples", "20"]) == 0
    assert cli.main(["list", "--format", "json"]) == 0
    capsys.readouterr()


def test_cli_flags_before_the_subcommand(capsys):
    """A shared flag given before the subcommand acts, or is refused, as it
    does after it."""
    tail = ["z_drift(k=2)", "--method", "mc", "--horizon", "100",
            "--samples", "20"]
    _assert_unrecognized(capsys, ["--float", "escape", *tail], "--float")
    assert cli.main(["--seed", "5", "escape", *tail]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5
    for argv in (["--cap", "5", "escape", "z_drift(k=2)", "--method", "exact"],
                 ["--seed", "5", "ladder", "z_drift(k=2)", "--nmax", "2"]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert argv[0] in captured.err and not captured.out


def test_sizes_must_be_positive(tmp_path, capsys):
    """A zero or negative size is an input error: it neither falls back to
    the default nor runs as a negative count."""
    for name in ("n_max", "radial_n_max", "horizon", "samples", "tol", "cap"):
        with pytest.raises(ConfigError, match=f"{name} must be positive"):
            ExperimentConfig(experiment="E1", **{name: 0})
    cfg = tmp_path / "e7.txt"
    cfg.write_text("experiment = E7\nsamples = 0\n")
    for argv in (["magnus", "suite", "--pairs", "0"],
                 ["magnus", "suite", "--pairs", "-5"],
                 ["experiment", "run", "E6", "--cap", "0"],
                 ["experiment", "run", str(cfg)],
                 ["ladder", "dinf(k=2)", "--nmax", "2", "--cap", "0"]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: "), argv
        assert captured.err.count("\n") == 1 and captured.out == ""
