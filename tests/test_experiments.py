"""Experiment configs, reports, replay determinism, and the command line."""

from __future__ import annotations

import csv
import hashlib
import json
import time
from fractions import Fraction
from random import Random

import pytest

from walklab import cli, experiments, magnus, parsing, walks
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
    assert cfg.p == F(3, 4)


def test_config_from_text_full():
    cfg = ExperimentConfig.from_text("""
        # which experiment to run
        experiment = E4
        seed = 11
        k_grid = 2, 8, 32
        n_max = 6
        p = 2/3
    """)
    assert cfg.experiment == "E4"
    assert cfg.seed == 11
    assert cfg.k_grid == (2, 8, 32)
    assert cfg.n_max == 6
    assert cfg.p == F(2, 3)


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
    ("experiment = E6\ntol = 1e-3", "unknown config key 'tol'"),
    # the output format and place are the command line's --format and --out
    ("experiment = E1\nfmt = csv", "unknown config key 'fmt'"),
    ("experiment = E1\nout = x", "unknown config key 'out'"),
    ("experiment E1", "expected 'key = value'"),
])
def test_config_from_text_errors(text, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_text(text)


def test_config_validation():
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
    "E1": "189d149004ca096e28c4dc10b06b5633131b9d901d80ee4dc401bdf159a7681b",
    "E2": "bb61ecece59a03d194503d6e8c845886c3eb528ae601640e5b89b99089f4e2cb",
    "E3": "e944cfb9735c8998d2f6d82f28e1547a2d8bec8d37b49b108caebd52066061aa",
    "E4": "860ceb3cd7ad823956150b68e7f662cfcdbdf3a503ae41e12f724ecc8e72637a",
    "E5": "b9a1fa9b6ff2ab628adc1a5ac81fe5253b907c092db0aea6efb137a7e0050b1b",
    "E6": "cd76e25a7cbbbd7a9cce21f372ede250e364e70e7c4d8f062f701c9801a6709d",
    "E7": "f39dabb8f67994e010f73c9d0d7cad78b789d29417d22c6193e86ecfa6e42e16",
}


def test_replay_payloads_match_pinned_hashes(experiment_reports):
    reports = dict(experiment_reports[0])
    for ident in ("E6", "E7"):
        reports[ident] = run_experiment(ident)
    digests = {ident: hashlib.sha256(r.replay_payload().encode()).hexdigest()
               for ident, r in reports.items()}
    assert digests == REPLAY_SHA256


@pytest.mark.parametrize("radial_n", [1, 2])
def test_e5_plateau_probe_reads_the_last_increment(radial_n):
    """Below 1,000 steps the plateau probe reads the radial ladder's last
    increment d_n, and names it."""
    report = run_experiment(ExperimentConfig(
        "E5", n_max=3, radial_n_max=radial_n, k_grid=(2,)))
    diffs = walks.free_group_srw_ladder(2, radial_n, exact=False).diffs()
    row = next(r for r in report.results if r["grid"] == "radial-free-ladder")
    assert row["diff_at_1000"] == diffs[-1]
    detail = next(e["detail"] for e in report.expectations
                  if e["name"] == "radial-plateau-near-half-log3")
    assert detail.startswith(f"|d_{radial_n} - ")


def test_e7_kernel_rows_report_their_own_level(monkeypatch):
    """A failing level-2 kernel word marks the level-2 row only; the
    expectation is the conjunction over levels."""
    real = magnus.is_identity
    calls = []

    def first_call_fails(w, rank, length):
        calls.append(length)  # E7's first call checks a level-2 kernel word
        return real(w, rank, length) and len(calls) > 1

    monkeypatch.setattr(magnus, "is_identity", first_call_fails)
    report = run_experiment(ExperimentConfig("E7", samples=2, n_max=2))
    assert calls[0] == 2
    rows = {row["check"]: row["all_identity"] for row in report.results
            if row["check"].startswith("kernel level")}
    assert rows == {"kernel level 2": False, "kernel level 3": True}
    verdicts = {e["name"]: e["passed"] for e in report.expectations}
    assert verdicts["kernel-words-identity"] is False


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
    assert doc["method"] == "root-closed-form"
    assert doc["lo"] <= 0.5 <= doc["hi"]


def test_cli_escape_weak_drift_in_closed_form(capsys):
    """Drift 1/50 on the line: the closed form, no fallback note, fast."""
    start = time.perf_counter()
    assert cli.main(["escape", "--group", "Z", 'measure { atom "1" 51/100; '
                     'atom "-1" 49/100 }', "--method", "exact"]) == 0
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["method"] == "root-closed-form" and captured.err == ""
    assert doc["lo"] <= 0.02 <= doc["hi"] and doc["hi"] - doc["lo"] <= 1e-12


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


def test_cli_check_identity_at_depth_100(capsys):
    """A 92-letter word of the third derived subgroup at m = 100: each level
    keys its lamps by prefix-class ids, so no level costs more than the
    first, where nested images would double in size with each level."""
    w = magnus.random_derived_series_word(2, 3, 2, Random(1))
    assert len(w) == 92
    start = time.perf_counter()
    code = cli.main(["magnus", "check-identity", magnus.word_to_text(w),
                     "--d", "2", "--m", "100"])
    assert time.perf_counter() - start < 10
    assert code == 0
    assert capsys.readouterr().out == "false\n"


def test_cli_magnus_embed(capsys):
    assert cli.main(["magnus", "embed", "x1", "--d", "2", "--m", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["word"] == "x1"
    assert doc["group"] == "S(2,2)"
    assert "lamp" in doc["image"]
    assert doc["is_identity"] is False


def test_cli_magnus_embed_caps_the_image(capsys):
    """The 92-letter level-3 word: at m = 8 its image would hold 2.5e9
    lamps and is refused at once; at m = 4 it prints in full."""
    w = magnus.random_derived_series_word(2, 3, 2, Random(1))
    text = magnus.word_to_text(w)
    start = time.perf_counter()
    assert cli.main(["magnus", "embed", text, "--d", "2", "--m", "8"]) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert captured.err.count("\n") == 1
    assert cli.main(["magnus", "embed", text, "--d", "2", "--m", "4"]) == 0
    spec = magnus.sdm_spec(2, 4)
    assert json.loads(capsys.readouterr().out)["image"] == (
        parsing.element_to_text(spec, magnus.magnus_embed(w, 2, 4)))


def test_cli_experiment_run(capsys):
    assert cli.main(["experiment", "run", "E6"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["experiment"] == "E6" and doc["passed"] is True
    assert "[PASS]" in captured.err
    assert captured.err.splitlines()[-1] == (
        f"E6 replay sha256 {REPLAY_SHA256['E6']}")


def test_cli_experiment_run_to_file(tmp_path, capsys):
    """A report written to a file has the digest of the stdout run."""
    out = tmp_path / "report.json"
    assert cli.main(["experiment", "run", "E6", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(out.read_text())["experiment"] == "E6"
    assert captured.err.splitlines()[-1] == (
        f"E6 replay sha256 {REPLAY_SHA256['E6']}")


def test_cli_experiment_run_writes_a_config_in_the_flags_format_and_place(
        tmp_path, capsys):
    csv_out = tmp_path / "ladders.csv"
    cfg = tmp_path / "e4.txt"
    cfg.write_text("experiment = E4\nk_grid = 2\nn_max = 3\n")
    assert cli.main(["experiment", "run", str(cfg), "--format", "csv",
                     "--out", str(csv_out)]) == 0
    assert capsys.readouterr().out == ""
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "measure,n,H,ratio,diff"
    assert lines[1].startswith("e4-nu(k=2),0,")
    json_out = tmp_path / "report.json"
    assert cli.main(["experiment", "run", str(cfg), "--format", "json",
                     "--out", str(json_out)]) == 0
    capsys.readouterr()
    assert json.loads(json_out.read_text())["config"]["experiment"] == "E4"
    # a config file cannot name them
    cfg.write_text(f"experiment = E4\nfmt = csv\nout = {csv_out}\n")
    assert cli.main(["experiment", "run", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown config key 'fmt'\n"


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
    for name in ("n_max", "radial_n_max", "horizon", "samples", "cap"):
        with pytest.raises(ConfigError, match=f"{name} must be positive"):
            ExperimentConfig(experiment="E1", **{name: 0})
    cfg = tmp_path / "e7.txt"
    cfg.write_text("experiment = E7\nsamples = 0\n")
    # no estimator reads a tolerance: the key and the flag are refused
    with_tol = tmp_path / "e2-tol.txt"
    with_tol.write_text("experiment = E2\ntol = 1e-3\n")
    for argv in (["magnus", "suite", "--pairs", "0"],
                 ["magnus", "suite", "--pairs", "-5"],
                 ["experiment", "run", "E6", "--cap", "0"],
                 ["experiment", "run", str(cfg)],
                 ["ladder", "dinf(k=2)", "--nmax", "2", "--cap", "0"],
                 ["escape", "z_drift()", "--method", "exact", "--horizon", "-5"],
                 ["escape", "z_drift(k=2)", "--method", "exact", "--samples", "-1"]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: "), argv
        assert captured.err.count("\n") == 1 and captured.out == ""
    assert cli.main(["experiment", "run", str(with_tol)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: unknown config key 'tol'\n"
    assert captured.out == ""
    for value in ("1e-6", "0", "nan"):
        _assert_unrecognized(capsys, ["escape", "z_drift()", "--tol", value],
                             "--tol")
