"""Command-line entry points.

Subcommands::

    walklab ladder "dinf(p=3/4, k=5)" --nmax 8
    walklab ladder --group Z 'measure { atom "1" 3/4; atom "-1" 1/4 }' --nmax 10
    walklab escape "z_drift(k=limit)" --method exact
    walklab escape "dinf(p=3/4, k=2)" --method mc --horizon 100000 --samples 2000
    walklab magnus embed "x1 x2" --d 2 --m 2
    walklab magnus check-identity "[x1,x2]" --d 2 --m 1
    walklab magnus suite
    walklab experiment run E6
    walklab experiment run my_config.txt --seed 11
    walklab list

The exit code is 0 only when the command's declared expectations (ladder
invariants, experiment expectations) pass.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import sys
from pathlib import Path

from . import escape, experiments, groups, magnus, measures, parsing, walks


class UsageError(ValueError):
    """A flag the subcommand cannot honour."""


def _add_common(parser: argparse.ArgumentParser, top: bool) -> None:
    """Register the shared flags on a (sub)parser.

    The top-level parser carries the real defaults; subcommand copies use
    ``SUPPRESS`` defaults so a flag given before the subcommand survives,
    while one given after it still overrides.
    """
    def dflt(value):
        return value if top else argparse.SUPPRESS

    parser.add_argument("--seed", type=int, default=dflt(None),
                        help="seed for Monte Carlo streams (default 7)")
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"),
                        default=dflt(None), help="output format (default json)")
    parser.add_argument("--out", default=dflt(None),
                        help="write output to a file")
    parser.add_argument("--cap", type=int, default=dflt(None),
                        help="support-size cap for convolutions")


def _refuse(args, command: str, *flags: str) -> None:
    """Raise :class:`UsageError` naming each of the shared ``flags``
    (``--seed``, ``--cap``, ``--format csv``) that was given to
    ``command``, which would ignore it."""
    given = {"--seed": args.seed is not None, "--cap": args.cap is not None,
             "--format csv": args.fmt == "csv"}
    named = [flag for flag in flags if given[flag]]
    if named:
        raise UsageError(f"{command} does not take {', '.join(named)}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walklab",
        description="exact and sampled random-walk computations on wreath "
                    "products and free solvable groups")
    _add_common(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ladder = sub.add_parser("ladder", help="entropy ladder of a step law")
    p_ladder.add_argument("measure",
                          help="family reference or measure literal")
    p_ladder.add_argument("--group", default=None,
                          help="group spec (required for measure literals)")
    p_ladder.add_argument("--nmax", type=int, default=8)
    _add_common(p_ladder, top=False)

    p_escape = sub.add_parser("escape", help="escape-probability estimate")
    p_escape.add_argument("measure",
                          help="family reference or measure literal")
    p_escape.add_argument("--group", default=None)
    p_escape.add_argument("--method", choices=("exact", "mc", "range"),
                          default="exact")
    p_escape.add_argument("--horizon", type=int, default=10_000)
    p_escape.add_argument("--samples", type=int, default=2_000)
    _add_common(p_escape, top=False)

    p_magnus = sub.add_parser("magnus", help="wreath embedding of free "
                                             "solvable groups")
    msub = p_magnus.add_subparsers(dest="magnus_command", required=True)
    for name, description in (("embed", "embed a word"),
                              ("check-identity", "test triviality of a word")):
        mp = msub.add_parser(name, help=description)
        mp.add_argument("word")
        mp.add_argument("--d", type=int, required=True, help="rank")
        mp.add_argument("--m", type=int, required=True, help="derived length")
        _add_common(mp, top=False)
    ms = msub.add_parser("suite", help="homomorphism/kernel/tower checks")
    ms.add_argument("--pairs", type=int, default=1000,
                    help="random word pairs per (rank, length) combination")
    _add_common(ms, top=False)

    p_exp = sub.add_parser("experiment", help="run packaged experiments")
    esub = p_exp.add_subparsers(dest="experiment_command", required=True)
    er = esub.add_parser("run", help="run an experiment id or config file")
    er.add_argument("target", help="experiment id (E1..E7) or config path")
    _add_common(er, top=False)

    p_list = sub.add_parser("list", help="list packaged experiments")
    _add_common(p_list, top=False)
    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_ladder(args) -> int:
    _refuse(args, "ladder", "--seed")  # nothing is sampled
    if args.cap is not None and args.cap < 1:
        raise UsageError(f"--cap must be >= 1, got {args.cap}")
    mu = parsing.parse_measure_or_family(args.group, args.measure)
    cap = args.cap or measures.DEFAULT_SUPPORT_CAP
    summary = walks.entropy_ladder(mu, args.nmax, cap=cap,
                                   label=args.measure).summary()
    if args.fmt == "csv":
        _emit("\n".join(["n,H,ratio,diff",
                         *map(walks.csv_row, summary["rows"])]), args.out)
    else:
        summary["group"] = parsing.spec_to_text(mu.spec)
        _emit(json.dumps(experiments.json_safe(summary), sort_keys=True,
                         indent=2), args.out)
    return 0 if summary["invariants_pass"] else 1


def _cmd_escape(args) -> int:
    _refuse(args, "escape", "--cap")  # no estimator convolves
    mu = parsing.parse_measure_or_family(args.group, args.measure)
    seed = 7 if args.seed is None else args.seed
    if args.method == "exact":
        est = escape.auto_escape(mu, horizon=args.horizon,
                                 samples=args.samples, seed=seed)
        if est.method == "monte-carlo":
            sys.stderr.write("note: no rigorous estimator applies to this "
                             "law; fell back to monte-carlo\n")
    elif args.method == "mc":
        checkpoints = [h for h in (10, 100, 1000, 10_000, 100_000)
                       if h <= args.horizon]
        est = escape.mc_escape(mu, args.horizon, args.samples, seed,
                               checkpoints=checkpoints)
    else:
        est = escape.range_rate(mu, args.horizon, args.samples, seed)
    record = est.to_record(group=parsing.spec_to_text(mu.spec),
                           measure=args.measure)
    if args.fmt == "csv":  # a header and one row
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(
            [record, record.values()])
        _emit(text.getvalue(), args.out)
        return 0
    if est.method == "monte-carlo":
        record["checkpoints"] = est.details["checkpoints"]
    _emit(json.dumps(record, sort_keys=True, indent=2), args.out)
    return 0


def _cmd_magnus(args) -> int:
    if args.magnus_command == "suite":
        return _run_experiment(experiments.ExperimentConfig(
            experiment="E7", samples=args.pairs), args)
    _refuse(args, f"magnus {args.magnus_command}",
            "--seed", "--cap", "--format csv")
    word = parsing.parse_word(args.word, args.d)
    if args.magnus_command == "check-identity":
        _emit("true" if magnus.is_identity(word, args.d, args.m) else "false",
              args.out)
        return 0
    image = magnus.capped_embed(word, args.d, args.m)
    spec = magnus.sdm_spec(args.d, args.m)
    _emit(json.dumps({
        "word": magnus.word_to_text(word),
        "group": parsing.spec_to_text(spec),
        "image": parsing.element_to_text(spec, image),
        "is_identity": image == magnus.magnus_embed((), args.d, args.m),
    }, sort_keys=True, indent=2), args.out)
    return 0


def _run_experiment(cfg: experiments.ExperimentConfig, args) -> int:
    """Run ``cfg`` with the flags given on the command line overriding its
    fields, and write the report in the merged config's format and place.
    Standard error gets one line per expectation, then the sha256 of the
    report's replay payload: two checkouts that print the same one computed
    the same numbers."""
    overrides = {key: getattr(args, key) for key in ("seed", "cap", "fmt", "out")
                 if getattr(args, key) is not None}
    cfg = dataclasses.replace(cfg, **overrides)
    report = experiments.run_experiment(cfg)
    _emit(report.ladder_csv() if cfg.fmt == "csv" else report.to_json(),
          cfg.out)
    for exp in report.expectations:
        status = "PASS" if exp["passed"] else "FAIL"
        sys.stderr.write(f"[{status}] {report.experiment} {exp['name']}: "
                         f"{exp['detail']}\n")
    digest = hashlib.sha256(report.replay_payload().encode()).hexdigest()
    sys.stderr.write(f"{report.experiment} replay sha256 {digest}\n")
    return 0 if report.passed else 1


def _cmd_experiment_run(args) -> int:
    path = Path(args.target)
    if path.exists():
        cfg = experiments.ExperimentConfig.from_text(path.read_text())
    else:
        cfg = experiments.ExperimentConfig(experiment=args.target)
    return _run_experiment(cfg, args)


def _cmd_list(args) -> int:
    _refuse(args, "list", "--seed", "--cap", "--format csv")
    lines = [f"{ident}  {description}"
             for ident, description in experiments.list_experiments()]
    _emit("\n".join(lines), args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "ladder":
            return _cmd_ladder(args)
        if args.command == "escape":
            return _cmd_escape(args)
        if args.command == "magnus":
            return _cmd_magnus(args)
        if args.command == "experiment":
            return _cmd_experiment_run(args)
        if args.command == "list":
            return _cmd_list(args)
    except (parsing.GrammarError, measures.MeasureError,
            measures.SupportCapError, escape.EscapeError,
            experiments.ConfigError, magnus.WordError,
            groups.GroupError, UsageError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
