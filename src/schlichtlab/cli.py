"""Command-line front end.

Subcommands:

  schlicht-lab run --config cfg.json [--format both]
      run a scenario and write its CSV/JSON reports.
  schlicht-lab audit --function koebe --order 128
      run the inequality audit (lab.audit_members) for one corpus member
      at the audit's default grunsky_order and tolerances, print the checks:
      each check's value, its margin (the bound, every allowance inside it,
      minus the value), and ok exactly when the margin is >= 0.
  schlicht-lab grunsky --function koebe --order 32 --z 0.5,0.0
      build the Grunsky section of the inverted member, print its norm
      (dense, which also works on the clustered spectra of full mappings)
      and the fullness diagnostics at z; the norm passes within the
      audit's default norm_slack.

Exit codes: 0 when every pass/fail flag is ok; 1 on a failed flag, or on a
:class:`SchlichtLabError`, which prints one ``Error: <msg>`` line on stderr
and no traceback; 2 on a usage error (argparse's own message).

``main(argv, standalone_mode=False)`` lets a ``SchlichtLabError`` propagate
instead of printing it; every other outcome still ends in ``SystemExit``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import families, grunsky, lab, logmilin
from .errors import SchlichtLabError

_FUNCTION_TAGS = ("koebe", "halfplane", "rotation", "dilation", "koebe_transform")


def _member(tag: str, order: int) -> families.SchlichtFunction:
    """The member of :func:`families.standard_corpus` of kind ``tag``."""
    return next(f for f in families.standard_corpus(order) if f.kind == tag)


def _point(text: str) -> complex:
    """The evaluation point ``re,im`` of ``--z``."""
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError:
        raise argparse.ArgumentTypeError(f"could not parse {text!r} as re,im") from None


def run_cmd(config: str, fmt: str) -> int:
    """Run the scenario described by a JSON config file."""
    report = lab.run_scenario(lab.ScenarioConfig.from_json(config))
    for p in lab.export_report(report, fmt=fmt):
        print(f"wrote {p}")
    flags = report.summary["flags"]
    for name in sorted(flags):
        print(f"{'ok  ' if flags[name] else 'FAIL'} {name}")
    return 0 if report.all_ok() else 1


def audit_cmd(function: str, order: int) -> int:
    """Inequality audit of a single corpus member."""
    f = _member(function, order)
    cfg = lab.ScenarioConfig(scenario="inequality_audit", series_order=order)
    label, alpha_val, checks = lab.audit_members([f], cfg)[0]
    payload = {"function": label, "alpha": alpha_val, "checks": {}}
    for name, value, margin, ok in checks:
        payload["checks"][name] = {"value": float(value), "margin": float(margin),
                                   "ok": bool(ok)}
        print(f"{'ok  ' if ok else 'FAIL'} {name}: value={value:.6g} margin={margin:.3g}")
    print(json.dumps(payload, sort_keys=True))
    return 0 if all(c["ok"] for c in payload["checks"].values()) else 1


def grunsky_cmd(function: str, order: int, z: complex) -> int:
    """Grunsky section diagnostics of an inverted corpus member."""
    f = _member(function, 2 * order + 2)
    table = grunsky.grunsky_matrix(families.invert_to_sigma(f, 2 * order), order)
    norm = grunsky.strong_grunsky_norm(table)
    defect, identity = grunsky.full_mapping_defect(table, logmilin.log_data(f), f, z)
    ok = norm <= 1.0 + lab.SCENARIOS["inequality_audit"].tolerances["norm_slack"]
    print(f"function           {f.label()}")
    print(f"table order        {order}")
    print(f"strong norm        {norm:.12f}  ({'ok' if ok else 'FAIL'})")
    print(f"fullness defect    {defect:.3e} at z={z}")
    print(f"identity residual  {identity:.3e}")
    return 0 if ok else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="schlicht-lab", description="Numerical laboratory"
                                     " for coefficient growth of schlicht functions.")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help=run_cmd.__doc__)
    run.add_argument("--config", required=True)
    run.add_argument("--format", dest="fmt", default="both", choices=("csv", "json", "both"))
    run.set_defaults(func=run_cmd)
    for name, func, order in (("audit", audit_cmd, 128), ("grunsky", grunsky_cmd, 32)):
        sub = commands.add_parser(name, help=func.__doc__)
        sub.add_argument("--function", required=True, choices=_FUNCTION_TAGS)
        sub.add_argument("--order", default=order, type=int, help="default %(default)s")
        sub.set_defaults(func=func)
        if func is grunsky_cmd:
            sub.add_argument("--z", default="0.5,0.0", type=_point,
                             help="evaluation point re,im inside the unit disk (default %(default)s)")
    return parser


def main(argv=None, standalone_mode: bool = True):
    """Parse ``argv`` (default ``sys.argv[1:]``), run the subcommand and exit
    with its code; see the module docstring for the codes."""
    args = vars(_parser().parse_args(argv))
    del args["command"]
    func = args.pop("func")
    try:
        code = func(**args)
    except SchlichtLabError as exc:
        if not standalone_mode:
            raise
        print(f"Error: {exc}", file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
