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

Exit code 0 iff every pass/fail flag is ok.
"""

from __future__ import annotations

import json
import sys

import click

from . import families, grunsky, lab, logmilin
from .errors import SchlichtLabError

_FUNCTION_TAGS = ("koebe", "halfplane", "rotation", "dilation", "koebe_transform")


def _member(tag: str, order: int) -> families.SchlichtFunction:
    """The member of :func:`families.standard_corpus` of kind ``tag``."""
    return next(f for f in families.standard_corpus(order) if f.kind == tag)


@click.group()
def main():
    """Numerical laboratory for coefficient growth of schlicht functions."""


@main.command("run")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", default="both",
              type=click.Choice(["csv", "json", "both"]))
def run_cmd(config_path, fmt):
    """Run the scenario described by a JSON config file."""
    try:
        cfg = lab.ScenarioConfig.from_json(config_path)
        report = lab.run_scenario(cfg)
        paths = lab.export_report(report, fmt=fmt)
    except SchlichtLabError as exc:
        raise click.ClickException(str(exc)) from exc
    for p in paths:
        click.echo(f"wrote {p}")
    flags = report.summary["flags"]
    for name in sorted(flags):
        click.echo(f"{'ok  ' if flags[name] else 'FAIL'} {name}")
    sys.exit(0 if report.all_ok() else 1)


@main.command("audit")
@click.option("--function", "tag", required=True, type=click.Choice(_FUNCTION_TAGS))
@click.option("--order", default=128, show_default=True, type=int)
def audit_cmd(tag, order):
    """Inequality audit of a single corpus member."""
    try:
        f = _member(tag, order)
        cfg = lab.ScenarioConfig(scenario="inequality_audit", series_order=order)
        label, alpha_val, checks = lab.audit_members([f], cfg)[0]
    except SchlichtLabError as exc:
        raise click.ClickException(str(exc)) from exc
    payload = {"function": label, "alpha": alpha_val, "checks": {}}
    ok_all = True
    for name, value, margin, ok in checks:
        payload["checks"][name] = {"value": float(value), "margin": float(margin),
                                   "ok": bool(ok)}
        ok_all = ok_all and bool(ok)
        click.echo(f"{'ok  ' if ok else 'FAIL'} {name}: value={value:.6g} margin={margin:.3g}")
    click.echo(json.dumps(payload, sort_keys=True))
    sys.exit(0 if ok_all else 1)


@main.command("grunsky")
@click.option("--function", "tag", required=True, type=click.Choice(_FUNCTION_TAGS))
@click.option("--order", default=32, show_default=True, type=int)
@click.option("--z", "z_str", default="0.5,0.0", show_default=True,
              help="evaluation point re,im inside the unit disk")
def grunsky_cmd(tag, order, z_str):
    """Grunsky section diagnostics of an inverted corpus member."""
    try:
        re_s, im_s = z_str.split(",")
        z = complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise click.ClickException(f"could not parse --z {z_str!r}") from exc
    try:
        f = _member(tag, 2 * order + 2)
        g = families.invert_to_sigma(f, 2 * order)
        table = grunsky.grunsky_matrix(g, order)
        norm = grunsky.strong_grunsky_norm(table)
        ld = logmilin.log_data(f)
        defect, identity = grunsky.full_mapping_defect(table, ld, f, z)
    except SchlichtLabError as exc:
        raise click.ClickException(str(exc)) from exc
    ok = norm <= 1.0 + lab.SCENARIOS["inequality_audit"].tolerances["norm_slack"]
    click.echo(f"function           {f.label()}")
    click.echo(f"table order        {order}")
    click.echo(f"strong norm        {norm:.12f}  ({'ok' if ok else 'FAIL'})")
    click.echo(f"fullness defect    {defect:.3e} at z={z}")
    click.echo(f"identity residual  {identity:.3e}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
