"""Command-line frontend.

Subcommands: table1, classify, ferus, appendix, pairs.  Exit codes: 0 on
success, 1 on usage or input errors, 2 when a verification-style check
(--check, appendix verdicts, ferus identity suites) finds a mismatch.
"""

from __future__ import annotations

import sys

import click

from . import cayley, ferus, orbits, pairdb, report, rootsys
from .report import VerificationFailure


def _parse_range(text: str | None, default: tuple[int, int]) -> tuple[int, int]:
    if text is None:
        return default
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise click.UsageError(f"bad range {text!r}; expected lo:hi") from None
    if lo > hi:
        raise click.UsageError(f"empty range {text!r}")
    return lo, hi


@click.group()
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["md", "csv", "json"]),
    default="md",
    help="output format",
)
@click.option(
    "--pairs",
    "pairs_path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="override the embedded pairs.dat",
)
@click.pass_context
def cli(ctx, fmt, pairs_path):
    """Classify isotropy orbits with degenerate Gauss maps, exactly."""
    ctx.obj = {"fmt": fmt, "pairs": pairs_path}


def _database(ctx) -> pairdb.PairDatabase:
    # Loaded by the commands that read it, so a bad --pairs file fails only those.
    return pairdb.load_database(ctx.obj["pairs"])


@cli.command("table1")
@click.option("--p-range", default=None, help="instantiate p over lo:hi")
@click.option("--n-range", default=None, help="instantiate n over lo:hi")
@click.option("--check", "check", is_flag=True, help="compare against the golden table")
@click.pass_context
def table1_cmd(ctx, p_range, n_range, check):
    """Print (or verify) the classification table of degenerate orbits."""
    db = _database(ctx)
    fmt = ctx.obj["fmt"]
    grid = {
        "p_range": _parse_range(p_range, report.TABLE1_P_RANGE),
        "n_range": _parse_range(n_range, report.TABLE1_N_RANGE),
    }
    if check:
        problems = report.check_table1(db, **grid)
        if problems:
            raise VerificationFailure(
                "table1 check failed:\n" + "\n".join(problems)
            )
        click.echo("table1 check: all rows match the expected table")
        return
    if p_range is None and n_range is None:
        text = report.render_rows(report.Table1Row, report.table1_rows(db), fmt)
    else:
        text = report.render_rows(report.Table1Instance, report.table1_instances(db, **grid), fmt)
    click.echo(text, nl=False)


@cli.command("classify")
@click.option("--pair", "pair_key", required=True, help="pair key, e.g. e6|f4")
@click.option("--root", "root_spec", required=True,
              help="highest|long|short|middle or a comma-separated vector")
@click.option("--p", type=int, default=None, help="family integer p")
@click.option("--n", type=int, default=None, help="family integer n")
@click.option("--xi", default=None,
              help="normal direction for the curvature spectrum (vector)")
@click.pass_context
def classify_cmd(ctx, pair_key, root_spec, p, n, xi):
    """Classify one orbit; optionally print shape-operator eigenvalues."""
    db = _database(ctx)
    try:
        family = db.get(pair_key)
    except KeyError as exc:
        raise click.UsageError(exc.args[0]) from None
    pair = family.instantiate(
        p=family.p_min if p is None else p, n=family.n_min if n is None else n
    )
    if root_spec in orbits.ORBIT_SPECS:
        H = orbits.resolve_orbit(pair, root_spec)
    else:
        H = rootsys.RootVec.parse(root_spec)
    rep = orbits.classify(pair, H)
    payload = report.to_json(rep)
    if xi is not None:
        xi_vec = rootsys.RootVec.parse(xi)  # a normal at the given H; rep.H is H folded
        spec = orbits.principal_curvatures(pair, rootsys.primitive_ray(H), xi_vec)
        payload["curvature_spectrum"] = report.to_json(spec)
    _echo_record(ctx.obj["fmt"], payload)


def _echo_record(fmt: str, payload: dict, **table_values) -> None:
    """Print one record: its JSON, or a field/value table.

    A keyword names a field whose table cell differs from its JSON value.
    """
    if fmt == "json":
        click.echo(report.render_json(payload), nl=False)
        return
    rows = [[key, report.text(table_values.get(key, "-" if value is None else value))]
            for key, value in payload.items()]
    click.echo(report.render_table(["field", "value"], rows, fmt), nl=False)


@cli.command("ferus")
@click.option("--l", "l_value", type=int, default=None, help="print F(l)")
@click.option("--scan", is_flag=True, help="equality scan over the database")
@click.option("--verify-identities", is_flag=True,
              help="run the monotonicity/power/range identity suites")
@click.option("--qmax", type=int, default=9, show_default=True,
              help=f"largest q of the power and range identities "
                   f"(1 to {ferus.MAX_QMAX})")
@click.option("--p-range", default=None, help="scan grid for p (lo:hi)")
@click.option("--n-range", default=None, help="scan grid for n (lo:hi)")
@click.option("--lmax", type=int, default=512, show_default=True,
              help=f"monotonicity range for --verify-identities "
                   f"(1 to {ferus.MAX_LMAX})")
@click.pass_context
def ferus_cmd(ctx, l_value, scan, verify_identities, qmax, p_range, n_range, lmax):
    """Ferus-number certificates, identity suites and the equality scan."""
    fmt = ctx.obj["fmt"]
    if sum(map(bool, (l_value is not None, scan, verify_identities))) != 1:
        raise click.UsageError("use exactly one of --l, --scan, --verify-identities")
    if l_value is not None:
        _echo_record(fmt, report.to_json(ferus.ferus(l_value)))
        return
    if verify_identities:
        for flag, value, cap in (("--qmax", qmax, ferus.MAX_QMAX),
                                 ("--lmax", lmax, ferus.MAX_LMAX)):
            if not 1 <= value <= cap:
                raise ValueError(f"{flag} {value} is outside 1 to {cap}")
        failures = []
        fs = [ferus.ferus(l).F for l in range(1, lmax + 2)]
        if any(a > b for a, b in zip(fs, fs[1:])):
            failures.append(f"F not monotone on [1, {lmax + 1}]")
        for q in range(1, qmax + 1):
            if ferus.ferus(2**q).F != 2**q:
                failures.append(f"F(2^{q}) != 2^{q}")
            if not ferus.ferus_identity_check(q):
                failures.append(f"range identity fails at q={q}")
        if failures:
            raise VerificationFailure("ferus identities failed:\n" + "\n".join(failures))
        click.echo(f"ferus identities: monotone on [1, {lmax}], "
                   f"powers and ranges verified for q <= {qmax}")
        return
    rows = ferus.equality_scan(
        _database(ctx),
        p_range=_parse_range(p_range, ferus.DEFAULT_P_RANGE),
        n_range=_parse_range(n_range, ferus.DEFAULT_N_RANGE),
    )
    click.echo(report.render_rows(ferus.ScanRow, rows, fmt), nl=False)


@cli.command("appendix")
@click.option(
    "--algebra",
    type=click.Choice(["f4", "e6", "e7", "e8", "g2"]),
    required=True,
)
@click.pass_context
def appendix_cmd(ctx, algebra):
    """Strongly orthogonal roots, projected system and verification verdicts."""
    system = rootsys.build(algebra.upper())
    verdict = cayley.verify_appendix(system)
    payload = report.to_json(verdict) | {"ok": verdict.ok}
    gammas = "  ".join(",".join(v) for v in payload["gammas"])
    _echo_record(ctx.obj["fmt"], payload, gammas=gammas)
    if not verdict.ok:
        raise VerificationFailure(f"appendix verification failed for {algebra}")


@cli.group("pairs")
def pairs_group():
    """Inspect the symmetric-pair database."""


@pairs_group.command("list")
@click.pass_context
def pairs_list_cmd(ctx):
    """List the database rows."""
    rows = [report.PairsRow(
        fam.key, fam.family, fam.rank_expr,
        f"{fam.p_min}:{pairdb.bound_text(fam.p_max)}" if fam.uses_p else "-",
        f"{fam.n_min}:{pairdb.bound_text(fam.n_max)}" if fam.uses_n else "-",
        ",".join(sorted(fam.flags)) or "-",
    ) for fam in _database(ctx)]
    click.echo(report.render_rows(report.PairsRow, rows, ctx.obj["fmt"]), nl=False)


# A group called without a subcommand prints its help as --help does, on
# stdout with exit 0 (click 8.2 and later raise this; earlier click does
# so itself).
_NO_ARGS_IS_HELP = getattr(click.exceptions, "NoArgsIsHelpError", ())


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except VerificationFailure as exc:
        click.echo(str(exc), err=True)
        return 2
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except _NO_ARGS_IS_HELP as exc:
        click.echo(exc.ctx.get_help(), color=exc.ctx.color)
        return 0
    except click.Abort:
        return 1
    except click.ClickException as exc:
        message = exc.format_message()
    except KeyError as exc:
        message = exc.args[0]  # str() would quote it
    except (ValueError, pairdb.PairsFormatError) as exc:
        message = str(exc)
    # One line, though some click messages, such as a choice list, span lines.
    click.echo("error: " + " ".join(line.strip() for line in message.splitlines()), err=True)
    return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
