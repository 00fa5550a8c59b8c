"""Command-line front end: argv parsing and report rendering; each file format has its module.

Exit codes: 0 on success, 1 on a domain error (printed as ``code: message``
on stderr), 2 on usage errors (argparse).  Files, arguments and error lines
are UTF-8 whatever the locale, and a file error is one line naming the file,
such as ``io-error: cannot read <path>: <reason>``.  Worker parallelism is
controlled by --workers or SMOLAB_WORKERS and never changes numeric output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import characters, density, euler, experiments, groups
from .errors import IoError, SmolabError, UsageError
from .fields import parse_fieldspec
from .hecke import (load_hecke, load_satake, require_place_bound, synthetic_tempered,
                    synthetic_with_profile)
from .report import Report, emit, os_path, read, write
from .selectors import DegreeSelector, parse_selector
from .tau import tau_csv_text


def _parse_complex_list(text: str) -> tuple[complex, ...]:
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            out.append(complex(token.replace("i", "j")))
        except ValueError:
            raise UsageError(f"cannot parse complex number {token!r}")
        if not np.isfinite(out[-1]):
            raise UsageError(f"complex number {token!r} is not finite")
    return tuple(out)


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise UsageError(f"cannot parse number list {text!r}")
    if not np.isfinite(values).all():
        raise UsageError(f"number list {text!r} is not finite")
    return values


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Integers, exact as ``int()`` reads them or in a spelling ``float()`` reads,
    such as 1e6; a value that is not integral (2.5, inf) is refused, not truncated."""
    values = []
    try:
        for token in filter(str.strip, text.split(",")):
            try:
                values.append(int(token))
            except ValueError:
                value = float(token)
                if not value.is_integer():  # inf and nan are not
                    raise
                values.append(int(value))
    except ValueError:
        raise UsageError(f"cannot parse integer list {text!r}")
    return tuple(values)


def _parse_fraction(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse fraction {text!r}")
    if abs(value) > sys.float_info.max:  # the experiments take its float
        raise UsageError(f"fraction {text!r} is too large for a float")
    return value


def _load_group(path: str) -> groups.FiniteGroup:
    """An existing file is a group file; anything else a catalog expression.

    No catalog expression contains "/" or ".", so an argument with either
    that names no file is a missing group file.  A bare name that exists is
    read as a file, so a directory there is an unreadable one.
    """
    if not path:
        raise UsageError("empty group argument: give a group file or a catalog expression")
    dotted = "/" in path or "." in path
    if os.path.isfile(os_path(path)) or (not dotted and os.path.exists(os_path(path))):
        return groups.build_group(groups.parse_group_file(read(path)), label=Path(path).stem)
    if dotted:
        raise IoError(f"no such group file {path!r}")
    return groups.catalog(path)


def _parse_seed(text: str, spec: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"bad seed {text!r} in data spec {spec!r}")


def _load_rep(spec: str, weight: int):
    """``path.csv`` loads an eigenvalue file; ``synthetic:<seed>`` and
    ``profile:<name>:<seed>`` draw synthetic sources."""
    if spec.startswith("synthetic:"):
        return synthetic_tempered(_parse_seed(spec.split(":", 1)[1], spec))
    if spec.startswith("profile:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError(f"expected profile:<name>:<seed>, got {spec!r}")
        return synthetic_with_profile(_parse_seed(parts[2], spec),
                                      euler.grc_profile(parts[1], 2))
    return load_hecke(spec, weight=weight)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="smolab")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--output", default="-", help="output path, '-' for stdout")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker threads (default SMOLAB_WORKERS or 1)")
    sub = parser.add_subparsers(dest="command", required=True)

    charlab = sub.add_parser("charlab", help="finite-group character operations")
    char_sub = charlab.add_subparsers(dest="subcommand", required=True)
    ct = char_sub.add_parser("table")
    ct.add_argument("group", help="group file (permutations) or catalog expression")
    ce = char_sub.add_parser("extremal")
    ce.add_argument("group")
    ce.add_argument("--degree", type=int, required=True)

    dens = sub.add_parser("density", help="prime density estimators")
    dens_sub = dens.add_subparsers(dest="subcommand", required=True)
    dn = dens_sub.add_parser("natural")
    dn.add_argument("--selector", required=True)
    dn.add_argument("--x", required=True, help="comma list of ascending cutoffs")
    dd = dens_sub.add_parser("dirichlet")
    dd.add_argument("--selector", required=True)
    dd.add_argument("--s", required=True, help="comma list descending toward 1")
    dd.add_argument("--cutoff", type=int, default=10**7)

    fr = sub.add_parser("frobstats", help="class statistics of a congruence field")
    fr.add_argument("fieldspec", help="file with N=... and H=...")
    fr.add_argument("--x", type=int, default=10**6)

    eul = sub.add_parser("euler", help="local factor and product diagnostics")
    eul_sub = eul.add_subparsers(dest="subcommand", required=True)
    ev = eul_sub.add_parser("eval")
    ev.add_argument("--q", type=int, required=True)
    ev.add_argument("--alphas", required=True)
    ev.add_argument("--s", required=True)
    pl = eul_sub.add_parser("poleline")
    pl.add_argument("--q", type=int, required=True)
    pl.add_argument("--alphas", required=True)
    rs = eul_sub.add_parser("rs")
    rs.add_argument("--q", type=int, required=True)
    rs.add_argument("--alphas", required=True)
    rs.add_argument("--betas", required=True)
    rs.add_argument("--no-conjugate", action="store_true")
    pos = eul_sub.add_parser("positivity")
    pos.add_argument("--data", required=True, help="(p,q,alpha parts) CSV")
    pos.add_argument("--max-index", type=int, default=10**5)
    pr = eul_sub.add_parser("probe")
    pr.add_argument("--fieldspec", required=True)
    pr.add_argument("--degree", type=int, required=True, help="residue degree j")
    pr.add_argument("--delta", required=True)
    pr.add_argument("--sigma", required=True)
    pr.add_argument("--cutoffs", default="1e5,1e6,1e7")

    smo = sub.add_parser("smo", help="comparison experiments")
    smo_sub = smo.add_subparsers(dest="subcommand", required=True)
    cp = smo_sub.add_parser("compare")
    cp.add_argument("--data", required=True)
    cp.add_argument("--data2", required=True)
    cp.add_argument("--weight", type=int, default=12)
    cp.add_argument("--x", type=int, default=10**4)
    po = smo_sub.add_parser("poleorder")
    po.add_argument("--selector", required=True)
    po.add_argument("--eps", default=None, help="comma list of epsilon values")
    zr = smo_sub.add_parser("zratio")
    zr.add_argument("--data", required=True)
    zr.add_argument("--data2", required=True)
    zr.add_argument("--weight", type=int, default=12)
    zr.add_argument("--selector", default="all")
    zr.add_argument("--s", default="1.25,1.5")
    rj = smo_sub.add_parser("rajan")
    rj.add_argument("--fieldspec", required=True)
    rj.add_argument("--degree", type=int, required=True, help="residue degree j")
    rj.add_argument("--n", type=int, default=2)
    ie = smo_sub.add_parser("inert")
    ie.add_argument("--fieldspec", required=True)
    ie.add_argument("--n", type=int, default=2)
    ie.add_argument("--profile", default="LRS")
    ie.add_argument("--delta", default=None, help="extra half-plane check value")
    tw = smo_sub.add_parser("tower")
    tw.add_argument("--subfield", required=True)
    tw.add_argument("--field", required=True)
    tw.add_argument("--x", type=int, default=10**5)
    tb = smo_sub.add_parser("tempered")
    tb.add_argument("--data", required=True)
    tb.add_argument("--weight", type=int, default=12)
    tb.add_argument("--selector", required=True)

    data = sub.add_parser("data", help="bundled data generation")
    data_sub = data.add_subparsers(dest="subcommand", required=True)
    gt = data_sub.add_parser("gen-tau")
    gt.add_argument("--limit", type=int, required=True)
    gt.add_argument("--out", default="tau.csv")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()`` once per process; ``parse_args`` leaves it unchanged."""
    return build_parser()


def _character_table_report(args) -> Report | str:
    G = _load_group(args.group)
    table = characters.character_table(G)
    if args.format == "csv":
        return _character_table_csv(table)
    part = table.partition
    return Report(
        experiment="charlab.table",
        inputs={"group": args.group, "order": G.order},
        payload={
            "label": G.label,
            "order": G.order,
            "class_sizes": part.class_sizes,
            "class_representatives": part.representatives,
            "rows": [{"degree": row.degree, "values": values}
                     for row, values in zip(table.rows, table.values)],
        },
        interpretation=(
            "each irreducible character is listed once per conjugacy class",
            "sum of squared degrees equals the group order",
        ),
    )


def _character_table_csv(table: characters.CharacterTable) -> str:
    # class sizes header row, then one character per row
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["class_size"] + [str(s) for s in table.partition.class_sizes])
    for degree, values in zip(table.degrees, table.values.tolist()):
        cells = [repr(v.real) if abs(v.imag) < 1e-12 else f"{v.real!r}{v.imag:+}j"
                 for v in values]
        writer.writerow([str(degree)] + cells)
    return buf.getvalue()


def _extremal_report(args) -> Report:
    if args.degree < 1:
        raise UsageError(f"character degree must be >= 1, got {args.degree}")
    G = _load_group(args.group)
    result = characters.extremal_search(G, args.degree)
    if result is None:
        payload = {"witness": None, "degree": args.degree, "order": G.order,
                   "note": f"fewer than two degree-{args.degree} irreducibles"}
    else:
        payload = {
            "witness": list(result.pair),
            "degree": args.degree,
            "order": G.order,
            "fraction": result.fraction,
            "threshold": characters.distinguishing_threshold(args.degree),
        }
    return Report(
        experiment="charlab.extremal",
        inputs={"group": args.group, "degree": args.degree},
        payload=payload,
        interpretation=(
            "distinct same-degree irreducibles can agree on at most 1 - 1/(2 n^2) of the group",
        ),
    )


def _dispatch(args) -> Report | str:
    workers = args.workers
    if args.command == "charlab" and args.subcommand == "table":
        return _character_table_report(args)
    if args.command == "charlab" and args.subcommand == "extremal":
        return _extremal_report(args)

    if args.command == "density":
        selector = parse_selector(args.selector)
        if args.subcommand == "natural":
            est = density.natural_density_estimate(selector, _parse_int_list(args.x),
                                                   workers=workers)
        else:
            est = density.dirichlet_density_estimate(selector, _parse_float_list(args.s),
                                                     args.cutoff, workers=workers)
        return Report(
            experiment=f"density.{args.subcommand}",
            inputs={"selector": args.selector, "grid": est.sample_points,
                    "cutoff": est.diagnostics.get("cutoff")},
            payload=est,
            interpretation=(
                "density of a prime set: counting ratio up to x, or norm-weighted "
                "power sums against log(1/(s-1)) as s decreases to 1",
            ),
        )

    if args.command == "frobstats":
        fs = parse_fieldspec(read(args.fieldspec), label=args.fieldspec)
        stats = density.frobenius_statistics(fs, args.x, workers=workers)
        return Report(
            experiment="frobstats",
            inputs={"fieldspec": args.fieldspec, "x": args.x},
            payload=stats,
            interpretation=(
                "unramified primes equidistribute over the classes of (Z/N)*/H",
            ),
        )

    if args.command == "euler":
        return _dispatch_euler(args)
    if args.command == "smo":
        return _dispatch_smo(args, workers)
    if args.command == "data" and args.subcommand == "gen-tau":
        if args.limit < 1:
            raise UsageError(f"tau limit must be >= 1, got {args.limit}")
        text = tau_csv_text(args.limit)
        write(text, args.out)
        return Report(
            experiment="data.gen-tau",
            inputs={"limit": args.limit},
            payload={"path": str(Path(args.out)), "rows": text.count("\n") - 1},
            interpretation=("exact integer eigenvalue file for the weight-12 cusp form",),
        )
    raise UsageError(f"unhandled command {args.command}")


def _dispatch_euler(args) -> Report:
    if args.subcommand == "eval":
        alphas = _parse_complex_list(args.alphas)
        s_vals = _parse_complex_list(args.s)
        factor = euler.LocalFactor(q=args.q, alphas=alphas, degree=max(1, len(alphas)))
        values = [euler.eval_local(factor, s) for s in s_vals]
        return Report(
            experiment="euler.eval",
            inputs={"q": args.q, "alphas": args.alphas, "s": args.s},
            payload={"values": values},
            interpretation=("local factor value prod (1 - a q^-s)^-1",),
        )
    if args.subcommand == "poleline":
        alphas = _parse_complex_list(args.alphas)
        factor = euler.LocalFactor(q=args.q, alphas=alphas, degree=max(1, len(alphas)))
        return Report(
            experiment="euler.poleline",
            inputs={"q": args.q, "alphas": args.alphas},
            payload={"poleline": euler.first_pole_line(factor)},
            interpretation=(
                "the rightmost pole of a local factor sits on Re(s) = max log|a| / log q",
            ),
        )
    if args.subcommand == "rs":
        alphas = _parse_complex_list(args.alphas)
        betas = _parse_complex_list(args.betas)
        f = euler.LocalFactor(q=args.q, alphas=alphas, degree=max(1, len(alphas)))
        g = euler.LocalFactor(q=args.q, alphas=betas, degree=max(1, len(betas)))
        paired = euler.rankin_selberg_local(f, g, conjugate_second=not args.no_conjugate)
        return Report(
            experiment="euler.rs",
            inputs={"q": args.q, "alphas": args.alphas, "betas": args.betas,
                    "conjugated": not args.no_conjugate},
            payload={"alphas": paired.alphas, "degree": paired.degree,
                     "poleline": euler.first_pole_line(paired)},
            interpretation=("pairing multiplies parameters pairwise",),
        )
    if args.subcommand == "positivity":
        product = load_satake(args.data)
        # the expansion's powers of a parameter past the wall overflow to inf and NaN
        require_place_bound(product, product.universe.primes)
        ok, first_bad = euler.positive_type_check(product, product.universe, args.max_index)
        return Report(
            experiment="euler.positivity",
            inputs={"data": args.data, "max_index": args.max_index},
            payload={"positive_type": ok, "first_violation": first_bad},
            interpretation=(
                "a product is of positive type when its log series has "
                "nonnegative coefficients; no zeros then occur right of the first pole",
            ),
        )
    if args.subcommand == "probe":
        fs = parse_fieldspec(read(args.fieldspec), label=args.fieldspec)
        selector = DegreeSelector(fs, args.degree)
        probe = euler.convergence_probe(selector, float(_parse_fraction(args.delta)),
                                        _parse_float_list(args.sigma),
                                        _parse_int_list(args.cutoffs))
        return Report(
            experiment="euler.probe",
            inputs={"fieldspec": args.fieldspec, "degree": args.degree,
                    "delta": args.delta, "sigma": args.sigma, "cutoffs": args.cutoffs},
            payload=probe,
            interpretation=(
                "products over degree-j primes with |a| <= q^delta converge "
                "absolutely right of delta + 1/j",
            ),
        )
    raise UsageError(f"unknown euler subcommand {args.subcommand}")


def _dispatch_smo(args, workers) -> Report:
    if args.subcommand == "compare":
        A = _load_rep(args.data, args.weight)
        B = _load_rep(args.data2, args.weight)
        rep = experiments.compare_local(A, B, args.x)
        return Report(
            experiment="smo.compare",
            inputs={"data": args.data, "data2": args.data2, "x": args.x},
            payload=rep,
            interpretation=(
                "sources agreeing at almost all primes are expected to agree everywhere; "
                "the report records where the scanned coefficients differ",
            ),
        )
    if args.subcommand == "poleorder":
        selector = parse_selector(args.selector)
        eps = tuple(_parse_fraction(t) for t in args.eps.split(",")) if args.eps else None
        est = experiments.pole_order_estimate(None, selector, eps_grid=eps, workers=workers)
        return Report(
            experiment="smo.poleorder",
            inputs={"selector": args.selector, "eps": args.eps},
            payload=est,
            interpretation=(
                "slope of truncated log sums against log(1/eps) approximates "
                "the pole order weighted by the density of the prime set",
            ),
        )
    if args.subcommand == "zratio":
        A = _load_rep(args.data, args.weight)
        B = _load_rep(args.data2, args.weight)
        rep = experiments.z_ratio(A, B, parse_selector(args.selector),
                                  _parse_float_list(args.s))
        return Report(
            experiment="smo.zratio",
            inputs={"data": args.data, "data2": args.data2,
                    "selector": args.selector, "s": args.s},
            payload=rep,
            interpretation=(
                "the four-way ratio is 1 off the selected set and detects "
                "coincidence of the two sources through its growth",
            ),
        )
    if args.subcommand == "rajan":
        fs = parse_fieldspec(read(args.fieldspec), label=args.fieldspec)
        rep = experiments.rajan_criterion(DegreeSelector(fs, args.degree), args.n)
        return Report(
            experiment="smo.rajan",
            inputs={"fieldspec": args.fieldspec, "degree": args.degree, "n": args.n},
            payload=rep,
            interpretation=(
                "summability of q^(-2/(n^2+1)) over the set decides the sparse-set "
                "comparison route; degree-j norms give the exact exponent test 2j/(n^2+1) > 1",
            ),
        )
    if args.subcommand == "inert":
        fs = parse_fieldspec(read(args.fieldspec), label=args.fieldspec)
        profile = euler.grc_profile(args.profile, args.n)
        delta = _parse_fraction(args.delta) if args.delta else None
        rep = experiments.inert_experiment(fs, args.n, profile, variant_delta=delta)
        return Report(
            experiment="smo.inert",
            inputs={"fieldspec": args.fieldspec, "n": args.n,
                    "profile": args.profile, "delta": args.delta},
            payload=rep,
            interpretation=(
                "self-pairing products over inert primes of a degree-p cyclic field "
                "have no poles right of 2*delta + 1/p",
            ),
        )
    if args.subcommand == "tower":
        F = parse_fieldspec(read(args.subfield), label=args.subfield)
        K = parse_fieldspec(read(args.field), label=args.field)
        rep = experiments.tower_degree_check(F, K, args.x)
        return Report(
            experiment="smo.tower",
            inputs={"subfield": args.subfield, "field": args.field, "x": args.x},
            payload=rep,
            interpretation=(
                "in a nested cyclic prime-power chain, degree-p primes of the "
                "subfield acquire degree p^m upstairs",
            ),
        )
    if args.subcommand == "tempered":
        A = _load_rep(args.data, args.weight)
        rep = experiments.tempered_bound_check(A, parse_selector(args.selector),
                                               workers=workers)
        return Report(
            experiment="smo.tempered",
            inputs={"data": args.data, "selector": args.selector},
            payload=rep,
            interpretation=(
                "restricted self-pairing log growth is at most n^2 times the "
                "density of the restriction set for unit-size parameters",
            ),
        )
    raise UsageError(f"unknown smo subcommand {args.subcommand}")


def main(argv=None) -> int:
    if argv is None:  # the arguments' bytes read as UTF-8, as file paths are
        argv = [os.fsencode(arg).decode("utf-8", "surrogateescape") for arg in sys.argv[1:]]
    args = _parser().parse_args(argv)
    try:
        result = _dispatch(args)
        if isinstance(result, str):  # pre-rendered CSV
            write(result, args.output)
        else:
            emit(result, format=args.format, path=args.output)
        return 0
    except (SmolabError, OSError) as exc:
        code = exc.code if isinstance(exc, SmolabError) else "io-error"
        # UTF-8 whatever the locale, as report.write writes reports
        sys.stderr.flush()
        sys.stderr.buffer.write(f"{code}: {exc}\n".encode("utf-8", "surrogateescape"))
        sys.stderr.buffer.flush()
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
