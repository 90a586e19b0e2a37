"""Command line front end.

Each cmd_* takes the parsed arguments and returns its payload dict;
main prints it once, as key: value text or with --json as one JSON
object.

Positional LINK arguments use the one link grammar, links.parse_link
(bp:, w:, mono: and kervaire:r_1,...,r_2m@a, e.g. kervaire:3,5@7,
which is bp:2,6,10,7), through _link, which charges a mono: argument
its elimination before solving it.  Search bounds are
links.parse_bounds.

Exit codes: 0 success, 2 invalid input, 3 bounds over budget, 4 I/O.
Configuration (key=value file named by --config or ATLAS_CONFIG):
catalog, budget; command line flags win.  main resolves it once, for
every command, into args.catalog and args.budget.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
from dataclasses import asdict, fields
from fractions import Fraction
from operator import attrgetter

from . import catalog as cat
from . import curvature, eta, links, search, spheres
from .betti import betti as betti_of, betti_cost, torsion_closed_form
from .errors import AtlasError, BoundsTooLarge, InvalidInput
from .links import parse_link

CONFIG_ENV = "ATLAS_CONFIG"
DEFAULTS = {"catalog": "atlas.jsonl", "budget": search.DEFAULT_BUDGET}


# the most digits a rational argument may have before its exponent, the
# largest exponent it may have, and the most digits of eta --n.  Such a
# rational has up to 1,600 digits above or below the line, and the
# largest output (nu of eta transform, from --n, --lam and --scale) about
# 4,000, which still prints: str(int) stops at 4,300 digits
MAX_DIGITS = 800

# a parser with this matcher reads a token starting "-<digit>" or "-." as
# a value (--lam -5/2); argparse's own takes only -2 and -2.5 for one
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _rat(text: str) -> Fraction:
    """Parse an exact rational, refusing one too large to print before
    Fraction builds it (1e30000000 would take minutes)."""
    mantissa, _, exponent = text.upper().partition("E")
    try:
        shift = abs(int(exponent)) if exponent else 0
    except ValueError:
        shift = 0  # not a rational: Fraction says so below
    if sum(map(str.isdecimal, mantissa)) > MAX_DIGITS or shift > MAX_DIGITS:
        raise InvalidInput(
            "a rational may have at most %d digits and an exponent of at most %d"
            % (MAX_DIGITS, MAX_DIGITS)
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidInput("expected a rational like 3 or -5/2, got %r" % text)


def _at_least(least: int):
    """An argparse int type refusing, by name, a value below least."""

    def parse(text: str) -> int:
        if int(text) < least:
            raise argparse.ArgumentTypeError("must be at least %d, got %s" % (least, text))
        return int(text)

    parse.__name__ = "int"  # argparse names int()'s refusals by it
    return parse


def _fraction_text(value) -> str:
    """json.dumps default: an exact rational is written as "p/q"."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError("%r is not JSON serializable" % (value,))


def _emit(out, payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, default=_fraction_text), file=out)
        return
    for key, val in payload.items():
        if isinstance(val, list) and val and isinstance(val[0], dict):
            print("%s:" % key, file=out)
            for item in val:
                line = "  " + "  ".join("%s=%s" % kv for kv in item.items())
                print(line, file=out)
        else:
            print("%s: %s" % (key, val), file=out)


def load_config(path: str | None) -> dict:
    resolved = dict(DEFAULTS)
    path = path or os.environ.get(CONFIG_ENV)
    if not path:
        return resolved
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if not sep or key not in DEFAULTS:
                raise InvalidInput(
                    "config line %d: expected %s = value" % (lineno, "/".join(DEFAULTS))
                )
            try:
                resolved[key] = type(DEFAULTS[key])(val)
            except ValueError:
                raise InvalidInput(
                    "config line %d: %s needs an integer, got %r" % (lineno, key, val)
                ) from None
    return resolved


# --- subcommand bodies -------------------------------------------------


def _link(text: str, budget: int) -> links.BPExponents | links.WeightSystem:
    return parse_link(text, lambda cost: search.charge(cost, budget))


def _ws_of(obj) -> links.WeightSystem:
    return links.bp_link(obj) if isinstance(obj, links.BPExponents) else obj


def cmd_classify(args):
    obj = _link(args.link, args.budget)
    ws = _ws_of(obj)
    payload = {
        "key": links.canonical_key(obj),
        "weights": list(ws.weights),
        "degree": ws.degree,
        "link_dim": ws.link_dim,
        "sign": links.classify_sign(ws).value,
    }
    if ws.nvars == 3:
        payload["pi1"] = links.pi1_class(ws).value
        payload["ade"] = links.ade_match(ws)
    if ws.nvars == 4:
        payload["well_formed"] = links.is_well_formed(ws)
    return payload


def cmd_betti(args):
    obj = _link(args.link, args.budget)
    ws = _ws_of(obj)
    search.charge(betti_cost(ws.nvars) + links.quasi_smooth_cost(ws), args.budget)
    res = betti_of(ws)
    return {
        "key": links.canonical_key(obj),
        "middle_betti": res.middle_betti,
        "link_dim": res.link_dim,
        "quotients": [str(q) for q in res.quotients],
        "rational_homology_sphere": res.middle_betti == 0,
        "torsion": torsion_closed_form(ws, res),
    }


def cmd_weights_solve(args):
    if not args.mono.startswith("mono:"):
        raise InvalidInput("weights-solve takes a mono:[...] argument")
    ws = _link(args.mono, args.budget)
    return {
        "weights": list(ws.weights),
        "degree": ws.degree,
        "sign": links.classify_sign(ws).value,
    }


def cmd_monomials(args):
    ws = _ws_of(_link(args.link, args.budget))
    # the coin-count table has degree + 1 cells, passed once per variable
    search.charge(ws.nvars * (ws.degree + 1), args.budget)
    return {"count": links.count_monomials(ws)}


def cmd_sphere(args):
    obj = _link(args.link, args.budget)
    search.charge(cat.record_cost(obj), args.budget)
    rec = cat.build_record(obj)
    payload = {
        "key": rec.key,
        "kind": rec.sphere.kind,
        "middle_betti": rec.middle_betti,
        "torsion": rec.torsion,
    }
    if rec.sphere.bp8_residue is not None:
        payload["bp8_residue"] = rec.sphere.bp8_residue
    return payload


def _bp_arg(args) -> links.BPExponents:
    obj = _link(args.link, args.budget)
    if not isinstance(obj, links.BPExponents):
        raise InvalidInput("this command needs Brieskorn-Pham input bp:...")
    search.charge(cat.record_cost(obj), args.budget)
    return obj


def cmd_casson(args):
    return {"casson": spheres.casson_invariant(_bp_arg(args))}


def cmd_signature(args):
    res = spheres.brieskorn_signature(_bp_arg(args))
    return {**asdict(res), "signature": res.signature}


def cmd_bp8(args):
    return asdict(spheres.bp8_class(_bp_arg(args)))


def _constants(args) -> eta.EtaConstants:
    if abs(args.n) >= 10**MAX_DIGITS:
        raise InvalidInput("--n may have at most %d digits" % MAX_DIGITS)
    if args.lam is None and args.nu is None:
        raise InvalidInput("need --lam or --nu")
    # EtaConstants checks lambda + nu = 2n when both are given
    lam = 2 * args.n - _rat(args.nu) if args.lam is None else _rat(args.lam)
    nu = 2 * args.n - lam if args.nu is None else _rat(args.nu)
    return eta.EtaConstants(args.n, lam, nu)


def _eta_payload(c: eta.EtaConstants) -> dict:
    return {**asdict(c), "sign": c.sign.value}


def cmd_eta(args):
    c = _constants(args)
    if args.mode == "transform":
        if args.scale is None:
            raise InvalidInput("transform needs --scale")
        scale = _rat(args.scale)
        moved = eta.transverse_homothety(c, scale)
        payload = _eta_payload(moved)
        payload["scale"] = scale
        payload["squash"] = eta.squash_class(scale)
    elif args.mode == "einstein":
        a = eta.einstein_scale(c)
        payload = {"scale": a, **_eta_payload(eta.transverse_homothety(c, a))}
    elif args.mode == "lorentzian":
        a = eta.lorentzian_scale(c)
        payload = {"scale": a, "negative_scale": a < 0}
    elif args.mode == "ew":
        payload = {"mu_squared": eta.ew_mu_squared(c)}
    else:  # scalar
        payload = {"scalar_curvature": eta.scalar_curvature(c)}
        if c.lam > -2:
            payload["scalar_flat_scale"] = eta.scalar_flat_scale(c)
    return payload


def _fit_payload(fit: curvature.RicciFit) -> dict:
    return {**asdict(fit), "eta_einstein": fit.is_eta_einstein}


def cmd_curvature(args):
    if args.mode == "heisenberg":
        # d = 2n+1: d^3 covers the Jacobi triples and the metric inverse
        search.charge((2 * args.n + 1) ** 3, args.budget)
        return _fit_payload(curvature.eta_fit(curvature.heisenberg_algebra(args.n)))
    if args.mode == "berger":
        if args.scale is None:
            raise InvalidInput("berger needs --scale")
        scale = _rat(args.scale)
        fit = curvature.eta_fit(curvature.berger_sphere(scale))
        expected = eta.transverse_homothety(eta.EtaConstants.of(1, 2), scale)
        payload = _fit_payload(fit)
        payload["expected_lam"] = expected.lam
        payload["expected_nu"] = expected.nu
        payload["agrees"] = fit.lam == expected.lam and fit.nu == expected.nu
        return payload
    # check-ew: one tangent evaluation per sample
    search.charge(args.samples, args.budget)
    worst = curvature.ew_function_check(
        args.n, args.samples, offset=args.offset, seed=args.seed
    )
    return {
        "alpha_squared": eta.heisenberg_alpha_squared(args.n),
        "samples": args.samples,
        "max_residual": worst,
    }


# a record's text row, read from the record table: the column titles,
# and the attribute of the record shown under each
_COLUMNS = [f for f in fields(cat.InvariantRecord) if f.metadata["column"]]
_TITLES = [f.metadata["column"] for f in _COLUMNS]
_row = attrgetter(*(f.name + f.metadata["shown"] for f in _COLUMNS))


def _record_rows(records) -> list[dict]:
    return [dict(zip(_TITLES, _row(rec))) for rec in records]


def cmd_search(args):
    bounds = links.parse_bounds(args.bounds)
    filters = dict(
        sign=args.sign,
        middle_betti=args.betti,
        pairwise_coprime=args.pairwise_coprime,
        min_coprime_fixed=args.min_coprime_fixed,
    )
    if args.bp8_sweep:
        if args.family != "kkkk1p":
            raise InvalidInput("--bp8-sweep applies to the kkkk1p family")
        if args.min_coprime_fixed is not None:
            # the sweep fixes it at 2: p coprime to k and k+1
            raise InvalidInput("--bp8-sweep does not take --min-coprime-fixed")
        if args.append:
            # the sweep stops at its last witness; --append writes every
            # matched record, so it runs the same search to the end
            filters["min_coprime_fixed"] = 2
            result = search.run_search(args.family, bounds, args.budget, **filters)
        else:
            result = search.seven_sphere_sweep(bounds, args.budget, **filters)
        payload = {
            "distinct_residues": len(result.witnesses),
            "examined": result.examined,
            "witnesses": {
                str(res): list(result.witnesses[res])
                for res in sorted(result.witnesses)
            },
        }
    else:
        result = search.run_search(args.family, bounds, args.budget, **filters)
        payload = {
            "examined": result.examined,
            "matched": result.matched,
            "notes": list(result.notes),
            "records": _record_rows(result.records),
        }
    if args.append:
        added = cat.catalog_append(args.catalog, result.records)
        payload["appended"] = added.added
        payload["skipped"] = added.skipped
    return payload


def _report_corrupt(corrupt) -> None:
    for bad in corrupt:
        print("corrupt line %d: %s" % (bad.lineno, bad.reason), file=sys.stderr)


def cmd_catalog(args):
    if args.mode == "append":
        if args.file == "-":
            if isinstance(sys.stdin, io.TextIOWrapper):
                sys.stdin.reconfigure(errors="surrogateescape")
            batch = cat.read_records(sys.stdin)
        else:
            with open(
                args.file, "r", encoding="utf-8", errors="surrogateescape"
            ) as fh:
                batch = cat.read_records(fh)
        _report_corrupt(batch.corrupt)
        result = cat.catalog_append(args.catalog, batch.records)
        _report_corrupt(result.corrupt)
        return {
            "added": result.added,
            "skipped": result.skipped,
            "corrupt_input": len(batch.corrupt),
            "corrupt_catalog": len(result.corrupt),
        }
    # query
    result = cat.catalog_query(
        args.catalog, **{name: getattr(args, name) for name in cat.FILTERS}
    )
    _report_corrupt(result.corrupt)
    payload = {
        "matched": len(result.records),
        "records": _record_rows(result.records),
    }
    if args.reverify:
        search.charge(
            sum(cat.record_cost(parse_link(rec.key)) for rec in result.records),
            args.budget,
        )
        issues = {
            rec.key: problems
            for rec in result.records
            if (problems := cat.reverify_record(rec))
        }
        payload["reverify_failures"] = issues
    return payload


# the commands whose one argument is positional: name, handler, help,
# positional name
_SINGLE_ARG = (
    ("classify", cmd_classify, "sign class and small-dim extras", "link"),
    ("betti", cmd_betti, "middle Betti number", "link"),
    ("weights-solve", cmd_weights_solve, "weights from monomial rows", "mono"),
    ("monomials", cmd_monomials, "count monomials of the degree", "link"),
    ("sphere", cmd_sphere, "sphere verdict for a link", "link"),
    ("casson", cmd_casson, "Casson invariant (bp, 3 exponents)", "link"),
    ("signature", cmd_signature, "Milnor fiber signature (bp)", "link"),
    ("bp8", cmd_bp8, "exotic 7-sphere residue (bp, 5 exponents)", "link"),
)


# --- parser ------------------------------------------------------------


def _filter_values(name: str) -> dict:
    """add_argument keywords that accept the values cat.FILTERS allows
    the filter name: its table as choices, or ints of at least its
    least value."""
    domain = cat.FILTERS[name][1]
    if isinstance(domain, tuple):
        return {"choices": domain}
    return {"type": _at_least(domain)}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine readable output")
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--catalog", help="catalog path (JSONL)")
    common.add_argument("--budget", type=int, help="search cost budget")

    parser = argparse.ArgumentParser(
        prog="linkatlas",
        description="Invariants of links of weighted homogeneous singularities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, **kwargs):
        p = sub.add_parser(name, parents=[common], help=help_, **kwargs)
        p.set_defaults(fn=fn)
        return p

    for name, fn, help_, positional in _SINGLE_ARG:
        add(name, fn, help_).add_argument(positional)

    p = add("eta", cmd_eta, "constants algebra")
    p._negative_number_matcher = _NEGATIVE_VALUE
    p.add_argument("mode", choices=["transform", "einstein", "lorentzian", "ew", "scalar"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam")
    p.add_argument("--nu")
    p.add_argument("--scale")

    p = add("curvature", cmd_curvature, "exact Ricci fits for model frames")
    p._negative_number_matcher = _NEGATIVE_VALUE
    p.add_argument("mode", choices=["heisenberg", "berger", "check-ew"])
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--scale")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--offset", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)

    p = add("search", cmd_search, "enumerate a link family")
    p.add_argument("--family", required=True, choices=sorted(search.FAMILIES))
    p.add_argument("--bounds", required=True, help="k=2:8,p=2:600")
    p.add_argument("--sign", **_filter_values("sign"))
    betti_filter = p.add_mutually_exclusive_group()
    betti_filter.add_argument("--betti", **_filter_values("middle_betti"))
    betti_filter.add_argument(
        "--rational-sphere", action="store_const", const=0, dest="betti"
    )
    p.add_argument("--pairwise-coprime", action="store_true")
    p.add_argument("--min-coprime-fixed", type=_at_least(0))
    p.add_argument("--bp8-sweep", action="store_true")
    p.add_argument("--append", action="store_true", help="write matches to catalog")

    p = add("catalog", cmd_catalog, "JSONL catalog maintenance")
    p.add_argument("mode", choices=["append", "query"])
    p.add_argument("--file", help="records to append (JSONL, - for stdin)")
    p.add_argument("--sign", **_filter_values("sign"))
    p.add_argument(
        "--betti", **_filter_values("middle_betti"), dest="middle_betti", metavar="BETTI"
    )
    p.add_argument("--sphere", **_filter_values("sphere"))
    p.add_argument("--nvars", **_filter_values("nvars"))
    p.add_argument("--reverify", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog" and args.mode == "append" and not args.file:
        parser.error("catalog append needs --file")
    try:
        cfg = load_config(args.config)
        for key in DEFAULTS:
            if getattr(args, key) is None:
                setattr(args, key, cfg[key])
        if args.budget < 0:
            raise InvalidInput("budget must be at least 0, got %d" % args.budget)
        payload = args.fn(args)
        try:
            _emit(sys.stdout, payload, args.json)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has gone (`| head`): send what is left, and the
            # flush at exit, nowhere
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    except BoundsTooLarge as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except AtlasError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
