"""Command line front end.

Positional LINK arguments use the one link grammar, links.parse_link
(bp:, w: and mono:, the same grammar as catalog keys).  The sphere
command also takes kervaire:r_1,...,r_2m@a, e.g. kervaire:3,5@7.

Exit codes: 0 success, 2 invalid input, 3 bounds over budget, 4 I/O.
Configuration (key=value file named by --config or ATLAS_CONFIG):
catalog, budget; command line flags win.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import catalog as cat
from . import curvature, eta, links, search, spheres
from .betti import betti as betti_of, torsion_closed_form
from .errors import AtlasError, BoundsTooLarge, InvalidInput
from .links import _ints, parse_link

CONFIG_ENV = "ATLAS_CONFIG"
DEFAULTS = {"catalog": "atlas.jsonl", "budget": search.DEFAULT_BUDGET}


def _rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidInput("expected a rational like 3 or -5/2, got %r" % text)


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "value") and not isinstance(value, (int, float, str)):
        return value.value  # enums
    return value


def _emit(out, payload: dict, as_json: bool) -> None:
    payload = _jsonable(payload)
    if as_json:
        print(json.dumps(payload, sort_keys=True), file=out)
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
                    "config line %d: expected catalog/budget = value"
                    % lineno
                )
            try:
                resolved[key] = val if key == "catalog" else int(val)
            except ValueError:
                raise InvalidInput(
                    "config line %d: %s needs an integer, got %r" % (lineno, key, val)
                ) from None
    return resolved


def _settings(args) -> dict:
    cfg = load_config(args.config)
    if args.catalog is not None:
        cfg["catalog"] = args.catalog
    if args.budget is not None:
        cfg["budget"] = args.budget
    return cfg


# --- subcommand bodies -------------------------------------------------


def _ws_of(obj) -> links.WeightSystem:
    return links.bp_link(obj) if isinstance(obj, links.BPExponents) else obj


def cmd_classify(args, out):
    obj = parse_link(args.link)
    ws = _ws_of(obj)
    payload = {
        "key": links.canonical_key(obj),
        "weights": list(ws.weights),
        "degree": ws.degree,
        "link_dim": ws.link_dim,
        "sign": links.classify_sign(ws),
    }
    if ws.nvars == 3:
        payload["pi1"] = links.pi1_class(ws)
        payload["ade"] = links.ade_match(ws)
    if ws.nvars == 4:
        payload["well_formed"] = links.is_well_formed(ws)
    _emit(out, payload, args.json)
    return 0


def cmd_betti(args, out):
    obj = parse_link(args.link)
    ws = _ws_of(obj)
    res = betti_of(ws)
    payload = {
        "key": links.canonical_key(obj),
        "middle_betti": res.middle_betti,
        "link_dim": res.link_dim,
        "quotients": [str(q) for q in res.quotients],
        "rational_homology_sphere": res.middle_betti == 0,
    }
    if isinstance(obj, links.BPExponents) and obj.nvars == 4:
        payload["torsion"] = str(torsion_closed_form(obj))
    _emit(out, payload, args.json)
    return 0


def cmd_weights_solve(args, out):
    if not args.mono.startswith("mono:"):
        raise InvalidInput("weights-solve takes a mono:[...] argument")
    ws = parse_link(args.mono)
    _emit(
        out,
        {
            "weights": list(ws.weights),
            "degree": ws.degree,
            "sign": links.classify_sign(ws),
        },
        args.json,
    )
    return 0


def cmd_monomials(args, out):
    ws = _ws_of(parse_link(args.link))
    _emit(out, {"count": links.count_monomials(ws)}, args.json)
    return 0


def cmd_sphere(args, out):
    if args.link.startswith("kervaire:"):
        body, sep, a = args.link[len("kervaire:") :].partition("@")
        if not sep or "," in a:
            raise InvalidInput("kervaire form is kervaire:r1,...,r2m@a")
        a = _ints(a)[0]
        verdict, sign = spheres.kervaire_classify(_ints(body), a)
        _emit(
            out,
            {"kind": verdict.kind, "sign": sign, "a_mod_8": a % 8},
            args.json,
        )
        return 0
    obj = parse_link(args.link)
    rec = cat.build_record(obj)
    payload = {
        "key": rec.key,
        "kind": rec.sphere.kind,
        "middle_betti": rec.middle_betti,
        "torsion": rec.torsion,
    }
    if rec.sphere.bp8_residue is not None:
        payload["bp8_residue"] = rec.sphere.bp8_residue
    _emit(out, payload, args.json)
    return 0


def _bp_arg(text: str) -> links.BPExponents:
    obj = parse_link(text)
    if not isinstance(obj, links.BPExponents):
        raise InvalidInput("this command needs Brieskorn-Pham input bp:...")
    return obj


def cmd_casson(args, out):
    exps = _bp_arg(args.link)
    _emit(out, {"casson": spheres.casson_invariant(exps)}, args.json)
    return 0


def cmd_signature(args, out):
    exps = _bp_arg(args.link)
    res = spheres.brieskorn_signature(exps)
    _emit(
        out,
        {
            "positive": res.positive,
            "negative": res.negative,
            "signature": res.signature,
        },
        args.json,
    )
    return 0


def cmd_bp8(args, out):
    exps = _bp_arg(args.link)
    verdict = spheres.bp8_class(exps)
    _emit(
        out,
        {"kind": verdict.kind, "bp8_residue": verdict.bp8_residue},
        args.json,
    )
    return 0


def _constants(args) -> eta.EtaConstants:
    if args.lam is not None:
        c = eta.EtaConstants.of(args.n, _rat(args.lam))
        if args.nu is not None and Fraction(c.nu) != _rat(args.nu):
            raise InvalidInput("lambda + nu must equal 2n")
        return c
    if args.nu is not None:
        return eta.EtaConstants.of(args.n, 2 * args.n - _rat(args.nu))
    raise InvalidInput("need --lam or --nu")


def _eta_payload(c: eta.EtaConstants) -> dict:
    return {"n": c.n, "lam": c.lam, "nu": c.nu, "sign": c.sign}


def cmd_eta(args, out):
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
    _emit(out, payload, args.json)
    return 0


def _fit_payload(fit: curvature.RicciFit) -> dict:
    return {
        "n": fit.n,
        "lam": fit.lam,
        "nu": fit.nu,
        "residual": fit.residual,
        "k_contact_residual": fit.k_contact_residual,
        "eta_einstein": fit.is_eta_einstein,
    }


def cmd_curvature(args, out):
    if args.mode == "heisenberg":
        fit = curvature.eta_fit(curvature.heisenberg_algebra(args.n))
        _emit(out, _fit_payload(fit), args.json)
    elif args.mode == "berger":
        if args.scale is None:
            raise InvalidInput("berger needs --scale")
        scale = _rat(args.scale)
        fit = curvature.eta_fit(curvature.berger_sphere(scale))
        expected = eta.transverse_homothety(eta.EtaConstants.of(1, 2), scale)
        payload = _fit_payload(fit)
        payload["expected_lam"] = expected.lam
        payload["expected_nu"] = expected.nu
        payload["agrees"] = fit.lam == expected.lam and fit.nu == expected.nu
        _emit(out, payload, args.json)
    else:  # check-ew
        worst = curvature.ew_function_check(
            args.n, args.samples, offset=args.offset, seed=args.seed
        )
        _emit(
            out,
            {
                "alpha_squared": eta.heisenberg_alpha_squared(args.n),
                "samples": args.samples,
                "max_residual": worst,
            },
            args.json,
        )
    return 0


def _parse_bounds(text: str) -> dict[str, tuple[int, int]]:
    bounds = {}
    for part in text.split(","):
        key, sep, span = part.partition("=")
        if not sep or span.count(":") != 1:
            raise InvalidInput("bounds look like k=2:8,p=2:600")
        bounds[key.strip()] = _ints(span, ":")
    return bounds


def _record_rows(records) -> list[dict]:
    rows = []
    for rec in records:
        rows.append(
            {
                "key": rec.key,
                "sign": rec.sign,
                "betti": rec.middle_betti,
                "torsion": rec.torsion,
                "sphere": rec.sphere.kind
                + ("" if rec.sphere.bp8_residue is None else "[%d]" % rec.sphere.bp8_residue),
                "signature": rec.signature,
            }
        )
    return rows


def cmd_search(args, out):
    cfg = _settings(args)
    bounds = _parse_bounds(args.bounds)
    if args.bp8_sweep:
        if args.family != "kkkk1p":
            raise InvalidInput("--bp8-sweep applies to the kkkk1p family")
        sweep = search.seven_sphere_sweep(bounds, budget=cfg["budget"])
        payload = {
            "distinct_residues": sweep.distinct,
            "examined": sweep.examined,
            "witnesses": {
                str(res): list(sweep.witnesses[res])
                for res in sorted(sweep.witnesses)
            },
        }
        _emit(out, payload, args.json)
        return 0
    pred = search.Predicate(
        sign=args.sign,
        middle_betti=args.betti,
        rational_sphere=args.rational_sphere,
        pairwise_coprime=args.pairwise_coprime,
        min_coprime_fixed=args.min_coprime_fixed,
    )
    spec = search.SearchSpec(args.family, bounds, pred)
    result = search.run_search(spec, budget=cfg["budget"])
    payload = {
        "examined": result.examined,
        "matched": result.matched,
        "notes": list(result.notes),
        "records": _record_rows(result.records),
    }
    if args.append:
        added = cat.catalog_append(cfg["catalog"], result.records)
        payload["appended"] = added.added
        payload["skipped"] = added.skipped
    _emit(out, payload, args.json)
    return 0


def _report_corrupt(corrupt) -> None:
    for bad in corrupt:
        print("corrupt line %d: %s" % (bad.lineno, bad.reason), file=sys.stderr)


def cmd_catalog(args, out):
    cfg = _settings(args)
    if args.mode == "append":
        if args.file == "-":
            lines = sys.stdin.read().splitlines()
        else:
            with open(args.file, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        records = []
        bad_input = []
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                records.append(cat.InvariantRecord.from_json(json.loads(line)))
            except (ValueError, TypeError) as exc:
                bad_input.append(cat.CorruptLine(lineno, str(exc)))
        _report_corrupt(bad_input)
        result = cat.catalog_append(cfg["catalog"], records)
        _report_corrupt(result.corrupt)
        _emit(
            out,
            {
                "added": result.added,
                "skipped": result.skipped,
                "corrupt_input": len(bad_input),
                "corrupt_catalog": len(result.corrupt),
            },
            args.json,
        )
        return 0
    # query
    result = cat.catalog_query(
        cfg["catalog"],
        sign=args.sign,
        middle_betti=args.betti,
        sphere=args.sphere,
        nvars=args.nvars,
    )
    _report_corrupt(result.corrupt)
    payload = {
        "matched": len(result.records),
        "records": _record_rows(result.records),
    }
    if args.reverify:
        issues = {
            rec.key: problems
            for rec in result.records
            if (problems := cat.reverify_record(rec))
        }
        payload["reverify_failures"] = issues
    _emit(out, payload, args.json)
    return 0


# --- parser ------------------------------------------------------------


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

    p = add("classify", cmd_classify, "sign class and small-dim extras")
    p.add_argument("link")
    p = add("betti", cmd_betti, "middle Betti number")
    p.add_argument("link")
    p = add("weights-solve", cmd_weights_solve, "weights from monomial rows")
    p.add_argument("mono")
    p = add("monomials", cmd_monomials, "count monomials of the degree")
    p.add_argument("link")
    p = add("sphere", cmd_sphere, "sphere verdict for a link")
    p.add_argument("link")
    p = add("casson", cmd_casson, "Casson invariant (bp, 3 exponents)")
    p.add_argument("link")
    p = add("signature", cmd_signature, "Milnor fiber signature (bp)")
    p.add_argument("link")
    p = add("bp8", cmd_bp8, "exotic 7-sphere residue (bp, 5 exponents)")
    p.add_argument("link")

    p = add("eta", cmd_eta, "constants algebra")
    p.add_argument("mode", choices=["transform", "einstein", "lorentzian", "ew", "scalar"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam")
    p.add_argument("--nu")
    p.add_argument("--scale")

    p = add("curvature", cmd_curvature, "exact Ricci fits for model frames")
    p.add_argument("mode", choices=["heisenberg", "berger", "check-ew"])
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--scale")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--offset", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)

    p = add("search", cmd_search, "enumerate a link family")
    p.add_argument("--family", required=True, choices=sorted(search.FAMILIES))
    p.add_argument("--bounds", required=True, help="k=2:8,p=2:600")
    p.add_argument("--sign", choices=["positive", "null", "negative"])
    p.add_argument("--betti", type=int)
    p.add_argument("--rational-sphere", action="store_true")
    p.add_argument("--pairwise-coprime", action="store_true")
    p.add_argument("--min-coprime-fixed", type=int)
    p.add_argument("--bp8-sweep", action="store_true")
    p.add_argument("--append", action="store_true", help="write matches to catalog")

    p = add("catalog", cmd_catalog, "JSONL catalog maintenance")
    p.add_argument("mode", choices=["append", "query"])
    p.add_argument("--file", help="records to append (JSONL, - for stdin)")
    p.add_argument("--sign", choices=["positive", "null", "negative"])
    p.add_argument("--betti", type=int)
    p.add_argument("--sphere")
    p.add_argument("--nvars", type=int)
    p.add_argument("--reverify", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog" and args.mode == "append" and not args.file:
        parser.error("catalog append needs --file")
    try:
        return args.fn(args, sys.stdout)
    except BoundsTooLarge as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except AtlasError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
