"""Command line surface: grammar, subcommands, exit codes, config."""

import io
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
import time
from math import gcd, prod

import pytest

from linkatlas.betti import betti_cost
from linkatlas.catalog import FILTERS, build_record, catalog_query, record_cost
from linkatlas.cli import CONFIG_ENV, MAX_DIGITS, build_parser, load_config, main, parse_link
from linkatlas.errors import InvalidInput
from linkatlas.links import BPExponents, WeightSystem
from sign_oracle import reciprocal_sum
from signature_oracle import brieskorn_signature_direct


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


def test_parse_link_grammar():
    assert parse_link("bp:5,3,2") == BPExponents((5, 3, 2))
    assert parse_link("w:6,10,15@30") == WeightSystem((6, 10, 15), 30)
    mono = "mono:[3,0,0;1,3,0;0,0,2]"
    assert parse_link(mono) == WeightSystem((4, 6, 9), 18)
    for bad in ("bp:", "w:1,2,3", "mono:1,2", "5,3,2"):
        with pytest.raises((InvalidInput, ValueError)):
            parse_link(bad)


def test_classify(capsys):
    payload = run_json(capsys, "classify", "bp:5,3,2")
    assert payload["sign"] == "positive"
    assert payload["ade"] == "E_8"
    assert payload["pi1"] == "finite"
    assert payload["key"] == "bp:2,3,5"
    assert payload["weights"] == [6, 10, 15]

    payload = run_json(capsys, "classify", "w:1,1,4,6@12")
    assert payload["well_formed"] is True
    assert payload["link_dim"] == 5


def test_classify_human_output(capsys):
    code, out, _ = run(capsys, "classify", "bp:7,3,2")
    assert code == 0
    assert "sign: negative" in out
    assert "pi1: infinite" in out


def test_betti_command(capsys):
    payload = run_json(capsys, "betti", "bp:4,4,4,4")
    assert payload["middle_betti"] == 21
    assert payload["rational_homology_sphere"] is False

    payload = run_json(capsys, "betti", "bp:2,3,12,12")
    assert payload["middle_betti"] == 20
    assert payload["torsion"] == "torsion_free"

    payload = run_json(capsys, "betti", "w:13,43,101,158@316")
    assert payload["middle_betti"] == 1


def test_weights_solve(capsys):
    payload = run_json(
        capsys, "weights-solve", "mono:[21,1,0,0;0,5,1,0;1,0,3,0;0,0,0,2]"
    )
    assert payload["weights"] == [13, 43, 101, 158]
    assert payload["degree"] == 316
    assert payload["sign"] == "negative"


def test_monomials(capsys):
    assert run_json(capsys, "monomials", "w:1,2,3@6")["count"] == 7
    assert run_json(capsys, "monomials", "w:1,1,2@4")["count"] == 9
    assert run_json(capsys, "monomials", "w:1,1,1@3")["count"] == 10


def test_sphere_command(capsys):
    payload = run_json(capsys, "sphere", "bp:2,2,2,3,5")
    assert payload["kind"] == "rational_homology_sphere"
    assert payload["bp8_residue"] == 1

    payload = run_json(capsys, "sphere", "bp:5,3,2")
    assert payload["kind"] == "homology_sphere"

    payload = run_json(capsys, "sphere", "kervaire:3,5@7")
    assert payload["kind"] == "standard_sphere"
    assert payload["key"] == "bp:2,6,7,10"

    payload = run_json(capsys, "sphere", "kervaire:3,5@11")
    assert payload["kind"] == "kervaire_sphere"


def test_signature_casson_bp8(capsys):
    payload = run_json(capsys, "signature", "bp:5,3,2")
    assert payload["signature"] == -8
    assert payload["positive"] + payload["negative"] == 8

    assert run_json(capsys, "casson", "bp:7,3,2")["casson"] == -1
    assert run_json(capsys, "bp8", "bp:2,2,2,3,5")["bp8_residue"] == 1


def test_signature_requires_bp(capsys):
    code, _, err = run(capsys, "signature", "w:6,10,15@30")
    assert code == 2
    assert "bp:" in err


def test_casson_refusal_names_its_reason(capsys):
    code, out, err = run(capsys, "casson", "bp:2,3,4")
    assert (code, out) == (2, "")
    assert "pairwise coprime" in err


def test_eta_transform(capsys):
    payload = run_json(
        capsys, "eta", "transform", "--n", "1", "--lam", "2", "--scale", "1/2"
    )
    assert payload["lam"] == "6"
    assert payload["nu"] == "-4"
    assert payload["squash"] == "squashed"
    assert payload["sign"] == "positive"


def test_eta_einstein(capsys):
    payload = run_json(capsys, "eta", "einstein", "--n", "1", "--lam", "6")
    assert payload["scale"] == "2"
    assert payload["lam"] == "2"
    assert payload["nu"] == "0"


def test_eta_lorentzian(capsys):
    payload = run_json(capsys, "eta", "lorentzian", "--n", "2", "--lam", "-8")
    assert payload["scale"] == "-1"
    assert payload["negative_scale"] is True


def test_eta_ew_and_scalar(capsys):
    payload = run_json(capsys, "eta", "ew", "--n", "1", "--nu", "-4")
    assert payload["mu_squared"] == "4"

    payload = run_json(capsys, "eta", "scalar", "--n", "2", "--lam", "4")
    assert payload["scalar_curvature"] == "20"
    assert payload["scalar_flat_scale"] == "6"


def test_eta_errors(capsys):
    # inconsistent pair
    code, _, err = run(
        capsys, "eta", "transform", "--n", "1", "--lam", "2", "--nu", "5",
        "--scale", "2",
    )
    assert code == 2
    # missing scale
    code, _, _ = run(capsys, "eta", "transform", "--n", "1", "--lam", "2")
    assert code == 2
    # einstein needs lam > -2
    code, _, _ = run(capsys, "eta", "einstein", "--n", "1", "--lam", "-2")
    assert code == 2


def test_curvature_heisenberg(capsys):
    payload = run_json(capsys, "curvature", "heisenberg", "--n", "2")
    assert payload["lam"] == "-2"
    assert payload["nu"] == "6"
    assert payload["residual"] == "0"
    assert payload["eta_einstein"] is True


def test_curvature_berger(capsys):
    payload = run_json(capsys, "curvature", "berger", "--scale", "1/2")
    assert payload["lam"] == "6"
    assert payload["nu"] == "-4"
    assert payload["agrees"] is True

    payload = run_json(capsys, "curvature", "berger", "--scale", "3")
    assert payload["agrees"] is True


def test_curvature_check_ew(capsys):
    payload = run_json(capsys, "curvature", "check-ew", "--n", "1", "--samples", "50")
    assert payload["max_residual"] < 1e-12


def test_search_command(capsys):
    payload = run_json(
        capsys, "search", "--family", "237m", "--bounds", "m=5:41",
        "--sign", "positive",
    )
    assert payload["examined"] == 37
    assert payload["matched"] == 37

    payload = run_json(
        capsys, "search", "--family", "237m", "--bounds", "m=5:41",
        "--min-coprime-fixed", "2",
    )
    assert payload["matched"] == 28
    assert any("27" in note for note in payload["notes"])
    # 0 stays legal: every member has at least 0 coprime fixed exponents
    payload = run_json(
        capsys, "search", "--family", "237m", "--bounds", "m=5:41",
        "--min-coprime-fixed", "0",
    )
    assert (payload["examined"], payload["matched"]) == (37, 37)


def test_search_append_and_query(capsys, tmp_path):
    catalog = str(tmp_path / "atlas.jsonl")
    payload = run_json(
        capsys, "search", "--family", "pqrpqr",
        "--bounds", "p=2:2,q=3:3,r=11:11", "--append", "--catalog", catalog,
    )
    assert payload["appended"] == 1

    payload = run_json(capsys, "catalog", "query", "--catalog", catalog)
    assert payload["matched"] == 1
    assert payload["records"][0]["key"] == "bp:2,3,11,66"
    assert payload["records"][0]["betti"] == 20

    # re-running the search appends nothing new
    payload = run_json(
        capsys, "search", "--family", "pqrpqr",
        "--bounds", "p=2:2,q=3:3,r=11:11", "--append", "--catalog", catalog,
    )
    assert payload["appended"] == 0
    assert payload["skipped"] == 1


def test_search_and_query_rows_as_text(capsys, tmp_path):
    catalog = str(tmp_path / "atlas.jsonl")
    code, out, _ = run(
        capsys, "search", "--family", "kkkk1p", "--bounds", "k=2:2,p=5:6",
        "--append", "--catalog", catalog,
    )
    assert code == 0
    assert out == (
        "examined: 2\n"
        "matched: 2\n"
        "notes: []\n"
        "records:\n"
        "  key=bp:2,2,2,3,5  sign=positive  betti=0  torsion=torsion_free"
        "  sphere=rational_homology_sphere[1]  signature=8\n"
        "  key=bp:2,2,2,3,6  sign=positive  betti=2  torsion=unknown"
        "  sphere=not_a_sphere  signature=8\n"
        "appended: 2\n"
        "skipped: 0\n"
    )
    code, out, _ = run(capsys, "catalog", "query", "--betti", "2", "--catalog", catalog)
    assert code == 0
    assert out == (
        "matched: 1\n"
        "records:\n"
        "  key=bp:2,2,2,3,6  sign=positive  betti=2  torsion=unknown"
        "  sphere=not_a_sphere  signature=8\n"
    )


# each catalog filter's `catalog query` flag, and a value that matches some
# records of the catalog below but not all
_FILTER_FLAGS = {
    "sign": ("--sign", "negative"),
    "middle_betti": ("--betti", 0),
    "sphere": ("--sphere", "homology_sphere"),
    "nvars": ("--nvars", 3),
}


def test_every_filter_has_a_query_flag_that_agrees(capsys, tmp_path):
    assert set(_FILTER_FLAGS) == set(FILTERS)
    catalog = str(tmp_path / "atlas.jsonl")
    for bounds in ("a0=2:5,a1=2:7,a2=2:9", "a0=2:3,a1=2:3,a2=2:4,a3=2:5"):
        run_json(
            capsys, "search", "--family", "bp-box", "--bounds", bounds,
            "--append", "--catalog", catalog,
        )
    total = len(catalog_query(catalog).records)
    for name, (flag, value) in _FILTER_FLAGS.items():
        want = len(catalog_query(catalog, **{name: value}).records)
        assert 0 < want < total, name
        payload = run_json(capsys, "catalog", "query", flag, str(value), "--catalog", catalog)
        assert payload["matched"] == want, name


@pytest.mark.parametrize(
    "command, names",
    [
        (["catalog", "query"], list(_FILTER_FLAGS)),
        (["search", "--family", "237m", "--bounds", "m=5:9"], ["sign", "middle_betti"]),
    ],
    ids=["catalog-query", "search"],
)
def test_filter_flags_accept_exactly_the_filter_domains(capsys, command, names):
    # each flag takes FILTERS' table as its choices, or ints from its least value
    parser = build_parser()
    for name in names:
        flag, domain = _FILTER_FLAGS[name][0], FILTERS[name][1]
        if isinstance(domain, tuple):
            for value in domain:
                parser.parse_args(command + [flag, value])
            refused, says = "bogus", "invalid choice: 'bogus'"
        else:
            parser.parse_args(command + [flag, str(domain)])
            refused = str(domain - 1)
            says = "at least %d, got %d" % (domain, domain - 1)
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(command + [flag, refused])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert says in err, (name, err)
        if isinstance(domain, tuple):
            assert "{%s}" % ",".join(domain) in err, (name, err)


def test_search_budget_exit_code(capsys):
    code, _, err = run(
        capsys, "search", "--family", "237m", "--bounds", "m=5:41",
        "--budget", "10",
    )
    assert code == 3
    assert "budget" in err


def test_search_refuses_huge_coprime_exponents_up_front(capsys):
    # the prefix histogram of two primes near 10^6 has ~10^6 cells, each
    # spread over ~10^6 steps: refused at the default budget before any work
    code, _, err = run(
        capsys, "search", "--family", "bp-box",
        "--bounds", "a0=1000003:1000003,a1=1000033:1000033,a2=1000037:1000037",
    )
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize(
    "argv",
    [
        # the same vector a search refuses: exit 3 before any signature work
        ["signature", "bp:1000003,1000033,1000037"],
        ["casson", "bp:1000003,1000033,1000037"],
        ["bp8", "bp:1000003,1000033,1000037"],
        ["sphere", "bp:1000003,1000033,1000037"],
        # a coin-count table of ~10^12 cells, a 40001 x 40001 metric
        ["monomials", "bp:1000003,1000033"],
        ["curvature", "heisenberg", "--n", "20000"],
    ],
    ids=lambda argv: argv[0],
)
def test_single_link_commands_refuse_huge_exponents_up_front(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "budget" in err


@pytest.mark.parametrize(
    "argv, cost",
    [
        # the 2^3 entries of the Betti terms table, each priced at nvars = 3
        (["betti", "bp:2,3,5"], 24),
        # one tangent evaluation per sample
        (["curvature", "check-ew", "--samples", "20"], 20),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else str(v),
)
def test_betti_and_check_ew_are_charged(capsys, argv, cost):
    code, out, err = run(capsys, *argv, "--budget", str(cost - 1))
    assert code == 3
    assert out == ""
    assert "budget" in err
    run_json(capsys, *argv, "--budget", str(cost))


def test_reverify_is_charged_before_any_rebuild(capsys, tmp_path):
    catalog = tmp_path / "atlas.jsonl"
    obj = build_record(BPExponents((5, 3, 2))).to_json()
    catalog.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    argv = ["catalog", "query", "--reverify", "--catalog", str(catalog)]
    code, out, err = run(capsys, *argv, "--budget", "1")
    assert code == 3
    assert out == ""
    assert "budget" in err
    cost = record_cost(BPExponents((2, 3, 5)))
    payload = run_json(capsys, *argv, "--budget", str(cost))
    assert payload["reverify_failures"] == {}


def test_budget_flag_raises_single_link_bound(capsys, tmp_path):
    cost = record_cost(BPExponents((2, 3, 5)))
    code, _, err = run(capsys, "signature", "bp:5,3,2", "--budget", str(cost - 1))
    assert code == 3
    assert "budget" in err
    cfg = tmp_path / "atlas.conf"
    cfg.write_text("budget=%d\n" % (cost - 1), encoding="utf-8")
    code, _, _ = run(capsys, "casson", "bp:5,3,2", "--config", str(cfg))
    assert code == 3
    payload = run_json(
        capsys, "casson", "bp:5,3,2", "--config", str(cfg), "--budget", str(cost)
    )
    assert payload["casson"] == -1
    # a Heisenberg fit in dimension d = 5 costs d^3 = 125
    code, _, err = run(capsys, "curvature", "heisenberg", "--n", "2", "--budget", "124")
    assert code == 3
    assert "budget" in err
    payload = run_json(capsys, "curvature", "heisenberg", "--n", "2", "--budget", "125")
    assert payload["nu"] == "6"


def test_negative_budget_is_invalid_input(capsys, tmp_path):
    # it once exited 3 with "estimated cost 29 exceeds budget -1"
    code, out, err = run(capsys, "signature", "bp:2,3,5", "--budget", "-1")
    assert (code, out) == (2, "")
    assert err == "error: budget must be at least 0, got -1\n"
    cfg = tmp_path / "atlas.conf"
    cfg.write_text("budget=-5\n", encoding="utf-8")
    code, out, err = run(capsys, "signature", "bp:2,3,5", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == "error: budget must be at least 0, got -5\n"
    # 0 is a budget: it admits the free commands and refuses the rest
    assert run(capsys, "classify", "bp:2,3,5", "--budget", "0")[0] == 0
    assert run(capsys, "signature", "bp:2,3,5", "--config", str(cfg), "--budget", "0")[0] == 3


def test_search_bp8_sweep(capsys):
    payload = run_json(
        capsys, "search", "--family", "kkkk1p", "--bounds", "k=2:2,p=2:3",
        "--bp8-sweep",
    )
    assert payload["distinct_residues"] < 28
    for exps in payload["witnesses"].values():
        assert len(exps) == 5


def test_bp8_sweep_covers_exactly_the_window(capsys):
    payload = run_json(
        capsys, "search", "--family", "kkkk1p", "--bounds", "k=7:8,p=500:600",
        "--bp8-sweep", "--budget", "1000000000",
    )
    assert payload["examined"] == 76
    for exps in payload["witnesses"].values():
        k, p = exps[0], exps[4]
        assert 7 <= k <= 8 and 500 <= p <= 600


def _bad_config(tmp_path):
    cfg = tmp_path / "bad.conf"
    cfg.write_text("budget=abc\n", encoding="utf-8")
    return ["search", "--family", "237m", "--bounds", "m=5:6", "--config", str(cfg)]


def _bad_config_classify(tmp_path):
    # the config is resolved for every command, not only those that use it
    return ["classify", "bp:2,3,5"] + _bad_config(tmp_path)[-2:]


def _bad_catalog_key(tmp_path):
    from linkatlas.links import BPExponents as BP

    obj = build_record(BP((5, 3, 2))).to_json()
    obj["key"] = "bp:2,x"
    catalog = tmp_path / "atlas.jsonl"
    catalog.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return ["catalog", "query", "--nvars", "3", "--catalog", str(catalog)]


def test_unparseable_catalog_key_is_a_corrupt_line(capsys, tmp_path):
    # such a line once made `catalog query --nvars` exit 2
    code, out, err = run(capsys, *_bad_catalog_key(tmp_path), "--json")
    assert code == 0
    assert json.loads(out)["matched"] == 0
    assert err == "corrupt line 1: bad key 'bp:2,x'\n"


def test_non_canonical_key_is_not_appended_beside_its_canonical_form(capsys, tmp_path):
    catalog = str(tmp_path / "atlas.jsonl")
    run_json(
        capsys, "search", "--family", "bp-box", "--bounds", "a0=2:2,a1=3:3,a2=7:7",
        "--append", "--catalog", catalog,
    )
    obj = build_record(BPExponents((7, 3, 2))).to_json()
    obj["key"] = "bp:7,3,2"
    feed = tmp_path / "feed.jsonl"
    feed.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    code, out, err = run(
        capsys, "catalog", "append", "--file", str(feed), "--catalog", catalog, "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["added"], payload["skipped"], payload["corrupt_input"]) == (0, 0, 1)
    assert err == "corrupt line 1: bad key 'bp:7,3,2'\n"
    rows = run_json(capsys, "catalog", "query", "--catalog", catalog)["records"]
    assert [r["key"] for r in rows] == ["bp:2,3,7"]


_SWEEP = ["search", "--family", "kkkk1p", "--bounds", "k=2:2,p=2:30", "--bp8-sweep"]
# the search flags --bp8-sweep takes; it refuses only another family
# and --min-coprime-fixed (it fixes that filter at 2)
_SWEEP_TAKES = [
    ["--append"],
    ["--sign", "negative"],
    ["--betti", "0"],
    ["--rational-sphere"],
    ["--pairwise-coprime"],
]
_SWEEP_TAKES_IDS = [extra[0][2:] for extra in _SWEEP_TAKES]


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: ["betti", "w:1,2@x"],
        lambda tmp: ["sphere", "kervaire:3,5@x"],
        lambda tmp: ["search", "--family", "237m", "--bounds", "m=a:5"],
        lambda tmp: ["search", "--family", "kkkk1p", "--bounds", "p=2:5", "--bp8-sweep"],
        _bad_config,
        _bad_config_classify,
        # each family takes exactly its own bound names, each name once
        lambda tmp: ["search", "--family", "237m", "--bounds", "m=5:41,m=6:7"],
        lambda tmp: ["search", "--family", "bp-box", "--bounds", "a0=2:3,a2=2:3"],
        lambda tmp: ["search", "--family", "237m", "--bounds", "m=5:41,x=1:3"],
        lambda tmp: ["search", "--family", "kkk1p", "--bounds", "k=2:3,p=2:3,q=1:1"],
        lambda tmp: [
            "search", "--family", "kervaire", "--bounds", "r1=1:3,r2=1:5,a=3:9,zz=1:2",
        ],
        lambda tmp: ["search", "--family", "kervaire", "--bounds", "rx=1:3,ry=1:5,a=3:9"],
        lambda tmp: ["curvature", "check-ew", "--offset", "inf"],
        lambda tmp: ["curvature", "check-ew", "--offset", "nan"],
        lambda tmp: ["curvature", "check-ew", "--samples", "0"],
        lambda tmp: ["curvature", "check-ew", "--samples", "-5"],
        # H_3 of L(2,2,2,4,5) has order 5: no homotopy sphere, no bP_8 class
        lambda tmp: ["bp8", "bp:2,2,2,4,5"],
        # --bp8-sweep refuses the one filter it fixes, and another family
        # whatever filters come with it
        lambda tmp: _SWEEP + ["--min-coprime-fixed", "1"],
        *(
            lambda tmp, extra=extra: [
                "search", "--family", "kkk1p", "--bounds", "k=2:3,p=2:9", "--bp8-sweep",
                *extra, "--catalog", str(tmp / "atlas.jsonl"),
            ]
            for extra in _SWEEP_TAKES
        ),
        # rationals too large to print, or to build at all
        lambda tmp: ["eta", "scalar", "--n", "1", "--lam", "1e4400", "--json"],
        lambda tmp: ["eta", "transform", "--n", "1", "--lam", "1", "--scale", "1e4400"],
        lambda tmp: ["curvature", "berger", "--scale", "1e4400"],
        lambda tmp: ["eta", "scalar", "--n", "7" * 3000, "--lam", "7" * 3000],
        lambda tmp: ["eta", "scalar", "--n", "1", "--lam", "1e30000000"],
        lambda tmp: ["eta", "scalar", "--n", "1", "--nu", "1E-30000000"],
        lambda tmp: ["eta", "einstein", "--n", "1", "--lam", "1/" + "7" * 3000],
        # one digit, or one exponent step, past the largest accepted input
        lambda tmp: ["eta", "scalar", "--n", "9" * (MAX_DIGITS + 1), "--lam", "1"],
        lambda tmp: ["eta", "scalar", "--n", "1", "--lam", "9" * (MAX_DIGITS + 1)],
        lambda tmp: ["eta", "ew", "--n", "1", "--nu", "1/1" + "0" * MAX_DIGITS],
        lambda tmp: ["eta", "scalar", "--n", "1", "--lam", "1e%d" % (MAX_DIGITS + 1)],
        lambda tmp: ["eta", "scalar", "--n", "1", "--lam", "1e-%d" % (MAX_DIGITS + 1)],
        lambda tmp: [
            "eta", "transform", "--n", "1", "--lam", "1", "--scale", "2e%d" % (MAX_DIGITS + 1)
        ],
        lambda tmp: ["curvature", "berger", "--scale", "." + "9" * (MAX_DIGITS + 1)],
    ],
    ids=[
        "weight-degree", "kervaire-a", "bounds", "sweep-no-k", "config", "config-classify", "bound-repeated", "bp-box-gap", "237m-extra", "kkk1p-extra",
        "kervaire-extra", "kervaire-r-names", "offset-inf", "offset-nan", "samples-0",
        "samples-negative", "bp8-not-a-sphere", "sweep-min-coprime-fixed",
        *("sweep-" + name for name in _SWEEP_TAKES_IDS),
        "lam-1e4400", "scale-1e4400", "berger-1e4400", "n-and-lam-3000-digits",
        "lam-1e30000000", "nu-1e-30000000", "denominator-3000-digits", "n-over-bound",
        "lam-over-bound", "nu-over-bound", "exponent-over-bound",
        "negative-exponent-over-bound", "scale-over-bound", "berger-over-bound",
    ],
)
def test_malformed_input_exits_2(capsys, tmp_path, argv):
    code, _, err = run(capsys, *argv(tmp_path))
    assert code == 2
    assert err.startswith("error: ")


_NINES = "9" * MAX_DIGITS
# the largest rationals accepted: the most digits, and the largest
# exponent either way
_AT_BOUND = [_NINES + "e%d" % MAX_DIGITS, "." + _NINES + "E-%d" % MAX_DIGITS]


@pytest.mark.parametrize(
    "mode", ["transform", "einstein", "lorentzian", "ew", "scalar", "berger"]
)
def test_rationals_at_the_digit_bound_print(capsys, mode):
    if mode == "berger":
        calls = [["curvature", "berger", "--scale", s] for s in _AT_BOUND]
    else:
        calls = [
            ["eta", mode, "--n", n, "--lam=" + sign + lam]
            + (["--scale", scale] if mode == "transform" else [])
            for n in ("1", _NINES)
            for sign in ("", "-")
            for lam in _AT_BOUND
            for scale in _AT_BOUND
        ]
    printed = 0
    for argv in calls:
        for extra in ([], ["--json"]):
            code, out, err = run(capsys, *argv, *extra)
            # a constant outside the mode's domain is refused by the maths,
            # with the value in the message; none by the digit bound
            assert (code, err) == (0, "") or (
                code == 2 and err.startswith("error: ") and "at most" not in err
            ), argv
            printed += len(out + err) > MAX_DIGITS
    assert printed == 2 * len(calls)


@pytest.mark.parametrize(
    "extra", [*_SWEEP_TAKES, []], ids=[*_SWEEP_TAKES_IDS, "min-coprime-fixed"]
)
def test_bp8_sweep_names_the_flag_it_refuses(capsys, tmp_path, extra):
    # the flags the sweep takes leave its one refusal standing, and a
    # refused sweep writes nothing
    catalog = tmp_path / "atlas.jsonl"
    code, out, err = run(
        capsys, *_SWEEP, *extra, "--min-coprime-fixed", "1", "--catalog", str(catalog)
    )
    assert (code, out) == (2, "")
    assert err == "error: --bp8-sweep does not take --min-coprime-fixed\n"
    assert not catalog.exists()


def test_bp8_sweep_refuses_other_families(capsys):
    code, out, err = run(
        capsys, "search", "--family", "kkk1p", "--bounds", "k=2:3,p=2:9", "--bp8-sweep"
    )
    assert (code, out, err) == (2, "", "error: --bp8-sweep applies to the kkkk1p family\n")


@pytest.mark.parametrize(
    "extra, residues",
    [
        (["--sign", "positive"], 5),
        (["--betti", "0"], 5),
        (["--rational-sphere"], 5),
        # every (2,2,2,3,p) member shares the factor 2
        (["--pairwise-coprime"], 0),
    ],
    ids=["sign", "betti", "rational-sphere", "pairwise-coprime"],
)
def test_bp8_sweep_takes_the_search_filters(capsys, extra, residues):
    plain = run_json(capsys, *_SWEEP)
    payload = run_json(capsys, *_SWEEP, *extra)
    assert payload["examined"] == plain["examined"] == 9
    assert payload["distinct_residues"] == len(payload["witnesses"]) == residues
    if residues:
        assert payload == plain


def test_bp8_sweep_appends_its_matched_records(capsys, tmp_path):
    catalog = str(tmp_path / "atlas.jsonl")
    plain = run_json(capsys, *_SWEEP)
    first = run_json(capsys, *_SWEEP, "--append", "--catalog", catalog)
    assert first == {**plain, "appended": 9, "skipped": 0}
    again = run_json(capsys, *_SWEEP, "--append", "--catalog", catalog)
    assert again == {**plain, "appended": 0, "skipped": 9}
    rows = run_json(capsys, "catalog", "query", "--catalog", catalog)["records"]
    assert {r["key"] for r in rows} == {
        "bp:2,2,2,3,%d" % p for p in range(2, 31) if gcd(p, 6) == 1
    }


_FULL_SWEEP = [
    "search", "--family", "kkkk1p", "--bounds", "k=2:8,p=2:600", "--bp8-sweep",
]


def test_bp8_sweep_negative_witnesses_reach_every_class(capsys):
    # the paper's negative eta-Einstein 7-spheres: (4,4,4,5,p) with
    # p <= 193 reaches all 28 classes of bP_8
    payload = run_json(
        capsys, "search", "--family", "kkkk1p", "--bounds", "k=4:4,p=2:193",
        "--bp8-sweep", "--sign", "negative",
    )
    assert (payload["distinct_residues"], payload["examined"]) == (28, 77)
    assert sorted(map(int, payload["witnesses"])) == list(range(28))
    for res, exps in payload["witnesses"].items():
        assert exps[:4] == [4, 4, 4, 5] and reciprocal_sum(exps) < 1
        # the lattice count: no zero eigenvalue (Betti number 0) and
        # sigma/8 in the witness's class
        count = brieskorn_signature_direct(exps)
        assert count.positive + count.negative == prod(x - 1 for x in exps)
        assert count.signature % 8 == 0
        assert (count.signature // 8) % 28 == int(res)
    full = run_json(capsys, *_FULL_SWEEP, "--sign", "negative")
    assert full["distinct_residues"] == 28


def test_bp8_sweep_sign_filters_keep_the_unsigned_payload(capsys):
    # every (2,2,2,3,p) link is positive, and every swept member a
    # homotopy sphere, so these filters leave the unsigned witnesses
    code, plain, _ = run(capsys, *_FULL_SWEEP, "--json")
    assert code == 0
    for extra in (["--sign", "positive"], ["--rational-sphere"]):
        assert run(capsys, *_FULL_SWEEP, *extra, "--json") == (0, plain, "")
    null = run_json(capsys, *_FULL_SWEEP, "--sign", "null")
    assert null == {"distinct_residues": 0, "examined": 1421, "witnesses": {}}


def test_unused_bound_span_is_charged_before_its_name_is_checked(capsys):
    code, out, err = run(
        capsys, "search", "--family", "237m", "--bounds", "m=5:41,x=1:300000000",
    )
    assert code == 3
    assert out == ""
    assert "budget" in err


@pytest.mark.parametrize(
    "argv, says",
    [
        (["catalog", "query", "--sphere", "homology-sphere"], "'homology-sphere'"),
        (["search", "--family", "237m", "--bounds", "m=5:9", "--betti", "3",
          "--rational-sphere"], "not allowed with"),
        # every record has Betti number >= 0 and every key two variables
        (["search", "--family", "237m", "--bounds", "m=5:9", "--betti", "-1"],
         "at least 0, got -1"),
        (["catalog", "query", "--betti", "-1"], "at least 0, got -1"),
        (["catalog", "query", "--nvars", "1"], "at least 2, got 1"),
        # a negative count of coprime fixed exponents filters nothing
        (["search", "--family", "237m", "--bounds", "m=5:9", "--min-coprime-fixed", "-3"],
         "at least 0, got -3"),
    ],
    ids=["unknown-sphere-kind", "betti-and-rational-sphere", "search-betti-negative",
         "query-betti-negative", "query-nvars-1", "min-coprime-fixed-negative"],
)
def test_parser_refuses_filters_no_record_can_match(capsys, argv, says):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert says in capsys.readouterr().err


@pytest.mark.parametrize("as_json", [False, True])
def test_rational_sphere_is_betti_zero(capsys, as_json):
    argv = ["search", "--family", "bp-box", "--bounds", "a0=2:4,a1=2:4,a2=2:5"]
    argv += ["--json"] * as_json
    alias = run(capsys, *argv, "--rational-sphere")
    assert alias == run(capsys, *argv, "--betti", "0")
    assert alias[0] == 0 and "bp:2,3,5" in alias[1]


def test_missing_config_fails_every_command(capsys, tmp_path):
    missing = str(tmp_path / "missing.conf")
    code, out, err = run(capsys, "classify", "bp:2,3,5", "--config", missing)
    assert (code, out) == (4, "")
    assert "i/o error" in err


def test_catalog_append_from_file(capsys, tmp_path):
    catalog = str(tmp_path / "atlas.jsonl")
    feed = tmp_path / "feed.jsonl"
    from linkatlas.links import BPExponents as BP

    rec = build_record(BP((5, 3, 2)))
    feed.write_text(
        json.dumps(rec.to_json()) + "\n" + "garbage line\n", encoding="utf-8"
    )
    code, out, err = run(
        capsys, "catalog", "append", "--file", str(feed), "--catalog", catalog,
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["added"] == 1
    assert payload["corrupt_input"] == 1
    assert "corrupt line 2" in err


def test_catalog_append_from_stdin(capsys, tmp_path, monkeypatch):
    catalog = str(tmp_path / "atlas.jsonl")
    from linkatlas.links import BPExponents as BP

    rec = build_record(BP((5, 3, 2)))
    feed = json.dumps(rec.to_json()) + "\n\n{not json\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(feed))
    code, out, err = run(
        capsys, "catalog", "append", "--file", "-", "--catalog", catalog, "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["added"] == 1
    assert payload["corrupt_input"] == 1
    assert "corrupt line 3" in err


def _cut_catalog(path):
    """A catalog of two records whose second line was cut mid-line."""
    from linkatlas.links import BPExponents as BP

    first, second = (
        json.dumps(build_record(BP(e)).to_json()) for e in ((5, 3, 2), (7, 3, 2))
    )
    path.write_text(first + "\n" + second[:20], encoding="utf-8")


def _stored_keys(path):
    from linkatlas.catalog import read_catalog

    data = read_catalog(path)
    return [r.key for r in data.records], [bad.lineno for bad in data.corrupt]


def test_catalog_append_ends_a_cut_last_line(capsys, tmp_path):
    catalog = tmp_path / "atlas.jsonl"
    _cut_catalog(catalog)
    from linkatlas.links import BPExponents as BP

    feed = tmp_path / "feed.jsonl"
    feed.write_text(
        "".join(
            json.dumps(build_record(BP(e)).to_json()) + "\n"
            for e in ((11, 3, 2), (13, 3, 2))
        ),
        encoding="utf-8",
    )
    code, out, err = run(
        capsys, "catalog", "append", "--file", str(feed), "--catalog", str(catalog),
        "--json",
    )
    assert code == 0
    assert json.loads(out)["added"] == 2
    assert err.startswith("corrupt line 2: ")
    assert _stored_keys(catalog) == (["bp:2,3,5", "bp:2,3,11", "bp:2,3,13"], [2])


def test_search_append_ends_a_cut_last_line(capsys, tmp_path):
    catalog = tmp_path / "atlas.jsonl"
    _cut_catalog(catalog)
    payload = run_json(
        capsys, "search", "--family", "kkkk1p", "--bounds", "k=2:2,p=5:6",
        "--append", "--catalog", str(catalog),
    )
    assert payload["appended"] == 2
    assert _stored_keys(catalog) == (
        ["bp:2,3,5", "bp:2,2,2,3,5", "bp:2,2,2,3,6"], [2],
    )


def test_non_utf8_lines_are_corrupt_lines(capsys, tmp_path):
    from linkatlas.links import BPExponents as BP

    good = json.dumps(build_record(BP((5, 3, 2))).to_json()).encode()
    catalog = tmp_path / "atlas.jsonl"
    accented = good.replace(b"torsion_free", b"t\xc3\xa9")  # valid UTF-8
    catalog.write_bytes(good + b"\n\xff\n" + accented + b"\n")
    code, out, err = run(capsys, "catalog", "query", "--catalog", str(catalog), "--json")
    assert code == 0
    assert json.loads(out)["matched"] == 2  # the valid UTF-8 line still reads
    assert err == "corrupt line 2: not valid UTF-8\n"

    payload = run_json(
        capsys, "search", "--family", "kkkk1p", "--bounds", "k=2:2,p=5:5",
        "--append", "--catalog", str(catalog),
    )
    assert payload["appended"] == 1

    feed = tmp_path / "feed.jsonl"
    feed.write_bytes(b"\xfe\xff\n" + good.replace(b"bp:2,3,5", b"bp:2,3,7") + b"\n")
    code, out, err = run(
        capsys, "catalog", "append", "--file", str(feed), "--catalog", str(catalog),
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    got = (payload["added"], payload["corrupt_input"], payload["corrupt_catalog"])
    assert got == (1, 1, 1)
    assert err == "corrupt line 1: not valid UTF-8\ncorrupt line 2: not valid UTF-8\n"


def test_deeply_nested_json_is_a_corrupt_line(capsys, tmp_path):
    # json.loads gives up on 100,000 nested arrays with RecursionError
    from linkatlas.links import BPExponents as BP

    good = json.dumps(build_record(BP((5, 3, 2))).to_json())
    deep = "[" * 100_000 + "]" * 100_000
    says = "corrupt line 1: maximum recursion depth exceeded"
    feed = tmp_path / "feed.jsonl"
    feed.write_text(deep + "\n" + good + "\n", encoding="utf-8")
    catalog = tmp_path / "atlas.jsonl"
    code, out, err = run(
        capsys, "catalog", "append", "--file", str(feed), "--catalog", str(catalog),
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["added"], payload["corrupt_input"]) == (1, 1)
    assert err.startswith(says)

    # a catalog holding such a line still answers, with and without an index
    catalog.write_text(deep + "\n" + good + "\n", encoding="utf-8")
    for _ in range(2):
        code, out, err = run(capsys, "catalog", "query", "--catalog", str(catalog), "--json")
        assert code == 0
        assert [r["key"] for r in json.loads(out)["records"]] == ["bp:2,3,5"]
        assert err.startswith(says)


SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def _cli(*argv, **kwargs):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen(
        [sys.executable, "-m", "linkatlas.cli", *argv], env=env, **kwargs
    )


def test_non_utf8_stdin_batch_is_a_corrupt_line(tmp_path):
    proc = _cli(
        "catalog", "append", "--file", "-", "--catalog", str(tmp_path / "a.jsonl"),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    out, err = proc.communicate(b"\xff\n")
    assert proc.returncode == 0
    assert err == b"corrupt line 1: not valid UTF-8\n"
    assert b"corrupt_input: 1" in out


def test_closed_stdout_is_not_an_io_error():
    # ~100 kB of rows, more than a pipe holds, so the writer meets the close
    proc = _cli(
        "search", "--family", "bp-box", "--bounds", "a0=2:18,a1=2:18,a2=2:18",
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"examined: 4913\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == b""


def test_catalog_query_reverify(capsys, tmp_path):
    catalog = tmp_path / "atlas.jsonl"
    from linkatlas.links import BPExponents as BP

    rec = build_record(BP((5, 3, 2)))
    obj = rec.to_json()
    obj["middle_betti"] = 5  # stored value no longer matches the key
    catalog.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    payload = run_json(
        capsys, "catalog", "query", "--reverify", "--catalog", str(catalog)
    )
    assert "bp:2,3,5" in payload["reverify_failures"]


@pytest.mark.parametrize(
    "family, bounds",
    [
        ("kervaire", "r1=1:3,r2=1:5,a=3:9"),
        ("bp-box", "a0=2:3,a1=2:6,a2=2:10,a3=3:12"),
    ],
)
def test_searched_records_reverify(capsys, tmp_path, family, bounds):
    # a record is a function of its key, whichever search wrote it
    catalog = str(tmp_path / "atlas.jsonl")
    search = ["search", "--family", family, "--bounds", bounds]
    assert run_json(capsys, *search, "--append", "--catalog", catalog)["appended"] > 0
    payload = run_json(capsys, "catalog", "query", "--reverify", "--catalog", catalog)
    assert payload["matched"] > 0
    assert payload["reverify_failures"] == {}


def test_sphere_verdict_does_not_depend_on_the_grammar(capsys):
    # kervaire:3,5@11 is L(2,6,10,11)
    for link in ("bp:2,6,10,11", "kervaire:3,5@11"):
        assert run_json(capsys, "sphere", link)["kind"] == "kervaire_sphere"


def test_homotopy_spheres_print_torsion_free(capsys):
    # Brieskorn's generator of bP_8, and the standard 5-sphere L(2,6,10,7)
    for link in ("bp:2,2,2,3,5", "kervaire:3,5@7"):
        code, out, _ = run(capsys, "sphere", link)
        assert code == 0 and "torsion: torsion_free" in out, link
    # a weight system with no link gets no verdict at all
    code, out, err = run(capsys, "sphere", "w:1,3,4,5@6")
    assert code == 2 and out == "" and "not quasi-smooth" in err


NO_LINK = {
    "w:1,1,1,4@11": ({"degree": 11, "sign": "negative", "weights": [1, 1, 1, 4]}, 124),
    "w:1,3,4,4@9": ({"degree": 9, "sign": "positive", "weights": [1, 3, 4, 4]}, 11),
    "w:1,3,4,5@6": ({"degree": 6, "sign": "positive", "weights": [1, 3, 4, 5]}, 5),
}


@pytest.mark.parametrize("key", sorted(NO_LINK))
def test_weight_systems_with_no_link_get_no_invariants(capsys, key):
    for command in ("betti", "sphere"):
        code, out, err = run(capsys, command, key)
        assert code == 2 and out == "", command
        assert err.startswith("error: ") and "not quasi-smooth" in err
        assert "Traceback" not in err
    # the weight system itself still answers
    fields, count = NO_LINK[key]
    classified = run_json(capsys, "classify", key)
    assert classified == {**fields, "key": key, "link_dim": 5, "well_formed": True}
    assert run_json(capsys, "monomials", key) == {"count": count}


@pytest.mark.parametrize(
    "w, bp, kind, torsion",
    [
        ("w:6,10,15@30", "bp:2,3,5", "homology_sphere", "torsion_free"),
        ("w:1,2,3,5@6", "bp:2,2,2,3", "kervaire_sphere", "torsion_free"),
        ("w:2,2,2,3@6", "bp:2,3,3,3", "rational_homology_sphere", "Z_2+Z_2"),
    ],
)
def test_a_weight_system_answers_as_its_link(capsys, w, bp, kind, torsion):
    # w:1,2,3,5@6 holds z0^6 + z1^3 + z2^2 + z0 z3, the singularity of
    # bp:2,2,2,3; the other two are the weight systems of their bp: keys
    for command in ("sphere", "betti"):
        as_w, as_bp = run_json(capsys, command, w), run_json(capsys, command, bp)
        assert as_w.pop("key") == w and as_bp.pop("key") == bp
        if command == "betti" and w == "w:1,2,3,5@6":
            as_w.pop("quotients"), as_bp.pop("quotients")
        assert as_w == as_bp, command
        assert as_w["torsion"] == torsion
    assert as_w["rational_homology_sphere"]
    assert run_json(capsys, "sphere", w)["kind"] == kind


def test_the_quasi_smooth_gate_is_charged_before_it_runs(capsys):
    # two weights near 10^7 that divide no degree: the gate's residue
    # tables would take seconds to fill, and are refused at once
    key = "w:10000019,10000079@20000098"
    gate = 2 * (10000019 + 2) + (10000079 + 2)
    assert record_cost(parse_link(key)) == betti_cost(2) + gate
    for command in ("betti", "sphere"):
        for budget in ("10", str(gate)):
            start = time.perf_counter()
            code, out, err = run(capsys, command, key, "--budget", budget)
            assert (code, out) == (3, "") and "budget" in err, (command, budget)
            assert time.perf_counter() - start < 0.5
    # a Fermat system, as every bp: key is, adds nothing
    assert record_cost(WeightSystem((1, 1, 1), 3)) == betti_cost(3)


def test_reverify_reports_a_stored_record_with_no_link(capsys, tmp_path):
    # a record written before betti() refused weight systems with no link
    catalog = tmp_path / "atlas.jsonl"
    stale = {
        "key": "w:1,1,1,4@11",
        "sign": "negative",
        "middle_betti": 160,
        "torsion": "torsion_free",
        "sphere": {"kind": "not_a_sphere", "bp8_residue": None},
    }
    good = build_record(BPExponents((2, 3, 5))).to_json()
    catalog.write_text(json.dumps(stale) + "\n" + json.dumps(good) + "\n", encoding="utf-8")
    payload = run_json(capsys, "catalog", "query", "--reverify", "--catalog", str(catalog))
    assert payload["matched"] == 2
    assert payload["reverify_failures"] == {"w:1,1,1,4@11": ["no link: not quasi-smooth"]}


def test_betti_and_sphere_print_the_same_torsion(capsys):
    for link in (
        "bp:2,2,2,3", "bp:3,3,3,4", "bp:2,3,12,12", "bp:2,2,3,6",
        "bp:2,3,5", "bp:2,4,5", "bp:2,2,2,3,5", "bp:2,3", "w:13,43,101,158@316",
    ):
        betti_torsion = run_json(capsys, "betti", link)["torsion"]
        assert betti_torsion == run_json(capsys, "sphere", link)["torsion"], link
    assert run_json(capsys, "betti", "bp:2,2,2,3")["torsion"] == "torsion_free"


def test_kervaire_spelling_answers_as_its_exponent_vector(capsys):
    # every pairwise coprime r_1, r_2 <= 5 and 2 <= a <= 20: 19 x 19 links
    pairs = 0
    for r1, r2 in itertools.product(range(1, 6), repeat=2):
        if gcd(r1, r2) != 1:
            continue
        for a in range(2, 21):
            vector = "bp:2,%d,%d,%d" % (2 * r1, 2 * r2, a)
            kervaire = run_json(capsys, "sphere", "kervaire:%d,%d@%d" % (r1, r2, a))
            assert kervaire == run_json(capsys, "sphere", vector), vector
            pairs += 1
    assert pairs == 361


def test_kervaire_spelling_in_every_command(capsys):
    # L(2,2,6,3): a = 3 shares a factor with r_2 = 3, so H_3 has rank 2
    payload = run_json(capsys, "sphere", "kervaire:1,3@3")
    assert (payload["kind"], payload["middle_betti"]) == ("not_a_sphere", 2)
    assert run_json(capsys, "classify", "kervaire:3,5@7")["sign"] == "negative"
    assert run_json(capsys, "betti", "kervaire:1,3@3")["middle_betti"] == 2
    code, out, err = run(capsys, "sphere", "kervaire:3,5@7", "--budget", "10")
    assert (code, out) == (3, "")
    assert err == "error: estimated cost 64 exceeds budget 10\n"


@pytest.mark.parametrize(
    "link, message",
    [
        ("kervaire:2,4@7", "r must be pairwise coprime"),
        ("kervaire:1@3", "need an even count 2m >= 2 of r_i"),
        ("kervaire:3,5@1", "r_i must be >= 1 and a >= 2"),
        ("kervaire:3,5@x", "expected integers separated by ',', got 'x'"),
        ("foo:1", "unrecognized link 'foo:1' (want bp:, w:, mono: or kervaire:)"),
    ],
)
def test_kervaire_refusals(capsys, link, message):
    assert run(capsys, "sphere", link) == (2, "", "error: %s\n" % message)


def _random_mono(n):
    rng = random.Random(n)
    rows = [[rng.randint(0, 9) for _ in range(n)] for _ in range(n)]
    return "mono:[%s]" % ";".join(",".join(map(str, r)) for r in rows)


@pytest.mark.parametrize("command", ["weights-solve", "classify"])
def test_mono_elimination_is_charged_before_solving(capsys, command):
    # 40 rows x 41 columns (the degree's among them) x 40 pivots
    code, out, err = run(capsys, command, _random_mono(40), "--budget", "10")
    assert (code, out) == (3, "")
    assert err == "error: estimated cost 65600 exceeds budget 10\n"
    # 3 rows x 4 columns x 3 pivots
    small = "mono:[3,0,0;1,3,0;0,0,2]"
    assert run(capsys, command, small, "--budget", "35")[0] == 3
    code, _, err = run(capsys, command, small, "--budget", "36")
    assert code == 0, err


def test_catalog_append_needs_file(capsys):
    with pytest.raises(SystemExit):
        main(["catalog", "append"])


def test_invalid_link_exit_code(capsys):
    code, _, err = run(capsys, "betti", "bp:1,2,3")
    assert code == 2
    assert "error" in err


def test_io_error_exit_code(capsys, tmp_path):
    code, _, err = run(
        capsys, "catalog", "append", "--file", str(tmp_path / "missing.jsonl"),
    )
    assert code == 4
    assert "i/o error" in err


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "atlas.conf"
    catalog = tmp_path / "from_config.jsonl"
    cfg.write_text(
        "# comment\ncatalog = %s\nbudget = 10\n" % catalog, encoding="utf-8"
    )
    # config budget makes the search refuse
    code, _, _ = run(
        capsys, "search", "--family", "237m", "--bounds", "m=5:41",
        "--config", str(cfg),
    )
    assert code == 3
    # the flag wins over the config value
    code, _, _ = run(
        capsys, "search", "--family", "237m", "--bounds", "m=5:41",
        "--config", str(cfg), "--budget", "100000",
    )
    assert code == 0


def test_config_env_var(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "atlas.conf"
    cfg.write_text("budget = 10\n", encoding="utf-8")
    monkeypatch.setenv(CONFIG_ENV, str(cfg))
    code, _, _ = run(
        capsys, "search", "--family", "237m", "--bounds", "m=5:41",
    )
    assert code == 3


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.conf"
    for line in ("color = blue", "threads = 4"):
        cfg.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(InvalidInput):
            load_config(str(cfg))


def test_config_defaults(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV, raising=False)
    cfg = load_config(None)
    assert cfg["catalog"] == "atlas.jsonl"
    assert cfg["budget"] == 10**8
