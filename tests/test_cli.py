"""Command line surface: grammar, subcommands, exit codes, config."""

import json

import pytest

from linkatlas.catalog import record_cost
from linkatlas.cli import CONFIG_ENV, load_config, main, parse_link
from linkatlas.errors import InvalidInput
from linkatlas.links import BPExponents, WeightSystem


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
    assert payload["a_mod_8"] == 7

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


@pytest.mark.parametrize("command", ["signature", "casson", "bp8", "sphere"])
def test_single_link_commands_refuse_huge_exponents_up_front(capsys, command):
    # the same vector a search refuses: exit 3 before any signature work
    code, out, err = run(capsys, command, "bp:1000003,1000033,1000037")
    assert code == 3
    assert out == ""
    assert "budget" in err


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


def _bad_catalog_key(tmp_path):
    from linkatlas import BPExponents as BP, build_record

    obj = build_record(BP((5, 3, 2))).to_json()
    obj["key"] = "bp:2,x"
    catalog = tmp_path / "atlas.jsonl"
    catalog.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return ["catalog", "query", "--nvars", "3", "--catalog", str(catalog)]


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: ["betti", "w:1,2@x"],
        lambda tmp: ["sphere", "kervaire:3,5@x"],
        lambda tmp: ["search", "--family", "237m", "--bounds", "m=a:5"],
        lambda tmp: ["search", "--family", "kkkk1p", "--bounds", "p=2:5", "--bp8-sweep"],
        _bad_config,
        _bad_catalog_key,
    ],
    ids=["weight-degree", "kervaire-a", "bounds", "sweep-no-k", "config", "catalog-key"],
)
def test_malformed_input_exits_2(capsys, tmp_path, argv):
    code, _, err = run(capsys, *argv(tmp_path))
    assert code == 2
    assert err.startswith("error: ")


def test_catalog_append_from_file(capsys, tmp_path):
    catalog = str(tmp_path / "atlas.jsonl")
    feed = tmp_path / "feed.jsonl"
    from linkatlas import BPExponents as BP, build_record

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


def test_catalog_query_reverify(capsys, tmp_path):
    catalog = tmp_path / "atlas.jsonl"
    from linkatlas import BPExponents as BP, build_record

    rec = build_record(BP((5, 3, 2)))
    obj = rec.to_json()
    obj["middle_betti"] = 5  # stored value no longer matches the key
    catalog.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    payload = run_json(
        capsys, "catalog", "query", "--reverify", "--catalog", str(catalog)
    )
    assert "bp:2,3,5" in payload["reverify_failures"]


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
