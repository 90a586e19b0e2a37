"""Weight systems, BP links, sign classes and weight solving."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from linkatlas import bp_link, classify_sign
from linkatlas.errors import InvalidInput
from linkatlas.links import (
    BPExponents,
    Pi1Class,
    SignClass,
    WeightSystem,
    ade_match,
    canonical_key,
    count_monomials,
    is_well_formed,
    kervaire_exponents,
    parse_bounds,
    parse_link,
    pi1_class,
    solve_cost,
    solve_weights,
)
from sign_oracle import reciprocal_sum


def test_weight_system_sorts_and_normalizes():
    ws = WeightSystem((10, 6, 15), 30)
    assert ws.weights == (6, 10, 15)
    assert ws.degree == 30
    # common factor is divided out of weights and degree together
    assert WeightSystem((2, 4, 6), 12) == WeightSystem((1, 2, 3), 6)


def test_weight_system_rejects_bad_input():
    with pytest.raises(InvalidInput):
        WeightSystem((1,), 5)
    with pytest.raises(InvalidInput):
        WeightSystem((0, 1), 3)
    with pytest.raises(InvalidInput):
        WeightSystem((1, 2), 0)
    # gcd 2 does not divide degree 5: no monomial can exist
    with pytest.raises(InvalidInput):
        WeightSystem((2, 4), 5)


def test_weight_system_refuses_non_integer_entries():
    # each of these was once rounded or coerced by int()
    for weights, degree in (((True, 2), 3), ((1.5, 2), 3), ((1, 2), 3.0), (("1", 2), 3)):
        with pytest.raises(InvalidInput, match="must be integers"):
            WeightSystem(weights, degree)


def test_weight_system_properties():
    ws = WeightSystem((6, 10, 15), 30)
    assert ws.nvars == 3
    assert ws.total_weight == 31
    assert ws.link_dim == 3
    assert str(ws) == "w=(6,10,15)@30"
    assert WeightSystem((1, 1, 4, 6), 12).link_dim == 5


def test_bp_exponents_validation():
    with pytest.raises(InvalidInput):
        BPExponents((2,))
    with pytest.raises(InvalidInput):
        BPExponents((1, 2, 3))
    a = BPExponents((5, 3, 2))
    assert a.nvars == 3
    assert a.pairwise_coprime()
    assert not BPExponents((6, 10, 15)).pairwise_coprime()
    assert str(a) == "bp:5,3,2"


def test_bp_exponents_refuse_non_integer_entries():
    # BPExponents((2.7, 3, 5)) was once (2, 3, 5)
    for exps in ((2.7, 3, 5), (2.9, 3.2, 5.99), (True, 3, 5), ("2", 3, 5)):
        with pytest.raises(InvalidInput, match="must be integers"):
            BPExponents(exps)
        with pytest.raises(InvalidInput):
            bp_link(exps)


def test_bp_link_examples():
    assert bp_link((5, 3, 2)) == WeightSystem((6, 10, 15), 30)
    assert bp_link((4, 4, 4, 4)) == WeightSystem((1, 1, 1, 1), 4)
    assert bp_link((2, 3, 12, 12)) == WeightSystem((1, 1, 4, 6), 12)


def test_bp_link_weights_primitive():
    rng = random.Random(7)
    for _ in range(200):
        nvars = rng.randint(2, 5)
        exps = [rng.randint(2, 50) for _ in range(nvars)]
        ws = bp_link(exps)
        assert gcd(*ws.weights) == 1
        assert sorted(ws.degree // e for e in exps) == list(ws.weights)
        assert all(ws.degree % e == 0 for e in exps)


def test_classify_sign_examples():
    assert classify_sign(bp_link((5, 3, 2))) is SignClass.POSITIVE
    assert classify_sign(WeightSystem((1, 1, 1), 3)) is SignClass.NULL
    assert classify_sign(bp_link((2, 3, 7, 42))) is SignClass.NULL
    assert classify_sign(bp_link((7, 3, 2))) is SignClass.NEGATIVE


def test_classify_sign_matches_reciprocal_sum():
    rng = random.Random(11)
    for _ in range(300):
        nvars = rng.randint(2, 5)
        exps = [rng.randint(2, 30) for _ in range(nvars)]
        sign = classify_sign(bp_link(exps))
        total = reciprocal_sum(exps)
        if total > 1:
            assert sign is SignClass.POSITIVE
        elif total == 1:
            assert sign is SignClass.NULL
        else:
            assert sign is SignClass.NEGATIVE


def test_classify_sign_permutation_invariant():
    rng = random.Random(13)
    for _ in range(100):
        exps = [rng.randint(2, 20) for _ in range(4)]
        perm = exps[:]
        rng.shuffle(perm)
        assert classify_sign(bp_link(exps)) is classify_sign(bp_link(perm))


def test_solve_weights_published_examples():
    # z0^21 z1 + z1^5 z2 + z2^3 z0 + z3^2
    rows = [[21, 1, 0, 0], [0, 5, 1, 0], [1, 0, 3, 0], [0, 0, 0, 2]]
    assert solve_weights(rows) == WeightSystem((13, 43, 101, 158), 316)
    # z0^3 + z0 z1^3 + z2^2
    rows = [[3, 0, 0], [1, 3, 0], [0, 0, 2]]
    assert solve_weights(rows) == WeightSystem((4, 6, 9), 18)
    # z0^20 + z1^3 z3 + z2^3 z1 + z3^2 z0
    rows = [[20, 0, 0, 0], [0, 3, 0, 1], [0, 1, 3, 0], [1, 0, 0, 2]]
    assert solve_weights(rows) == WeightSystem((2, 7, 11, 19), 40)
    # z0^10 + z1^4 z2 + z2^2 z3 + z3^2 z0: consistent, clears at d=160
    rows = [[10, 0, 0, 0], [0, 4, 1, 0], [0, 0, 2, 1], [1, 0, 0, 2]]
    assert solve_weights(rows) == WeightSystem((16, 29, 44, 72), 160)


def test_solve_weights_reproduces_bp_links():
    rng = random.Random(17)
    for _ in range(100):
        nvars = rng.randint(2, 5)
        exps = [rng.randint(2, 25) for _ in range(nvars)]
        rows = [[exps[i] if j == i else 0 for j in range(nvars)]
                for i in range(nvars)]
        assert solve_weights(rows) == bp_link(exps)


def test_solve_weights_rank_deficient():
    with pytest.raises(InvalidInput, match="solution space has dimension 3"):
        solve_weights([[3, 0, 0]])
    # duplicate equation leaves a two-dimensional solution space
    with pytest.raises(InvalidInput, match="solution space has dimension 2"):
        solve_weights([[2, 0], [2, 0]])


def test_solve_weights_unconstrained_variable():
    # w1 appears in no monomial: the unique ray has w0 = d = 0
    with pytest.raises(InvalidInput, match="kernel vector is not strictly positive"):
        solve_weights([[2, 0], [4, 0]])


def test_solve_weights_no_positive_solution():
    # inconsistent system: only the zero solution remains
    with pytest.raises(InvalidInput, match="only the zero solution"):
        solve_weights([[2, 1], [0, 3], [5, 0]])
    # consistent but forces w0 = 0
    with pytest.raises(InvalidInput, match="kernel vector is not strictly positive"):
        solve_weights([[3, 1], [1, 1]])


def test_solve_weights_input_validation():
    with pytest.raises(InvalidInput):
        solve_weights([])
    with pytest.raises(InvalidInput):
        solve_weights([[1, 2], [1, 2, 3]])
    with pytest.raises(InvalidInput):
        solve_weights([[1, -2], [2, 1]])
    with pytest.raises(InvalidInput):
        solve_weights([[0, 0], [2, 1]])


def test_count_monomials_table():
    assert count_monomials(WeightSystem((1, 2, 3), 6)) == 7
    assert count_monomials(WeightSystem((1, 1, 2), 4)) == 9
    assert count_monomials(WeightSystem((1, 1, 1), 3)) == 10


def test_count_monomials_permutation_invariant():
    # the constructor sorts, so permutations collapse to one value;
    # check against a direct enumeration instead
    ws = WeightSystem((2, 3, 5), 15)
    direct = sum(
        1
        for a in range(ws.degree // 2 + 1)
        for b in range(ws.degree // 3 + 1)
        for c in range(ws.degree // 5 + 1)
        if 2 * a + 3 * b + 5 * c == 15
    )
    assert count_monomials(ws) == direct


def test_is_well_formed():
    assert is_well_formed(WeightSystem((1, 1, 4, 6), 12))
    assert not is_well_formed(WeightSystem((2, 2, 2, 3), 9))
    assert is_well_formed(WeightSystem((6, 10, 15, 1), 31))
    with pytest.raises(InvalidInput, match="well-formedness needs nvars = 4"):
        is_well_formed(WeightSystem((1, 2, 3), 6))


def test_pi1_class():
    assert pi1_class(bp_link((5, 3, 2))) is Pi1Class.FINITE
    assert pi1_class(WeightSystem((1, 2, 3), 6)) is Pi1Class.INFINITE_NILPOTENT
    assert pi1_class(bp_link((7, 3, 2))) is Pi1Class.INFINITE
    with pytest.raises(InvalidInput, match="pi1 classification needs nvars = 3"):
        pi1_class(WeightSystem((1, 1, 1, 1), 4))


def test_ade_match():
    assert ade_match(bp_link((5, 3, 2))) == "E_8"
    assert ade_match(bp_link((4, 3, 2))) == "E_6"
    assert ade_match(WeightSystem((4, 6, 9), 18)) == "E_7"
    assert ade_match(bp_link((7, 2, 2))) == "A_6"
    # z0^2 z1 + z1^4 + z2^2: w = (3, 2, 4), d = 8
    assert ade_match(WeightSystem((2, 3, 4), 8)) == "D_4"
    # negative and null links never match
    assert ade_match(bp_link((7, 3, 2))) is None
    assert ade_match(WeightSystem((1, 1, 1), 3)) is None


def _ade_table(max_degree):
    # the monomial rows of the table, solved one by one: the slow oracle
    table = {}
    for label, rows in (
        ("E_6", [[4, 0, 0], [0, 3, 0], [0, 0, 2]]),
        ("E_7", [[3, 0, 0], [1, 3, 0], [0, 0, 2]]),
        ("E_8", [[5, 0, 0], [0, 3, 0], [0, 0, 2]]),
    ):
        table[solve_weights(rows)] = label
    for p in range(2, max_degree + 1):
        table.setdefault(
            solve_weights([[p, 0, 0], [0, 2, 0], [0, 0, 2]]), "A_%d" % (p - 1)
        )
    for m in range(3, max_degree + 1):
        table.setdefault(
            solve_weights([[2, 1, 0], [0, m, 0], [0, 0, 2]]), "D_%d" % m
        )
    return table


def test_ade_match_agrees_with_solved_rows():
    max_degree = 30
    table = _ade_table(max_degree)
    hits = set()
    for d in range(1, max_degree + 1):
        for w in itertools.combinations_with_replacement(range(1, d + 1), 3):
            if sum(w) <= d or d % gcd(*w):
                continue  # not positive, or not a weight system
            ws = WeightSystem(w, d)
            assert ade_match(ws) == table.get(ws), ws
            if ws in table:
                hits.add(ws)
    assert {table[ws] for ws in hits} >= {"E_6", "E_7", "E_8", "A_1", "D_3"}
    assert len(hits) == len([ws for ws in table if ws.degree <= max_degree])


def test_canonical_key():
    assert canonical_key(BPExponents((5, 3, 2))) == "bp:2,3,5"
    assert canonical_key(WeightSystem((10, 6, 15), 30)) == "w:6,10,15@30"


def test_reciprocal_sum_exact():
    assert reciprocal_sum((5, 3, 2)) == Fraction(31, 30)
    assert reciprocal_sum((2, 3, 7, 42)) == 1


def test_kervaire_is_a_spelling_of_its_exponent_vector():
    assert parse_link("kervaire:3,5@7") == BPExponents((2, 6, 10, 7))
    assert kervaire_exponents((1, 2, 3, 5), 9) == BPExponents((2, 2, 4, 6, 10, 9))
    with pytest.raises(InvalidInput, match="kervaire form is"):
        parse_link("kervaire:3,5")


def test_solve_cost_counts_elimination_updates():
    charged = []
    ws = parse_link("mono:[3,0,0;1,3,0;0,0,2]", charged.append)
    assert ws == WeightSystem((4, 6, 9), 18)
    # 3 rows x 4 columns (the degree's among them) x 3 pivots
    assert charged == [36] == [solve_cost([(3, 0, 0), (1, 3, 0), (0, 0, 2)])]
    assert solve_cost([(1, 2, 3, 4)]) == 1 * 5 * 1
    assert solve_cost([]) == 0
    # only mono: input is solved, so only it is charged
    parse_link("kervaire:3,5@7", charged.append)
    assert charged == [36]


def test_parse_kervaire_and_bounds():
    assert parse_link("kervaire:3,5@7") == BPExponents((2, 6, 10, 7))
    assert parse_bounds("k=2:8, p=2:600") == {"k": (2, 8), "p": (2, 600)}
    for bad in ("kervaire:3,5", "kervaire:3@5,7", "kervaire:"):
        with pytest.raises(InvalidInput, match="kervaire form is"):
            parse_link(bad)
    # the @a part is parsed before the body
    with pytest.raises(InvalidInput, match="got 'x'"):
        parse_link("kervaire:y@x")
    for bad in ("k=2", "k:2:8", "k=2:3:4"):
        with pytest.raises(InvalidInput, match="bounds look like"):
            parse_bounds(bad)
    with pytest.raises(InvalidInput, match="got 'a:5'"):
        parse_bounds("m=a:5")
