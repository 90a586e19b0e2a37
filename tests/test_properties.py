"""Property tests tying the signature to its oracle, to the Betti sum and
to the sphere rule, the Betti sum to its subset-by-subset oracle, a
catalog key's variable count to the link it names, and run_search to
the naive loop that builds every member."""

from math import gcd, prod

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from linkatlas import bp_link  # noqa: E402
from linkatlas.betti import betti  # noqa: E402
from linkatlas.catalog import build_record  # noqa: E402
from linkatlas.links import BPExponents, WeightSystem, canonical_key, key_nvars  # noqa: E402
from linkatlas.search import run_search  # noqa: E402
from linkatlas.spheres import brieskorn_signature, signature_cost  # noqa: E402
from betti_oracle import join_fermat, repeated_non_fermat_systems, subset_betti  # noqa: E402
from search_oracle import assert_same_search, naive_search  # noqa: E402
from signature_oracle import brieskorn_signature_direct, signature_cost_walk  # noqa: E402

# 3 exponents up to 14 and 5 up to 5 keep the direct oracle under ~4^5
# lattice points per example
vectors = st.one_of(
    st.lists(st.integers(2, 14), min_size=3, max_size=3),
    st.lists(st.integers(2, 5), min_size=5, max_size=5),
)


@settings(max_examples=300, deadline=None)
@given(vectors)
def test_signature_matches_direct_oracle(exps):
    assert brieskorn_signature(exps) == brieskorn_signature_direct(exps)


@settings(max_examples=300, deadline=None)
@given(vectors)
def test_betti_counts_lattice_points_off_the_signature(exps):
    # the points with integer t are the eigenvalue-1 part of the monodromy
    sig = brieskorn_signature(exps)
    middle = betti(bp_link(exps)).middle_betti
    assert middle == prod(x - 1 for x in exps) - sig.positive - sig.negative
    record = build_record(BPExponents(tuple(exps)))
    assert record.middle_betti == middle
    assert record.signature == sig.signature


# small prefix values and a wide last exponent, so the sorted prefixes
# repeat and most charges read a cached walk
costed = st.one_of(
    st.tuples(st.lists(st.integers(2, 5), min_size=2, max_size=2), st.integers(2, 10**4)),
    st.tuples(st.lists(st.integers(2, 6), min_size=4, max_size=4), st.integers(2, 10**4)),
).flatmap(lambda pl: st.permutations(pl[0] + [pl[1]]))


@settings(max_examples=300, deadline=None)
@given(costed)
def test_signature_cost_is_the_uncached_prefix_walk(exps):
    assert signature_cost(exps) == signature_cost_walk(exps)
    assert signature_cost(exps) == signature_cost_walk(exps)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(2, 18), min_size=5, max_size=5))
def test_five_exponent_homotopy_spheres_have_signature_divisible_by_8(exps):
    # a homotopy 7-sphere bounds a parallelizable manifold of signature 8k
    b = betti(bp_link(exps))
    assume(b.middle_betti == 0 and b.delta_at_one() == 1)
    assert brieskorn_signature(exps).signature % 8 == 0


# quasi-smooth systems with repeated weights: a Brieskorn-Pham vector
# from a small range, or a non-Fermat system of 3 variables with d < 12
# joined with repeated Fermat variables z^a
_NON_FERMAT = list(repeated_non_fermat_systems(((3, range(2, 12)),)))

repeated = st.one_of(
    st.lists(st.integers(2, 8), min_size=2, max_size=7).map(bp_link),
    st.builds(
        join_fermat,
        st.sampled_from(_NON_FERMAT),
        st.lists(st.integers(2, 7), min_size=1, max_size=4).map(
            lambda a: a + a[:1]
        ),
    ),
)


@settings(max_examples=200, deadline=None)
@given(repeated)
def test_betti_matches_the_subset_oracle(ws):
    b = betti(ws)
    got = (b.middle_betti, b.divisor, b.delta_at_one(), b.delta_at_minus_one(), b.quotients)
    assert got == subset_betti(ws)


links = st.one_of(
    st.lists(st.integers(2, 10**6), min_size=2, max_size=9).map(
        lambda a: BPExponents(tuple(a))
    ),
    st.tuples(
        st.lists(st.integers(1, 10**6), min_size=2, max_size=9), st.integers(1, 50)
    ).map(lambda wm: WeightSystem(tuple(wm[0]), wm[1] * gcd(*wm[0]))),
)


@settings(max_examples=300, deadline=None)
@given(links)
def test_key_nvars_counts_the_variables_of_a_canonical_key(link):
    assert key_nvars(canonical_key(link)) == link.nvars


# small bp-box boxes: 3 to 5 exponents, each span at most 3 wide, and
# any combination of the search's filters
boxes = st.integers(3, 5).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(2, 6), st.integers(0, 2)).map(lambda s: (s[0], s[0] + s[1])),
        min_size=n,
        max_size=n,
    )
)
filters = st.fixed_dictionaries(dict(
    sign=st.sampled_from([None, "positive", "null", "negative"]),
    middle_betti=st.sampled_from([None, 0, 2]),
    pairwise_coprime=st.booleans(),
))


@settings(max_examples=60, deadline=None)
@given(boxes, filters)
def test_search_matches_the_naive_loop_on_random_boxes(spans, filters):
    bounds = {"a%d" % i: span for i, span in enumerate(spans)}
    got = run_search("bp-box", bounds, **filters)
    assert_same_search(got, naive_search("bp-box", bounds, **filters))
