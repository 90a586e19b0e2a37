"""Property tests tying the signature to its oracle, to the Betti sum and
to the sphere rule, and a catalog key's variable count to the link it
names."""

from math import gcd, prod

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from linkatlas import (  # noqa: E402
    BPExponents,
    betti,
    bp_link,
    brieskorn_signature,
    brieskorn_signature_direct,
    WeightSystem,
    build_record,
    canonical_key,
)
from linkatlas.links import key_nvars  # noqa: E402

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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(2, 18), min_size=5, max_size=5))
def test_five_exponent_homotopy_spheres_have_signature_divisible_by_8(exps):
    # a homotopy 7-sphere bounds a parallelizable manifold of signature 8k
    b = betti(bp_link(exps))
    assume(b.middle_betti == 0 and b.delta_at_one() == 1)
    assert brieskorn_signature(exps).signature % 8 == 0


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
