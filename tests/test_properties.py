"""Property tests tying the signature to its oracle and to the Betti sum."""

from math import prod

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from linkatlas import (  # noqa: E402
    BPExponents,
    betti,
    bp_link,
    brieskorn_signature,
    brieskorn_signature_direct,
    build_record,
)

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
