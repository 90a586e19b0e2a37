"""Family searches over parameterized links, with a cost budget.

Each family maps integer parameters inside bounds to a Brieskorn-Pham
exponent vector.  A search streams the family's members through the
member filters (min_coprime_fixed, then pairwise_coprime), keeps the
first passing spelling of each canonical key, builds one record per
key and returns those the record filters keep, sorted by key, plus the
first matched member of each bp8 residue.  The number of parameter
tuples inside the bounds is checked against the budget before any
member is generated, and the estimated cost (catalog.record_cost per
distinct key that passed the member filters) before any record is
built; a search never silently truncates.

run_search is the one loop that builds records.  The exotic 7-sphere
sweep, seven_sphere_sweep, is a kkkk1p search with p coprime to k and
k+1, read for its residue witnesses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from math import gcd, prod
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .catalog import InvariantRecord, at_least, build_record, record_cost, record_filter
from .errors import BoundsTooLarge, InvalidInput
from .links import BPExponents, bp_key
from .spheres import kervaire_classify  # noqa: F401  (a name perfbench traces)

DEFAULT_BUDGET = 10**8


class Member(NamedTuple):
    """A family member: its exponent vector, a plain tuple that a search
    makes a BPExponents only when min_coprime_fixed passes it and its
    canonical key is new."""

    exponents: tuple[int, ...]
    # distinct exponents the varying parameter must dodge, and its value
    fixed: tuple[int, ...] | None = None
    varying: int | None = None


@dataclass(frozen=True)
class SearchResult:
    records: tuple[InvariantRecord, ...]
    examined: int
    notes: tuple[str, ...] = ()
    # the first matched member of each bp8 residue, in enumeration order
    witnesses: Mapping[int, tuple[int, ...]] = field(default_factory=dict)

    @property
    def matched(self) -> int:
        return len(self.records)


def _span(bounds: Mapping[str, tuple[int, int]], key: str, lo_min: int) -> range:
    try:
        lo, hi = bounds[key]
    except KeyError:
        raise InvalidInput("family needs bound %r" % key) from None
    if lo < lo_min or hi < lo:
        raise InvalidInput("bad bound %s=(%d,%d)" % (key, lo, hi))
    return range(lo, hi + 1)


def _spans(bounds, lo_mins: Mapping[str, int]) -> list[range]:
    """The spans of the bounds named in lo_mins, in order, each checked
    against its least value; a missing bound, or one the family does not
    take, raises InvalidInput."""
    spans = [_span(bounds, k, lo) for k, lo in lo_mins.items()]
    extra = [k for k in bounds if k not in lo_mins]
    if extra:
        raise InvalidInput(
            "family takes no bound %r (its bounds: %s)"
            % (extra[0], ", ".join(lo_mins))
        )
    return spans


def _bp_box(bounds) -> Iterator[Member]:
    keys = ["a%d" % i for i in range(len(bounds))]
    if not keys or set(keys) != set(bounds):
        raise InvalidInput("bp-box bounds use keys a0, a1, ...")
    for tup in itertools.product(*_spans(bounds, dict.fromkeys(keys, 2))):
        yield Member(tup)


def _family_237m(bounds) -> Iterator[Member]:
    (ms,) = _spans(bounds, {"m": 2})
    for m in ms:
        yield Member((2, 3, 7, m), (2, 3, 7), m)


def _family_k1p(count: int, bounds) -> Iterator[Member]:
    # (k, ..., k, k+1, p) with count k's
    ks, ps = _spans(bounds, {"k": 2, "p": 2})
    for k in ks:
        for p in ps:
            yield Member((k,) * count + (k + 1, p), (k, k + 1), p)


def _family_pqr(bounds) -> Iterator[Member]:
    ps, qs, rs = _spans(bounds, {"p": 2, "q": 2, "r": 2})
    for p in ps:
        for q in qs:
            if q <= p or gcd(p, q) != 1:
                continue
            for r in rs:
                if r <= q or gcd(r, p) != 1 or gcd(r, q) != 1:
                    continue
                yield Member((p, q, r, p * q * r))


def _family_kervaire(bounds) -> Iterator[Member]:
    count = sum(1 for k in bounds if k.startswith("r"))
    rkeys = ["r%d" % i for i in range(1, count + 1)]
    if not rkeys or count % 2 or not set(rkeys) <= set(bounds):
        raise InvalidInput("kervaire bounds use r1..r2m (even count) and a")
    *spans, a_span = _spans(bounds, {**dict.fromkeys(rkeys, 1), "a": 2})
    for rs in itertools.product(*spans):
        if any(gcd(x, y) != 1 for x, y in itertools.combinations(rs, 2)):
            continue
        # the bounds and the coprimality are checked: the vector of
        # links.kervaire_exponents, left a plain tuple
        for a in a_span:
            yield Member((2, *(2 * r for r in rs), a), rs, a)


def _notes_237m(bounds, min_coprime_fixed: int | None, examined: int) -> list[str]:
    if min_coprime_fixed == 2 and tuple(bounds.get("m", ())) == (5, 41):
        return [
            "enumeration finds %d members; a previously published count "
            "for this family is 27" % examined
        ]
    return []


class Family(NamedTuple):
    """Member generator of a family, whether its members carry a varying
    parameter (min_coprime_fixed needs one), and its optional notes hook,
    which comments on the whole search from its bounds, min_coprime_fixed
    and the examined count."""

    generate: Callable[[Mapping[str, tuple[int, int]]], Iterator[Member]]
    varying: bool = False
    notes: Callable[..., Sequence[str]] = lambda bounds, least, n: ()


FAMILIES = {
    "bp-box": Family(_bp_box),
    "237m": Family(_family_237m, varying=True, notes=_notes_237m),
    "kkk1p": Family(partial(_family_k1p, 2), varying=True),
    "kkkk1p": Family(partial(_family_k1p, 3), varying=True),
    "pqrpqr": Family(_family_pqr),
    "kervaire": Family(_family_kervaire, varying=True),
}


def _coprime_hits(member: Member) -> int:
    return sum(1 for q in set(member.fixed) if gcd(member.varying, q) == 1)


def charge(cost: int, budget: int) -> int:
    """The one budget refusal: raise BoundsTooLarge (exit 3) before any
    work whose estimated cost exceeds the budget; returns the cost."""
    if cost > budget:
        raise BoundsTooLarge("estimated cost %d exceeds budget %d" % (cost, budget))
    return cost


def check_budget(exponents: list[BPExponents], budget: int) -> int:
    return charge(sum(record_cost(e) for e in exponents), budget)


def run_search(
    family: str,
    bounds: Mapping[str, tuple[int, int]],
    budget: int = DEFAULT_BUDGET,
    *,
    pairwise_coprime: bool = False,
    min_coprime_fixed: int | None = None,
    **filters,
) -> SearchResult:
    """Stream the family's members once through min_coprime_fixed (which
    counts them as examined) and pairwise_coprime, keeping the first
    passing spelling of each canonical key; charge the budget for those
    keys, build one record for each and keep those record_filter(**filters)
    keeps: the record filters are catalog.FILTERS.

    min_coprime_fixed asks that the varying parameter be coprime to at
    least that many of the member's fixed exponents; only families with
    a designated varying parameter support it.  A filter value or
    min_coprime_fixed the command line refuses raises InvalidInput before
    the budget is charged; an unknown filter keyword raises TypeError."""
    keep = record_filter(**filters)
    if min_coprime_fixed is not None:
        at_least("min_coprime_fixed", min_coprime_fixed, 0)
    # every family enumerates at most the parameter tuples inside the bounds
    charge(prod(max(0, hi - lo + 1) for lo, hi in bounds.values()), budget)
    try:
        fam = FAMILIES[family]
    except KeyError:
        raise InvalidInput(
            "unknown family %r (have: %s)" % (family, ", ".join(sorted(FAMILIES)))
        ) from None
    if min_coprime_fixed is not None and not fam.varying:
        raise InvalidInput(
            "family %r has no varying parameter for min_coprime_fixed" % family
        )

    # min_coprime_fixed reads the member; a record and pairwise_coprime
    # depend only on the key, and the first matched member of a residue
    # is the first of its key: keep that spelling, which a witness names
    examined = 0
    firsts: dict[str, BPExponents] = {}
    for member in fam.generate(bounds):
        if min_coprime_fixed is not None and _coprime_hits(member) < min_coprime_fixed:
            continue
        examined += 1
        key = bp_key(member.exponents)
        if key in firsts:
            continue
        exps = BPExponents(member.exponents)
        if not pairwise_coprime or exps.pairwise_coprime():
            firsts[key] = exps
    check_budget(list(firsts.values()), budget)

    matched: dict[str, InvariantRecord] = {}
    witnesses: dict[int, tuple[int, ...]] = {}
    for exps in firsts.values():
        rec = build_record(exps)
        if keep(rec):
            matched[rec.key] = rec
            if rec.sphere.bp8_residue is not None:
                witnesses.setdefault(rec.sphere.bp8_residue, exps.exponents)

    notes = fam.notes(bounds, min_coprime_fixed, examined)
    ordered = tuple(matched[k] for k in sorted(matched))
    return SearchResult(ordered, examined, tuple(notes), witnesses)


def seven_sphere_sweep(
    bounds: Mapping[str, tuple[int, int]], budget: int = DEFAULT_BUDGET, **filters
) -> SearchResult:
    """Search the kkkk1p family L(k,k,k,k+1,p) inside bounds (keys k and
    p) with p coprime to both k and k+1, for exotic 7-sphere classes.

    Every such member is a homotopy 7-sphere (k+1 and p are isolated
    vertices of Brieskorn's graph), so the result's witnesses name the
    first matched member of each bp8 residue; filters are run_search's
    keywords and apply as in any search, but min_coprime_fixed is
    replaced by 2.
    """
    return run_search("kkkk1p", bounds, budget, **{**filters, "min_coprime_fixed": 2})


__all__ = [
    "DEFAULT_BUDGET",
    "FAMILIES",
    "SearchResult",
    "run_search",
    "seven_sphere_sweep",
]
