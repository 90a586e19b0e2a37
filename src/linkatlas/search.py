"""Family searches over parameterized links, with a cost budget.

Each family maps integer parameters inside bounds to a Brieskorn-Pham
exponent vector.  A search enumerates the family, evaluates the
predicate in exact arithmetic, and returns matching invariant records
deduplicated by canonical key and sorted.  The estimated cost
(catalog.record_cost per member) is checked against the budget before
any heavy work starts, and so is the number of parameter tuples inside
the bounds before any member is generated; a search never silently
truncates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from math import gcd, prod
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .catalog import InvariantRecord, build_record, record_cost, record_filter
from .errors import BoundsTooLarge, InvalidInput
from .links import BPExponents
from .spheres import kervaire_classify  # noqa: F401  (a name perfbench traces)

DEFAULT_BUDGET = 10**8


@dataclass(frozen=True)
class Predicate:
    """Filters applied to each family member.

    min_coprime_fixed asks that the varying parameter be coprime to at
    least that many of the member's fixed exponents; only families with
    a designated varying parameter support it.
    """

    sign: str | None = None
    middle_betti: int | None = None
    pairwise_coprime: bool = False
    min_coprime_fixed: int | None = None


@dataclass(frozen=True)
class SearchSpec:
    family: str
    bounds: Mapping[str, tuple[int, int]]
    predicate: Predicate = field(default_factory=Predicate)


@dataclass(frozen=True)
class Member:
    exponents: BPExponents
    # distinct exponents the varying parameter must dodge, and its value
    fixed: tuple[int, ...] | None = None
    varying: int | None = None


@dataclass(frozen=True)
class SearchResult:
    records: tuple[InvariantRecord, ...]
    examined: int
    matched: int
    notes: tuple[str, ...] = ()


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
        yield Member(BPExponents(tup))


def _family_237m(bounds) -> Iterator[Member]:
    (ms,) = _spans(bounds, {"m": 2})
    for m in ms:
        yield Member(BPExponents((2, 3, 7, m)), fixed=(2, 3, 7), varying=m)


def _family_k1p(count: int, bounds) -> Iterator[Member]:
    # (k, ..., k, k+1, p) with count k's
    ks, ps = _spans(bounds, {"k": 2, "p": 2})
    for k in ks:
        for p in ps:
            yield Member(
                BPExponents((k,) * count + (k + 1, p)), fixed=(k, k + 1), varying=p
            )


def _family_pqr(bounds) -> Iterator[Member]:
    ps, qs, rs = _spans(bounds, {"p": 2, "q": 2, "r": 2})
    for p in ps:
        for q in qs:
            if q <= p or gcd(p, q) != 1:
                continue
            for r in rs:
                if r <= q or gcd(r, p) != 1 or gcd(r, q) != 1:
                    continue
                yield Member(BPExponents((p, q, r, p * q * r)))


def _family_kervaire(bounds) -> Iterator[Member]:
    count = sum(1 for k in bounds if k.startswith("r"))
    rkeys = ["r%d" % i for i in range(1, count + 1)]
    if not rkeys or count % 2 or not set(rkeys) <= set(bounds):
        raise InvalidInput("kervaire bounds use r1..r2m (even count) and a")
    *spans, a_span = _spans(bounds, {**dict.fromkeys(rkeys, 1), "a": 2})
    for rs in itertools.product(*spans):
        if any(gcd(x, y) != 1 for x, y in itertools.combinations(rs, 2)):
            continue
        for a in a_span:
            exps = BPExponents((2,) + tuple(2 * x for x in rs) + (a,))
            yield Member(exps, fixed=rs, varying=a)


def _notes_237m(spec: SearchSpec, members: list[Member]) -> list[str]:
    pred = spec.predicate
    if pred.min_coprime_fixed == 2 and tuple(spec.bounds.get("m", ())) == (5, 41):
        return [
            "enumeration finds %d members; a previously published count "
            "for this family is 27" % len(members)
        ]
    return []


class Family(NamedTuple):
    """Member generator of a family plus its optional notes hook, which
    comments on the whole search."""

    generate: Callable[[Mapping[str, tuple[int, int]]], Iterator[Member]]
    notes: Callable[[SearchSpec, list[Member]], Sequence[str]] = lambda s, m: ()


FAMILIES = {
    "bp-box": Family(_bp_box),
    "237m": Family(_family_237m, notes=_notes_237m),
    "kkk1p": Family(partial(_family_k1p, 2)),
    "kkkk1p": Family(partial(_family_k1p, 3)),
    "pqrpqr": Family(_family_pqr),
    "kervaire": Family(_family_kervaire),
}


def _members(spec: SearchSpec) -> list[Member]:
    try:
        family = FAMILIES[spec.family]
    except KeyError:
        raise InvalidInput(
            "unknown family %r (have: %s)" % (spec.family, ", ".join(sorted(FAMILIES)))
        ) from None
    return list(family.generate(spec.bounds))


def _coprime_hits(member: Member) -> int:
    return sum(1 for q in set(member.fixed) if gcd(member.varying, q) == 1)


def charge(cost: int, budget: int) -> int:
    """The one budget refusal: raise BoundsTooLarge (exit 3) before any
    work whose estimated cost exceeds the budget; returns the cost."""
    if cost > budget:
        raise BoundsTooLarge("estimated cost %d exceeds budget %d" % (cost, budget))
    return cost


def check_budget(members: list[Member], budget: int) -> int:
    return charge(sum(record_cost(m.exponents) for m in members), budget)


def _evaluated(
    spec: SearchSpec, budget: int
) -> Iterator[tuple[Member, InvariantRecord]]:
    """(member, record) pairs of a search in enumeration order, after
    min_coprime_fixed and the budget check.  Nothing is built until the
    first pair is taken."""
    # every family enumerates at most the parameter tuples inside the bounds
    charge(prod(max(0, hi - lo + 1) for lo, hi in spec.bounds.values()), budget)
    members = _members(spec)
    pred = spec.predicate

    if pred.min_coprime_fixed is not None:
        if any(m.varying is None for m in members):
            raise InvalidInput(
                "family %r has no varying parameter for min_coprime_fixed"
                % spec.family
            )
        members = [
            m for m in members if _coprime_hits(m) >= pred.min_coprime_fixed
        ]

    check_budget(members, budget)

    for member in members:
        yield member, build_record(member.exponents)


def run_search(spec: SearchSpec, budget: int = DEFAULT_BUDGET) -> SearchResult:
    pred = spec.predicate
    keep = record_filter(sign=pred.sign, middle_betti=pred.middle_betti)
    members = []
    matched: dict[str, InvariantRecord] = {}
    for member, rec in _evaluated(spec, budget):
        members.append(member)
        if keep(rec) and (
            not pred.pairwise_coprime or member.exponents.pairwise_coprime()
        ):
            matched.setdefault(rec.key, rec)

    notes = FAMILIES[spec.family].notes(spec, members)
    ordered = tuple(matched[k] for k in sorted(matched))
    return SearchResult(ordered, len(members), len(ordered), tuple(notes))


@dataclass(frozen=True)
class SweepResult:
    """bp8 residues realized by L(k,k,k,k+1,p) with p coprime to both
    k and k+1; witnesses maps each residue to its first exponent
    vector in (k, p) order."""

    witnesses: dict[int, tuple[int, ...]]
    examined: int
    skipped: int

    @property
    def distinct(self) -> int:
        return len(self.witnesses)


def seven_sphere_sweep(
    bounds: Mapping[str, tuple[int, int]],
    budget: int = DEFAULT_BUDGET,
) -> SweepResult:
    """Sweep the kkkk1p family inside bounds (keys k and p) for exotic
    7-sphere classes."""
    spec = SearchSpec("kkkk1p", bounds, Predicate(min_coprime_fixed=2))
    witnesses: dict[int, tuple[int, ...]] = {}
    examined = skipped = 0
    for member, rec in _evaluated(spec, budget):
        examined += 1
        if rec.sphere.bp8_residue is None:
            skipped += 1
        else:
            witnesses.setdefault(rec.sphere.bp8_residue, member.exponents.exponents)
    return SweepResult(witnesses, examined, skipped)


__all__ = [
    "DEFAULT_BUDGET",
    "FAMILIES",
    "Predicate",
    "SearchSpec",
    "SearchResult",
    "SweepResult",
    "run_search",
    "seven_sphere_sweep",
]
