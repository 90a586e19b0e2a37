"""Weight systems and links of weighted homogeneous hypersurface singularities.

A weighted homogeneous polynomial in n+1 variables with weights
w = (w_0, ..., w_n) and degree d cuts out a link of dimension 2n - 1,
the intersection of the hypersurface with the unit sphere.  Everything
here is exact integer or rational arithmetic; no floats.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Sequence

from .errors import (
    DimensionUnsupported,
    InvalidInput,
    NoPositiveSolution,
    NotPairwiseCoprime,
    RankDeficient,
)


class SignClass(enum.Enum):
    """Sign of the transverse structure: compares degree against |w|."""

    POSITIVE = "positive"
    NULL = "null"
    NEGATIVE = "negative"


class Pi1Class(enum.Enum):
    FINITE = "finite"
    INFINITE_NILPOTENT = "infinite_nilpotent"
    INFINITE = "infinite"


@dataclass(frozen=True)
class WeightSystem:
    """Sorted primitive weight vector with its degree.

    Weights are normalized: sorted ascending and divided by their overall
    gcd (the degree is divided by the same factor, which must be possible
    for the system to carry any monomial at all).
    """

    weights: tuple[int, ...]
    degree: int

    def __post_init__(self) -> None:
        w, d = tuple(self.weights), self.degree
        if any(type(x) is not int for x in (*w, d)):  # no bool, float or str
            raise InvalidInput("weights and degree must be integers")
        if len(w) < 2:
            raise InvalidInput("need at least two weights")
        if any(x < 1 for x in w) or d < 1:
            raise InvalidInput("weights and degree must be positive")
        g = gcd(*w)
        if g > 1:
            if d % g != 0:
                raise InvalidInput(
                    "weight gcd %d does not divide degree %d" % (g, d)
                )
            w = tuple(x // g for x in w)
            d //= g
        object.__setattr__(self, "weights", tuple(sorted(w)))
        object.__setattr__(self, "degree", d)

    @property
    def nvars(self) -> int:
        return len(self.weights)

    @property
    def total_weight(self) -> int:
        return sum(self.weights)

    @property
    def link_dim(self) -> int:
        return 2 * self.nvars - 3

    def __str__(self) -> str:
        return "w=(%s)@%d" % (",".join(map(str, self.weights)), self.degree)


@dataclass(frozen=True)
class BPExponents:
    """Exponent vector (a_0, ..., a_n) of a Brieskorn-Pham polynomial
    z_0^{a_0} + ... + z_n^{a_n}.  Order is preserved as given."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        a = tuple(self.exponents)
        for x in a:  # one pass: every catalog key read comes through here
            if type(x) is not int:  # no bool, float or str
                raise InvalidInput("exponents must be integers")
            if x < 2:
                raise InvalidInput("exponents must be at least 2")
        if len(a) < 2:
            raise InvalidInput("need at least two exponents")
        object.__setattr__(self, "exponents", a)

    @property
    def nvars(self) -> int:
        return len(self.exponents)

    def pairwise_coprime(self) -> bool:
        return all(
            gcd(x, y) == 1 for x, y in itertools.combinations(self.exponents, 2)
        )

    def __str__(self) -> str:
        return "bp:" + ",".join(map(str, self.exponents))


def _as_exponents(a: Sequence[int] | BPExponents) -> BPExponents:
    return a if isinstance(a, BPExponents) else BPExponents(tuple(a))


def kervaire_exponents(r: Sequence[int], a: int) -> BPExponents:
    """Exponent vector (2, 2 r_1, ..., 2 r_2m, a) of the Kervaire-type
    link L(2, 2 r_1, ..., 2 r_2m, a), for an even count 2m >= 2 of
    pairwise coprime integers r_i >= 1 and an integer a >= 2."""
    rs = tuple(r)
    if len(rs) < 2 or len(rs) % 2:
        raise DimensionUnsupported("need an even count 2m >= 2 of r_i")
    if any(x < 1 for x in rs) or a < 2:
        raise InvalidInput("r_i must be >= 1 and a >= 2")
    # BPExponents refuses a non-integer r_i or a
    exps = BPExponents((2,) + tuple(2 * x for x in rs) + (a,))
    if any(gcd(x, y) != 1 for x, y in itertools.combinations(rs, 2)):
        raise NotPairwiseCoprime("r must be pairwise coprime")
    return exps


def bp_link(a: Sequence[int] | BPExponents) -> WeightSystem:
    """Weight system of the Brieskorn-Pham link L(a_0, ..., a_n).

    The degree is lcm(a_i) and the weight of z_i is d / a_i.  The
    resulting weight vector always has gcd 1: a common prime factor of
    all d / a_i would divide d and force every a_i to miss a full power
    of that prime, contradicting d = lcm(a_i).
    """
    exps = _as_exponents(a).exponents
    d = lcm(*exps)
    return WeightSystem(tuple(d // ai for ai in exps), d)


def classify_sign(ws: WeightSystem) -> SignClass:
    """Trichotomy on d - |w|: negative difference means positive class."""
    diff = ws.degree - ws.total_weight
    if diff < 0:
        return SignClass.POSITIVE
    if diff == 0:
        return SignClass.NULL
    return SignClass.NEGATIVE


def row_reduce(a: list[list[Fraction]]) -> list[int]:
    """Bring the rows of a to reduced row echelon form in place, by
    exact Gauss-Jordan elimination; returns the pivot columns."""
    pivots = []
    row = 0
    for col in range(len(a[0])):
        piv = next((r for r in range(row, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = 1 / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for r in range(len(a)):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
        if row == len(a):
            break
    return pivots


def solve_weights(rows: Sequence[Sequence[int]]) -> WeightSystem:
    """Recover the weight system from the exponent rows of a polynomial.

    Each row (m_0, ..., m_n) of a monomial z^m imposes
    sum_j m_j * w_j = d.  The homogeneous system in (w, d) must have a
    one dimensional kernel; the primitive positive representative is
    returned.  Raises RankDeficient when the kernel has dimension > 1
    and NoPositiveSolution when no strictly positive solution exists.
    """
    mat = [list(r) for r in rows]
    if not mat:
        raise InvalidInput("empty monomial matrix")
    nvars = len(mat[0])
    if nvars < 2:
        raise InvalidInput("need at least two variables")
    if any(len(r) != nvars for r in mat):
        raise InvalidInput("ragged monomial matrix")
    if any(x < 0 for r in mat for x in r):
        raise InvalidInput("negative exponent")
    if any(all(x == 0 for x in r) for r in mat):
        raise InvalidInput("zero monomial row")

    ncols = nvars + 1
    a = [[Fraction(x) for x in r] + [Fraction(-1)] for r in mat]
    pivots = row_reduce(a)

    free = [c for c in range(ncols) if c not in pivots]
    if len(free) == 0:
        raise NoPositiveSolution("only the zero solution")
    if len(free) > 1:
        raise RankDeficient("solution space has dimension %d" % len(free))

    # Kernel vector: free column set to 1, pivots back substituted.
    fcol = free[0]
    vec = [Fraction(0)] * ncols
    vec[fcol] = Fraction(1)
    for r, col in enumerate(pivots):
        vec[col] = -a[r][fcol]

    if vec[-1] < 0:
        vec = [-x for x in vec]
    if vec[-1] == 0 or any(x <= 0 for x in vec[:-1]):
        raise NoPositiveSolution("kernel vector is not strictly positive")

    # clear denominators; the constructor divides out the weight gcd,
    # which always divides d = m.w here
    denom = lcm(*(x.denominator for x in vec))
    ints = [int(x * denom) for x in vec]
    return WeightSystem(tuple(ints[:-1]), ints[-1])


def solve_cost(rows: Sequence[Sequence[int]]) -> int:
    """Budget estimate of solve_weights: the entry updates of its
    Gauss-Jordan elimination, rows x cols x min(rows, cols), where cols
    counts the degree column beside the nvars exponent columns."""
    if not rows:
        return 0
    nrows, ncols = len(rows), len(rows[0]) + 1
    return nrows * ncols * min(nrows, ncols)


def count_monomials(ws: WeightSystem) -> int:
    """Number of monomials of weighted degree d.

    Counts nonnegative integer vectors m with sum m_j * w_j = d by the
    usual coin counting recurrence, one pass per variable.
    """
    d = ws.degree
    table = [0] * (d + 1)
    table[0] = 1
    for w in ws.weights:
        for t in range(w, d + 1):
            table[t] += table[t - w]
    return table[d]


def _with_generator(table: list[int], a: int) -> list[int]:
    """The shortest-residue table of a numerical semigroup, grown by the
    generator a (Boecker-Liptak round robin).  table[r] is the least
    element congruent to r modulo len(table), the smallest generator;
    an unreached class holds a sentinel above every queried value."""
    m = len(table)
    table = table[:]
    g = gcd(a, m)
    for p in range(g):
        # one turn round the class of p mod g, from its least entry
        r = min(range(p, m, g), key=table.__getitem__)
        best = table[r]
        for _ in range(m // g - 1):
            r = (r + a) % m
            best = min(best + a, table[r])
            table[r] = best
    return table


def is_quasi_smooth(ws: WeightSystem) -> bool:
    """Whether the general polynomial of the weight system has an
    isolated singularity, so a link (Kreuzer-Skarke, Iano-Fletcher
    2000 Thm 8.1): for every nonempty set I of variables, a monomial in
    z_I has degree d, or at least |I| distinct j outside I have a
    monomial z_I^M z_j of degree d with M nonzero.

    A set holding a variable whose weight divides d has z_i^{d/w_i}, so
    only the sets of the other variables are tried, none for a Fermat
    system such as every bp_link.  Membership of t in the semigroup of
    the weights of I is read off its shortest-residue table modulo the
    smallest of them, built once per set from the table of its prefix,
    so the cost is quasi_smooth_cost and does not grow with d."""
    d, weights = ws.degree, ws.weights
    rest = [i for i, w in enumerate(weights) if d % w]
    # (set, its table, the first position of rest that may extend it)
    stack = [((i,), [0] + [d + 1] * (weights[i] - 1), k + 1) for k, i in enumerate(rest)]
    while stack:
        members, table, after = stack.pop()
        m = len(table)
        if table[d % m] > d:
            hits = sum(
                1
                for j, w in enumerate(weights)
                if j not in members and 0 < d - w and table[(d - w) % m] <= d - w
            )
            if hits < len(members):
                return False
        for k in range(after, len(rest)):
            j = rest[k]
            stack.append((members + (j,), _with_generator(table, weights[j]), k + 1))
    return True


def quasi_smooth_cost(ws: WeightSystem) -> int:
    """Budget estimate of is_quasi_smooth: per set it tries, a table as
    long as its smallest weight and one test per variable.  With the
    weights that do not divide d sorted, the i-th is the smallest of
    2^(k-1-i) sets; 0 for a Fermat system."""
    rest = [w for w in ws.weights if ws.degree % w]
    k = len(rest)
    return sum((w + ws.nvars) << (k - 1 - i) for i, w in enumerate(rest))


def is_well_formed(ws: WeightSystem) -> bool:
    """Whether every three of the four weights are coprime.

    Defined for 5-dimensional links only (nvars = 4).  Well-formedness
    forces the degree-two homology of the link to be torsion free.
    """
    if ws.nvars != 4:
        raise DimensionUnsupported("well-formedness needs nvars = 4")
    return all(
        gcd(gcd(x, y), z) == 1
        for x, y, z in itertools.combinations(ws.weights, 3)
    )


def pi1_class(ws: WeightSystem) -> Pi1Class:
    """Fundamental group size for 3-dimensional links, by sign class."""
    if ws.nvars != 3:
        raise DimensionUnsupported("pi1 classification needs nvars = 3")
    return {
        SignClass.POSITIVE: Pi1Class.FINITE,
        SignClass.NULL: Pi1Class.INFINITE_NILPOTENT,
        SignClass.NEGATIVE: Pi1Class.INFINITE,
    }[classify_sign(ws)]


_E_SYSTEMS = {
    WeightSystem((3, 4, 6), 12): "E_6",
    WeightSystem((4, 6, 9), 18): "E_7",
    WeightSystem((6, 10, 15), 30): "E_8",
}


def ade_match(ws: WeightSystem) -> str | None:
    """Match a positive 3-dimensional weight system against the ADE table.

    The table rows are z_0^p + z_1^2 + z_2^2 (cyclic, label A_{p-1},
    weights (2,p,p)@2p so p = d // w_min), z_0^2 z_1 + z_1^m + z_2^2
    (binary dihedral, label D_m, m = d/2 >= 3, weights (m-1,2,m)@2m), and
    the three exceptional rows E_6, E_7, E_8.  Returns the label or None.
    """
    if ws.nvars != 3:
        raise DimensionUnsupported("ADE table needs nvars = 3")
    if classify_sign(ws) is not SignClass.POSITIVE:
        return None
    if ws in _E_SYSTEMS:
        return _E_SYSTEMS[ws]
    d = ws.degree
    p, m = d // ws.weights[0], d // 2
    if p >= 2 and ws == WeightSystem((2, p, p), 2 * p):
        return "A_%d" % (p - 1)
    if d % 2 == 0 and m >= 3 and ws == WeightSystem((m - 1, 2, m), d):
        return "D_%d" % m
    return None


def canonical_key(obj: WeightSystem | BPExponents) -> str:
    """Stable catalog key: sorted exponents for Brieskorn-Pham input,
    sorted primitive weights with degree otherwise."""
    if isinstance(obj, BPExponents):
        return bp_key(obj.exponents)
    return "w:%s@%d" % (",".join(map(str, obj.weights)), obj.degree)


def bp_key(exponents: Sequence[int]) -> str:
    """canonical_key of a Brieskorn-Pham exponent vector, read from the
    bare vector."""
    return "bp:" + ",".join(map(str, sorted(exponents)))


def key_nvars(key: str) -> int:
    """Variable count of a canonical key, bp: or w:...@d, without
    parsing it: one more than its commas."""
    return key.count(",") + 1


def reciprocal_sum(a: Sequence[int] | BPExponents) -> Fraction:
    """sum 1/a_i; the sign class of a BP link compares this against 1."""
    exps = _as_exponents(a).exponents
    return sum((Fraction(1, x) for x in exps), Fraction(0))


def _ints(text: str, sep: str = ",") -> tuple[int, ...]:
    try:
        return tuple(map(int, text.split(sep)))
    except ValueError:
        raise InvalidInput(
            "expected integers separated by %r, got %r" % (sep, text)
        ) from None


def parse_link(
    text: str, charge: Callable[[int], object] | None = None
) -> BPExponents | WeightSystem:
    """Parse the link grammar:

        bp:5,3,2                     Brieskorn-Pham exponents
        w:13,43,101,158@316          weight system with degree
        mono:[21,1,0,0;0,5,1,0;...]  monomial exponent rows (weights solved)
        kervaire:3,5@7               L(2, 2r_1, ..., 2r_2m, a), which is
                                     bp:2,6,10,7 (kervaire_exponents)

    Catalog keys are the canonical bp: and w: forms (canonical_key).
    When charge is given, a mono: argument's solve_cost is passed to it
    before the rows are solved.  Malformed text raises InvalidInput.
    """
    if text.startswith("bp:"):
        return BPExponents(_ints(text[3:]))
    if text.startswith("w:"):
        body, sep, deg = text[2:].partition("@")
        if not sep or "," in deg:
            raise InvalidInput("weight form is w:w0,w1,...@degree")
        return WeightSystem(_ints(body), _ints(deg)[0])
    if text.startswith("mono:"):
        body = text[5:]
        if not (body.startswith("[") and body.endswith("]")):
            raise InvalidInput("monomial form is mono:[r0;r1;...]")
        rows = [_ints(r) for r in body[1:-1].split(";") if r]
        if charge is not None:
            charge(solve_cost(rows))
        return solve_weights(rows)
    if text.startswith("kervaire:"):
        body, sep, a = text[9:].partition("@")
        if not sep or "," in a:
            raise InvalidInput("kervaire form is kervaire:r1,...,r2m@a")
        a = _ints(a)[0]  # before the body, whose error then comes second
        return kervaire_exponents(_ints(body), a)
    raise InvalidInput("unrecognized link %r (want bp:, w:, mono: or kervaire:)" % text)


def parse_bounds(text: str) -> dict[str, tuple[int, int]]:
    """Parse search bounds such as k=2:8,p=2:600 into {name: (lo, hi)}.
    Malformed text, or a name given twice, raises InvalidInput."""
    bounds = {}
    repeated = []
    for part in text.split(","):
        key, sep, span = part.partition("=")
        if not sep or span.count(":") != 1:
            raise InvalidInput("bounds look like k=2:8,p=2:600")
        key = key.strip()
        if key in bounds:
            repeated.append(key)
        bounds[key] = _ints(span, ":")
    if repeated:
        raise InvalidInput("bound %r given twice" % repeated[0])
    return bounds


__all__ = [
    "SignClass",
    "Pi1Class",
    "WeightSystem",
    "BPExponents",
    "kervaire_exponents",
    "bp_link",
    "classify_sign",
    "solve_weights",
    "solve_cost",
    "count_monomials",
    "is_quasi_smooth",
    "quasi_smooth_cost",
    "is_well_formed",
    "pi1_class",
    "ade_match",
    "canonical_key",
    "bp_key",
    "key_nvars",
    "reciprocal_sum",
    "parse_link",
    "parse_bounds",
]
