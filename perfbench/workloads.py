"""The four workloads: inputs made from the seed, one round of CLI calls,
and the checks of each output against `oracles` and `catgen`.

A workload runs whole rounds of the same calls; `Runner.call` times only
the in-process `linkatlas.cli.main` call, never the checks or what runs
between calls.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from fractions import Fraction
from math import gcd, lcm
from time import perf_counter

import oracles as orc
from catgen import CatalogModel

# largest lattice count (Prod(a_i - 1)) the oracle runs on one record
LATTICE_CAP = 4000


class Runner:
    """Runs CLI calls in process and keeps the per-call ledger."""

    def __init__(self, cli_main, between_calls=None):
        self.cli_main = cli_main
        self.between_calls = between_calls  # run after each call, untimed
        self.calls: list[tuple[str, float, bool]] = []  # kind, seconds, ok
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, kind, argv, check, known_fault=False):
        """Run `linkatlas <argv> --json`, time it, and check the payload.

        `check(payload)` returns None when the output is right, else a
        message.  A wrong answer from a call marked `known_fault` counts
        as failed; from any other call it also makes the run incorrect.
        """
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli_main(list(argv) + ["--json"])
        seconds = perf_counter() - t0
        if rc != 0:
            problem = "exit %s: %s" % (rc, err.getvalue().strip()[:200])
        else:
            payload = json.loads(out.getvalue())
            try:
                problem = check(payload)
            except (KeyError, TypeError, ValueError) as exc:
                problem = "malformed output: %r" % (exc,)
        self.attempted += 1
        self.calls.append((kind, seconds, problem is None))
        if problem is not None:
            self.failed += 1
            if not known_fault:
                self.problems.append("%s: %s" % (" ".join(argv), problem))
        if self.between_calls:
            self.between_calls()


def _first_problem(items):
    return next((p for p in items if p is not None), None)


def _bp_arg(exps) -> str:
    return "bp:" + ",".join(map(str, exps))


def _key(exps) -> str:
    return "bp:" + ",".join(map(str, sorted(exps)))


def _lattice_problem(exps, betti=None, plus_minus=None):
    """Compare a record's Betti number and signature pair with the
    lattice count; skipped (None) above LATTICE_CAP points."""
    if orc.lattice_cost(exps) > LATTICE_CAP:
        return None
    b, plus, minus = orc.lattice_counts(exps)
    if betti is not None and betti != b:
        return "%s: betti %s, lattice count %d" % (exps, betti, b)
    if plus_minus is not None and tuple(plus_minus) != (plus, minus):
        return "%s: signature pair %s, lattice count %s" % (exps, plus_minus, (plus, minus))
    return None


# --- sweep7 -----------------------------------------------------------


class Sweep7:
    """The 28-class exotic 7-sphere sweep, then a windowed sweep.

    Both inputs are fixed: the full sweep is the paper's computation, and
    the window must not depend on the seed, because it fails every time
    (the CLI passes only the upper bounds to `seven_sphere_sweep`).
    """

    latency_kinds = ("sweep",)
    FULL = ((2, 8), (2, 600))
    WINDOW = ((7, 8), (500, 600))

    def __init__(self, seed, tmp):
        self.seed = seed

    def prepare(self):
        self.expected = {
            bounds: orc.kkkk1p_count(*bounds[0], *bounds[1])
            for bounds in (self.FULL, self.WINDOW)
        }
        self.members = self.expected[self.FULL]

    @staticmethod
    def _argv(bounds):
        (k0, k1), (p0, p1) = bounds
        return [
            "search", "--family", "kkkk1p",
            "--bounds", "k=%d:%d,p=%d:%d" % (k0, k1, p0, p1),
            "--bp8-sweep", "--budget", "1000000000",
        ]

    def _check(self, bounds, payload, full):
        (k0, k1), (p0, p1) = bounds
        want = self.expected[bounds]
        if payload["examined"] != want:
            return "examined %d members, the bounds hold %d" % (payload["examined"], want)
        witnesses = payload["witnesses"]
        if payload["distinct_residues"] != len(witnesses):
            return "distinct_residues disagrees with the witness list"
        if full and sorted(map(int, witnesses)) != list(range(28)):
            return "residues found %s, want all 28" % sorted(map(int, witnesses))
        for res, exps in witnesses.items():
            res = int(res)
            k, p = exps[0], exps[4]
            if exps != [k, k, k, k + 1, p] or not (k0 <= k <= k1 and p0 <= p <= p1):
                return "witness %s is outside the family bounds" % exps
            if gcd(p, k) != 1 or gcd(p, k + 1) != 1:
                return "witness %s has p sharing a factor with k or k+1" % exps
            if full and orc.lattice_cost(exps) > LATTICE_CAP:
                return "witness %s too large for the lattice check" % exps
            if orc.lattice_cost(exps) <= LATTICE_CAP:
                b, plus, minus = orc.lattice_counts(exps)
                sig = plus - minus
                if b != 0 or sig % 8 or (sig // 8) % 28 != res:
                    return "witness %s: lattice count gives b=%d, sigma=%d, not residue %d" % (exps, b, sig, res)
            if exps[:4] == [2, 2, 2, 3] and orc.brieskorn_residue(p) not in (None, res):
                return "witness %s: Brieskorn's closed form gives %d" % (exps, orc.brieskorn_residue(p))
        return None

    def round(self, run: Runner):
        run.call("sweep", self._argv(self.FULL), lambda o: self._check(self.FULL, o, True))
        run.call(
            "window", self._argv(self.WINDOW),
            lambda o: self._check(self.WINDOW, o, False), known_fault=True,
        )

    def finish(self, run: Runner):
        pass


# --- bpbox3 -----------------------------------------------------------


class BpBox3:
    """A 3-exponent bp-box search appended into a fresh catalog.

    The seed permutes three spans of 23 values among a0..a2 and picks the
    records the lattice count checks; the member multiset, and so the
    work, is the same for every seed.
    """

    latency_kinds = ("search",)
    SPANS = ((2, 24), (2, 24), (3, 25))
    SAMPLE = 24

    def __init__(self, seed, tmp):
        self.seed = seed
        self.catalog = os.path.join(tmp, "box.jsonl")

    def prepare(self):
        self.rng = random.Random(self.seed)
        spans = list(self.SPANS)
        self.rng.shuffle(spans)
        self.spans = spans
        self.members = 1
        for lo, hi in spans:
            self.members *= hi - lo + 1
        self.distinct = orc.box_distinct_keys(spans)
        self.bounds = ",".join("a%d=%d:%d" % (i, lo, hi) for i, (lo, hi) in enumerate(spans))

    def _in_box(self, exps):
        return any(
            all(lo <= a <= hi for a, (lo, hi) in zip(perm, self.spans))
            for perm in itertools.permutations(exps)
        )

    def _check(self, payload):
        if payload["examined"] != self.members:
            return "examined %d, the box holds %d" % (payload["examined"], self.members)
        if payload["matched"] != self.distinct or len(payload["records"]) != self.distinct:
            return "matched %d, the box holds %d distinct keys" % (payload["matched"], self.distinct)
        if payload["appended"] != self.distinct or payload["skipped"] != 0:
            return "appended %d skipped %d into an empty catalog" % (payload["appended"], payload["skipped"])
        keys = [r["key"] for r in payload["records"]]
        if keys != sorted(set(keys)):
            return "records are not unique and sorted by key"
        rows = {}
        for row in payload["records"]:
            exps = tuple(int(x) for x in row["key"][3:].split(","))
            if row["key"] != _key(exps) or not self._in_box(exps):
                return "key %s is not a sorted box member" % row["key"]
            if row["sign"] != orc.bp_sign(exps):
                return "%s: sign %s, sum 1/a gives %s" % (row["key"], row["sign"], orc.bp_sign(exps))
            rows[exps] = row
        with open(self.catalog, encoding="utf-8") as fh:
            stored = [json.loads(line)["key"] for line in fh]
        if sorted(stored) != keys:
            return "catalog holds %d lines, not the %d matched keys" % (len(stored), len(keys))
        cheap = sorted(e for e in rows if orc.lattice_cost(e) <= LATTICE_CAP)
        for exps in self.rng.sample(cheap, self.SAMPLE):
            row = rows[exps]
            b, plus, minus = orc.lattice_counts(exps)
            if row["betti"] != b or row["signature"] != plus - minus:
                return "%s: betti %s signature %s, lattice count %d, %d" % (
                    row["key"], row["betti"], row["signature"], b, plus - minus)
            coprime = all(gcd(x, y) == 1 for x, y in itertools.combinations(exps, 2))
            want = "homology_sphere" if coprime else (
                "rational_homology_sphere" if b == 0 else "not_a_sphere")
            if row["sphere"] != want:
                return "%s: sphere %s, want %s" % (row["key"], row["sphere"], want)
        return None

    def round(self, run: Runner):
        if os.path.exists(self.catalog):
            os.remove(self.catalog)
        run.call(
            "search",
            ["search", "--family", "bp-box", "--bounds", self.bounds,
             "--append", "--catalog", self.catalog],
            self._check,
        )

    def finish(self, run: Runner):
        pass


# --- catalog1e5 -------------------------------------------------------


class Catalog1e5:
    """Queries interleaved with small appends on a ~10^5-record catalog."""

    latency_kinds = ("query", "append")
    BATCH_NEW = 10
    BATCH_DUP = 10

    def __init__(self, seed, tmp):
        self.seed = seed
        self.catalog = os.path.join(tmp, "atlas.jsonl")
        self.batch = os.path.join(tmp, "batch.jsonl")

    def prepare(self):
        self.model = CatalogModel(self.seed)
        self.model.write_catalog(self.catalog)
        rng = random.Random(self.seed)
        # one value per filter, fixed for the run; each pick has the same
        # expected row count whatever the seed
        self.queries = [
            ("nvars", 3),
            ("sign", "positive"),
            ("sphere", rng.choice(("homology_sphere", "standard_sphere"))),
            ("betti", rng.randint(1, 400)),
        ]

    def _query_check(self, field, value):
        def check(payload):
            want = self.model.counts[field][value]
            rows = payload["records"]
            if payload["matched"] != want or len(rows) != want:
                return "matched %d, the catalog holds %d" % (payload["matched"], want)
            keys = [r["key"] for r in rows]
            if keys != sorted(set(keys)):
                return "rows are not unique and sorted by key"
            return _first_problem(self.model.row_problem(r) for r in rows)
        return check

    def _append_check(self, new, dup):
        def check(payload):
            got = (payload["added"], payload["skipped"], payload["corrupt_input"], payload["corrupt_catalog"])
            if got != (new, dup, 0, 0):
                return "added/skipped/corrupt %s, want %s" % (got, (new, dup, 0, 0))
            return None
        return check

    def round(self, run: Runner):
        for field, value in self.queries:
            run.call(
                "query",
                ["catalog", "query", "--%s" % field, str(value), "--catalog", self.catalog],
                self._query_check(field, value),
            )
            new, dup = self.model.write_batch(self.batch, self.BATCH_NEW, self.BATCH_DUP)
            run.call(
                "append",
                ["catalog", "append", "--file", self.batch, "--catalog", self.catalog],
                self._append_check(new, dup),
            )

    def finish(self, run: Runner):
        with open(self.catalog, encoding="utf-8") as fh:
            keys = [json.loads(line)["key"] for line in fh]
        if len(keys) != len(self.model.rows) or set(keys) != set(self.model.rows):
            run.problems.append(
                "catalog holds %d lines (%d keys), want %d unique keys"
                % (len(keys), len(set(keys)), len(self.model.rows))
            )


# --- single_calls -----------------------------------------------------


def _frac_eq(text, want) -> bool:
    return Fraction(text) == Fraction(want)


class SingleCalls:
    """A seeded list of 107 single-link CLI calls, one of each below per
    round.  The seed picks parameters inside fixed cost tiers, so the
    mix of cheap and expensive calls is the same for every seed."""

    latency_kinds = None  # every call

    def __init__(self, seed, tmp):
        self.seed = seed

    def prepare(self):
        rng = self.rng = random.Random(self.seed)
        cases = []
        add = lambda kind, argv, check: cases.append((kind, argv, check))

        # classify: A/D/E hits, positive misses, null and negative links
        for tier in (5, 12, 24, 40, 60, 90):
            label = "A_%d" % (tier + rng.randint(0, 2) - 1)
            add("classify", ["classify", self._w(*orc.ade_weights(label))], self._classify(label))
        for tier in (4, 10, 20, 30, 40, 50):
            label = "D_%d" % (tier + rng.randint(0, 2))
            add("classify", ["classify", self._w(*orc.ade_weights(label))], self._classify(label))
        for label in ("E_6", "E_7", "E_8"):
            add("classify", ["classify", self._w(*orc.ade_weights(label))], self._classify(label))
        for tier in (12, 20, 30, 40, 50, 60):
            w, d = self._non_ade(tier)
            add("classify", ["classify", self._w(w, d)], self._classify(None))
        for exps in ((2, 3, 6), (2, 4, 4), (3, 3, 3)):  # null links
            add("classify", ["classify", _bp_arg(self._shuffled(exps))], self._classify(None))
        add("classify", ["classify", _bp_arg(self._shuffled((3, 4, rng.randint(5, 9))))], self._classify(None))
        add("classify", ["classify", _bp_arg(self._shuffled((2, 5, rng.randint(6, 9))))], self._classify(None))
        add("classify", ["classify", _bp_arg(self._shuffled((3, 5, rng.randint(5, 9))))], self._classify(None))

        for nvars in (3, 3, 3, 4, 4, 4, 5, 5):
            add("weights-solve", *self._weights_solve(nvars))
        for nvars in (3, 3, 3, 3, 4, 4, 4, 4):
            weights = [rng.randint(1, 6) for _ in range(nvars)]
            d = lcm(*weights) * rng.randint(1, 2)
            while _enum_cost(weights, d) > 20000:
                d //= 2
            add("monomials", ["monomials", self._w(weights, d)], self._monomials(weights, d))

        for nvars, hi in ((3, 12), (3, 12), (3, 12), (3, 12), (4, 7), (4, 7), (4, 7), (5, 5), (5, 5), (5, 5)):
            exps = self._capped(nvars, hi)
            add("betti", ["betti", _bp_arg(exps)], self._betti(exps))
        for nvars, hi in ((3, 14),) * 6 + ((5, 5),) * 4:
            exps = self._capped(nvars, hi)
            add("signature", ["signature", _bp_arg(exps)], self._signature(exps))
        for _ in range(6):
            p = 6 * rng.randint(1, 40) - 1
            add("casson", ["casson", _bp_arg(self._shuffled((p, 3, 2)))], self._casson(p))
        for _ in range(6):
            p = 6 * rng.randint(1, 50) - 1
            add("bp8", ["bp8", _bp_arg(self._shuffled((2, 2, 2, 3, p)))], self._bp8(p))
        for _ in range(3):
            p = 6 * rng.randint(1, 50) - 1
            add("sphere", ["sphere", _bp_arg(self._shuffled((2, 2, 2, 3, p)))], self._sphere7(p))
        for _ in range(3):
            exps = self._coprime_triple()
            add("sphere", ["sphere", _bp_arg(exps)], self._sphere3(exps))

        for mode in ("transform", "einstein", "lorentzian", "ew", "scalar"):
            for _ in range(3):
                add("eta", *self._eta(mode))
        for _ in range(3):
            a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            add("curvature", ["curvature", "berger", "--scale", str(a)], self._berger(a))
        for n in range(1, 9):
            add("curvature", ["curvature", "heisenberg", "--n", str(n)], self._heisenberg(n))

        rng.shuffle(cases)
        self.cases = cases

    # -- inputs --

    @staticmethod
    def _w(weights, degree) -> str:
        return "w:%s@%d" % (",".join(map(str, weights)), degree)

    def _shuffled(self, exps):
        exps = list(exps)
        self.rng.shuffle(exps)
        return tuple(exps)

    def _non_ade(self, degree):
        """A positive weight system of the given degree with three distinct
        weights, none of them 2 after normalizing: not in the ADE table."""
        exceptional = [orc.ade_weights(e) for e in ("E_6", "E_7", "E_8")]
        while True:
            w = tuple(sorted(self.rng.sample(range(3, degree), 3)))
            if gcd(*w) == 1 and sum(w) > degree and (w, degree) not in exceptional:
                return w, degree

    def _capped(self, nvars, hi):
        while True:
            exps = tuple(self.rng.randint(2, hi) for _ in range(nvars))
            if orc.lattice_cost(exps) <= LATTICE_CAP:
                return exps

    def _coprime_triple(self):
        while True:
            exps = tuple(self.rng.randint(2, 19) for _ in range(3))
            if all(gcd(x, y) == 1 for x, y in itertools.combinations(exps, 2)) \
                    and orc.lattice_cost(exps) <= LATTICE_CAP:
                return exps

    def _weights_solve(self, nvars):
        """Monomial rows built from known primitive weights: one pure
        power z_i^(d/w_i) per variable, plus a two-variable monomial."""
        rng = self.rng
        while True:
            weights = [rng.randint(1, 9) for _ in range(nvars)]
            if gcd(*weights) == 1:
                break
        d = lcm(*weights)
        rows = []
        for i, w in enumerate(weights):
            row = [0] * nvars
            row[i] = d // w
            rows.append(row)
        mixed = [
            (m0, m1)
            for m0 in range(1, d // weights[0] + 1)
            for m1 in range(1, d // weights[1] + 1)
            if m0 * weights[0] + m1 * weights[1] == d
        ]
        if mixed:
            m0, m1 = rng.choice(mixed)
            rows.append([m0, m1] + [0] * (nvars - 2))
        rng.shuffle(rows)
        text = "mono:[%s]" % ";".join(",".join(map(str, r)) for r in rows)
        want_w, want_d = orc.normalize_weights(weights, d)

        def check(o):
            if (tuple(o["weights"]), o["degree"]) != (want_w, want_d):
                return "weights %s@%s, built from %s@%d" % (o["weights"], o["degree"], want_w, want_d)
            if o["sign"] != orc.weights_sign(want_w, want_d):
                return "sign %s" % o["sign"]
            return None
        return ["weights-solve", text], check

    def _eta(self, mode):
        rng = self.rng
        n = rng.randint(1, 6)
        q = rng.randint(1, 7)
        if mode == "einstein":
            lam = Fraction(rng.randint(-2 * q + 1, 12 * q), q)  # lam > -2
        elif mode == "lorentzian":
            lam = Fraction(-rng.randint(2 * q + 1, 12 * q), q)  # lam < -2
        elif mode == "ew":
            lam = Fraction(rng.randint(2 * n * q + 1, (2 * n + 9) * q), q)  # nu < 0
        else:
            lam = Fraction(rng.randint(-12 * q, 12 * q), q)
        argv = ["eta", mode, "--n", str(n), "--lam=%s" % lam]
        scale = None
        if mode == "transform":
            scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            argv.append("--scale=%s" % scale)

        def check(o):
            if mode == "transform":
                lam2, nu2, squash = orc.eta_transform(n, lam, scale)
                ok = (_frac_eq(o["lam"], lam2) and _frac_eq(o["nu"], nu2) and o["squash"] == squash
                      and o["sign"] == orc.eta_sign(lam2) and _frac_eq(o["scale"], scale) and o["n"] == n)
            elif mode == "einstein":
                a = orc.eta_scale(n, lam)
                ok = (_frac_eq(o["scale"], a) and _frac_eq(o["lam"], 2 * n) and _frac_eq(o["nu"], 0)
                      and o["sign"] == "positive")
            elif mode == "lorentzian":
                a = orc.eta_scale(n, lam)
                ok = _frac_eq(o["scale"], a) and o["negative_scale"] is True
            elif mode == "ew":
                ok = _frac_eq(o["mu_squared"], orc.eta_ew_mu_squared(n, lam))
            else:
                ok = _frac_eq(o["scalar_curvature"], orc.eta_scalar(n, lam))
                if lam > -2:
                    ok = ok and _frac_eq(o["scalar_flat_scale"], lam + 2)
                else:
                    ok = ok and "scalar_flat_scale" not in o
            return None if ok else "eta %s n=%d lam=%s gave %s" % (mode, n, lam, o)
        return argv, check

    # -- checks --

    @staticmethod
    def _classify(label):
        def check(o):
            w, d = tuple(o["weights"]), o["degree"]
            sign = orc.weights_sign(w, d)
            pi1 = {"positive": "finite", "null": "infinite_nilpotent", "negative": "infinite"}[sign]
            if label is not None and (w, d) != orc.ade_weights(label):
                return "weights %s@%d are not those of %s" % (w, d, label)
            if o["sign"] != sign or o["pi1"] != pi1 or o["link_dim"] != 3:
                return "sign/pi1/dim %s %s %s for %s@%d" % (o["sign"], o["pi1"], o["link_dim"], w, d)
            if o["ade"] != label:
                return "ade %s, want %s" % (o["ade"], label)
            return None
        return check

    @staticmethod
    def _monomials(weights, d):
        want = orc.monomial_count(weights, d)
        return lambda o: None if o["count"] == want else "count %s, enumeration gives %d" % (o["count"], want)

    @staticmethod
    def _betti(exps):
        def check(o):
            if o["key"] != _key(exps) or o["link_dim"] != 2 * len(exps) - 3:
                return "key/link_dim %s %s" % (o["key"], o["link_dim"])
            if o["rational_homology_sphere"] != (o["middle_betti"] == 0):
                return "rational_homology_sphere disagrees with middle_betti"
            return _lattice_problem(exps, betti=o["middle_betti"])
        return check

    @staticmethod
    def _signature(exps):
        def check(o):
            if o["signature"] != o["positive"] - o["negative"]:
                return "signature is not positive - negative"
            return _lattice_problem(exps, plus_minus=(o["positive"], o["negative"]))
        return check

    @staticmethod
    def _casson(p):
        want = orc.casson_closed_form(p)
        return lambda o: None if o["casson"] == want else "casson(%d,3,2) = %s, want %d" % (p, o["casson"], want)

    @staticmethod
    def _bp8(p):
        want = orc.brieskorn_residue(p)
        def check(o):
            if (o["kind"], o["bp8_residue"]) != ("rational_homology_sphere", want):
                return "Sigma(2,2,2,3,%d): %s [%s], want residue %d" % (p, o["kind"], o["bp8_residue"], want)
            return None
        return check

    @staticmethod
    def _sphere7(p):
        want = orc.brieskorn_residue(p)
        def check(o):
            got = (o["key"], o["kind"], o["middle_betti"], o.get("bp8_residue"))
            exp = (_key((2, 2, 2, 3, p)), "rational_homology_sphere", 0, want)
            return None if got == exp else "sphere %s, want %s" % (got, exp)
        return check

    @staticmethod
    def _sphere3(exps):
        def check(o):
            if (o["key"], o["kind"], o["torsion"]) != (_key(exps), "homology_sphere", "torsion_free"):
                return "sphere %s %s %s for pairwise coprime %s" % (o["key"], o["kind"], o["torsion"], exps)
            return _lattice_problem(exps, betti=o["middle_betti"])
        return check

    @staticmethod
    def _berger(a):
        lam, nu = orc.berger_constants(a)
        def check(o):
            ok = (_frac_eq(o["lam"], lam) and _frac_eq(o["nu"], nu) and _frac_eq(o["residual"], 0)
                  and o["eta_einstein"] is True and o["agrees"] is True)
            return None if ok else "berger %s gave %s, want (%s, %s)" % (a, o, lam, nu)
        return check

    @staticmethod
    def _heisenberg(n):
        lam, nu = orc.heisenberg_constants(n)
        def check(o):
            ok = (o["n"] == n and _frac_eq(o["lam"], lam) and _frac_eq(o["nu"], nu)
                  and _frac_eq(o["residual"], 0) and _frac_eq(o["k_contact_residual"], 0)
                  and o["eta_einstein"] is True)
            return None if ok else "heisenberg %d gave %s, want (%s, %s)" % (n, o, lam, nu)
        return check

    def round(self, run: Runner):
        for kind, argv, check in self.cases:
            run.call(kind, argv, check)

    def finish(self, run: Runner):
        pass


def _enum_cost(weights, d) -> int:
    cost = 1
    for w in weights[:-1]:
        cost *= d // w + 1
    return cost


WORKLOADS = {
    "sweep7": Sweep7,
    "bpbox3": BpBox3,
    "catalog1e5": Catalog1e5,
    "single_calls": SingleCalls,
}
