"""In-memory spans around the calls linkatlas modules make to each other.

Each entry of WRAPS names a function the way its calling module reaches
it (`search.build_record` is the name `build_record` in linkatlas.search,
`cli.curvature.ricci_tensor` is `ricci_tensor` on the module cli calls
`curvature`) and the span label it records, `<home layer>.<function>`.
A name that no longer resolves is an error, so a refactor cannot turn a
layer's figures into silent zeros.

The tracer also puts a byte-counting `open` into linkatlas.catalog, so
the bytes the catalog module reads and writes are measured at the file
(what passes through each file's raw reads and writes), not inferred.
"""

from __future__ import annotations

import functools
import importlib
import io
from dataclasses import dataclass
from math import lcm
from time import perf_counter

WRAPS = {
    "cli.main": "cli.main",
    # search
    "cli.search.run_search": "search.run_search",
    "cli.search.seven_sphere_sweep": "search.seven_sphere_sweep",
    "search.check_budget": "search.check_budget",
    "search.record_cost": "catalog.record_cost",
    "search.build_record": "catalog.build_record",
    "search.kervaire_classify": "spheres.kervaire_classify",
    # catalog
    "cli.cat.build_record": "catalog.build_record",
    "cli.cat.catalog_append": "catalog.append",
    "cli.cat.catalog_query": "catalog.query",
    "catalog.read_catalog": "catalog.read",
    "catalog.betti": "betti.betti",
    "catalog.torsion_closed_form": "betti.torsion_closed_form",
    "catalog.brieskorn_signature": "spheres.brieskorn_signature",
    "catalog.bp_link": "links.bp_link",
    "catalog.classify_sign": "links.classify_sign",
    "catalog.canonical_key": "links.canonical_key",
    "catalog.is_well_formed": "links.is_well_formed",
    # betti
    "cli.betti_of": "betti.betti",
    "cli.torsion_closed_form": "betti.torsion_closed_form",
    "betti.betti": "betti.betti",
    "betti.bp_link": "links.bp_link",
    "betti.is_well_formed": "links.is_well_formed",
    # spheres
    "cli.spheres.brieskorn_signature": "spheres.brieskorn_signature",
    "cli.spheres.casson_invariant": "spheres.casson_invariant",
    "cli.spheres.bp8_class": "spheres.bp8_class",
    "cli.spheres.kervaire_classify": "spheres.kervaire_classify",
    "spheres.is_rational_homology_sphere": "betti.is_rational_homology_sphere",
    "spheres.bp_link": "links.bp_link",
    "spheres.classify_sign": "links.classify_sign",
    # links
    "cli.links.bp_link": "links.bp_link",
    "cli.links.classify_sign": "links.classify_sign",
    "cli.links.ade_match": "links.ade_match",
    "cli.links.solve_weights": "links.solve_weights",
    "cli.links.count_monomials": "links.count_monomials",
    "cli.links.pi1_class": "links.pi1_class",
    "cli.links.canonical_key": "links.canonical_key",
    "cli.links.is_well_formed": "links.is_well_formed",
    # eta
    "cli.eta.transverse_homothety": "eta.transverse_homothety",
    "cli.eta.einstein_scale": "eta.einstein_scale",
    "cli.eta.lorentzian_scale": "eta.lorentzian_scale",
    "cli.eta.squash_class": "eta.squash_class",
    "cli.eta.ew_mu_squared": "eta.ew_mu_squared",
    "cli.eta.scalar_curvature": "eta.scalar_curvature",
    "cli.eta.scalar_flat_scale": "eta.scalar_flat_scale",
    "cli.eta.heisenberg_alpha_squared": "eta.heisenberg_alpha_squared",
    # curvature
    "cli.curvature.heisenberg_algebra": "curvature.algebra_build",
    "cli.curvature.berger_sphere": "curvature.algebra_build",
    "cli.curvature.eta_fit": "curvature.eta_fit",
    "cli.curvature.ricci_tensor": "curvature.ricci",
}

# (name, unit, better) of every per-layer metric, in report order
METRICS = [
    ("cli.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("search.members", "count", "lower"),
    ("search.records_built", "count", "lower"),
    ("search.unique_ratio", "ratio", "higher"),
    ("search.cost_estimate", "count", "lower"),
    ("search.self_s", "s", "lower"),
    ("catalog.build_record.calls", "count", "lower"),
    ("catalog.build_record.self_s", "s", "lower"),
    ("catalog.read.s", "s", "lower"),
    ("catalog.read.records", "count", "lower"),
    ("catalog.append.s", "s", "lower"),
    ("catalog.append.bytes_read", "B", "lower"),
    ("catalog.append.bytes_written", "B", "lower"),
    ("catalog.query.s", "s", "lower"),
    ("catalog.query.records_scanned", "count", "lower"),
    ("betti.calls", "count", "lower"),
    ("betti.s", "s", "lower"),
    ("betti.us_per_call", "us", "lower"),
    ("spheres.signature3.calls", "count", "lower"),
    ("spheres.signature3.s", "s", "lower"),
    ("spheres.signature5.calls", "count", "lower"),
    ("spheres.signature5.s", "s", "lower"),
    ("spheres.hist_cells", "cells", "lower"),
    ("links.bp_link.s", "s", "lower"),
    ("links.classify_sign.s", "s", "lower"),
    ("links.ade_match.calls", "count", "lower"),
    ("links.ade_match.s", "s", "lower"),
    ("links.solve_weights.calls", "count", "lower"),
    ("links.solve_weights.s", "s", "lower"),
    ("curvature.algebra_build.s", "s", "lower"),
    ("curvature.ricci.s", "s", "lower"),
    ("curvature.eta_fit.self_s", "s", "lower"),
    ("curvature.algebra_build.d17_s", "s", "lower"),
    ("curvature.ricci.d17_s", "s", "lower"),
    ("eta.calls", "count", "lower"),
    ("eta.s", "s", "lower"),
    ("traced.run_rel", "x", "lower"),
]


@dataclass
class Span:
    label: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top
    note: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _exponents(obj):
    return tuple(getattr(obj, "exponents", obj))


class _CountingFileIO(io.FileIO):
    """A raw file that adds what it reads and writes to a ByteCounter."""

    def __init__(self, file, mode, counter):
        super().__init__(file, mode)
        self.counter = counter

    def readinto(self, buffer):
        n = super().readinto(buffer)
        self.counter.read += n or 0
        return n

    def write(self, data):
        n = super().write(data)
        self.counter.written += n or 0
        return n


class ByteCounter:
    """Bytes read and written through the files `open` returns."""

    def __init__(self):
        self.read = 0
        self.written = 0

    def open(self, file, mode="r", *, encoding=None, errors=None, newline=None):
        """builtins.open for the text read, write and append modes the
        catalog uses, over a raw file that counts what passes through it."""
        if "+" in mode or "b" in mode:
            raise ValueError("counting open does not handle mode %r" % mode)
        raw = _CountingFileIO(file, mode.replace("t", ""), self)
        buffered = io.BufferedReader(raw) if "r" in mode else io.BufferedWriter(raw)
        return io.TextIOWrapper(buffered, encoding=encoding, errors=errors, newline=newline)

    def totals(self) -> tuple[int, int]:
        return self.read, self.written


# what a span keeps besides its times: label -> note(args, result, before)
_NOTES = {
    "search.check_budget": lambda a, r, b: (len(a[0]), r),
    "catalog.build_record": lambda a, r, b: r.key,
    "catalog.read": lambda a, r, b: len(r.records),
    "spheres.brieskorn_signature": lambda a, r, b: _exponents(a[0]),
    "curvature.algebra_build": lambda a, r, b: r.dim,
    "curvature.ricci": lambda a, r, b: a[0].dim,
}


def _resolve(path: str):
    """(owner object, attribute) for a WRAPS path under linkatlas."""
    *owner_path, attr = path.split(".")
    owner = importlib.import_module("linkatlas." + owner_path[0])
    for part in owner_path[1:]:
        owner = getattr(owner, part)
    if not hasattr(owner, attr):
        raise LookupError("traced name %s no longer exists" % path)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.bytes = ByteCounter()

    def install(self) -> None:
        catalog = importlib.import_module("linkatlas.catalog")
        catalog.open = self.bytes.open
        for path, label in WRAPS.items():
            owner, attr = _resolve(path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(label, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        del importlib.import_module("linkatlas.catalog").open

    def _wrap(self, label, fn):
        note = _NOTES.get(label)
        # an append notes the catalog bytes read and written inside it
        before = self.bytes.totals if label == "catalog.append" else None
        if before:
            note = lambda a, r, b: tuple(x - y for x, y in zip(self.bytes.totals(), b))
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before() if before else None
            index = len(spans)
            span = Span(label, 0.0, 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if note:
                span.note = note(args, result, state)
            return result

        return traced

    def take(self) -> list[Span]:
        """Spans recorded since the last take."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one set of spans (one round)."""
    children: dict[int, float] = {}
    for s in spans:
        if s.parent >= 0:
            children[s.parent] = children.get(s.parent, 0.0) + s.seconds

    def self_time(i, s):
        return s.seconds - children.get(i, 0.0)

    m = {name: 0 for name, _, _ in METRICS}
    search_keys: dict[int, list[str]] = {}
    for i, s in enumerate(spans):
        label = s.label
        parent = spans[s.parent].label if s.parent >= 0 else ""
        if label == "cli.main":
            m["cli.calls"] += 1
            m["cli.self_s"] += self_time(i, s)
        elif label in ("search.run_search", "search.seven_sphere_sweep"):
            m["search.self_s"] += self_time(i, s)
            search_keys.setdefault(i, [])
        elif label == "search.check_budget":
            members, cost = s.note
            m["search.members"] += members
            m["search.cost_estimate"] += cost
        elif label == "catalog.build_record":
            m["catalog.build_record.calls"] += 1
            m["catalog.build_record.self_s"] += self_time(i, s)
            if parent.startswith("search."):
                m["search.records_built"] += 1
                search_keys.setdefault(s.parent, []).append(s.note)
        elif label == "catalog.read":
            m["catalog.read.s"] += s.seconds
            m["catalog.read.records"] += s.note
            if parent == "catalog.query":
                m["catalog.query.records_scanned"] += s.note
        elif label == "catalog.append":
            m["catalog.append.s"] += s.seconds
            m["catalog.append.bytes_read"] += s.note[0]
            m["catalog.append.bytes_written"] += s.note[1]
        elif label == "catalog.query":
            m["catalog.query.s"] += s.seconds
        elif label == "betti.betti":
            m["betti.calls"] += 1
            m["betti.s"] += s.seconds
        elif label == "spheres.brieskorn_signature":
            exps = s.note
            group = "spheres.signature%d" % len(exps)
            if len(exps) in (3, 5):
                m[group + ".calls"] += 1
                m[group + ".s"] += s.seconds
            # histogram work of the current route: nvars passes over 2*lcm cells
            m["spheres.hist_cells"] += len(exps) * 2 * lcm(*exps)
        elif label in ("links.bp_link", "links.classify_sign"):
            m[label + ".s"] += s.seconds
        elif label in ("links.ade_match", "links.solve_weights"):
            m[label + ".calls"] += 1
            m[label + ".s"] += s.seconds
        elif label == "curvature.algebra_build":
            m["curvature.algebra_build.s"] += s.seconds
            if s.note == 17:
                m["curvature.algebra_build.d17_s"] += s.seconds
        elif label == "curvature.ricci":
            m["curvature.ricci.s"] += s.seconds
            if s.note == 17:
                m["curvature.ricci.d17_s"] += s.seconds
        elif label == "curvature.eta_fit":
            m["curvature.eta_fit.self_s"] += self_time(i, s)
        if label.startswith("eta.") and not parent.startswith("eta."):
            m["eta.calls"] += 1
            m["eta.s"] += s.seconds
    built = sum(len(keys) for keys in search_keys.values())
    distinct = sum(len(set(keys)) for keys in search_keys.values())
    m["search.unique_ratio"] = distinct / built if built else 0
    m["betti.us_per_call"] = 1e6 * m["betti.s"] / m["betti.calls"] if m["betti.calls"] else 0
    return m
