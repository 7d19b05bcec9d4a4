"""In-memory span and counter recorder for the traced benchmark run.

Each wrapper is installed where its function is looked up: on the
module that imported a function by name (`cli.verify_hopf`,
`fusion.solve_in_span`) or on the class of a method (`CycNum.__mul__`).
Nothing in src/ changes.  A layer's self time is its span's duration
minus the time its child spans cover.  Spans of the coarse layers are
kept in memory and written out once, at the end; the fine layers
(CycNum ops, structure maps, cocycle evaluations) only aggregate.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

# Every per-layer metric the traced run reports: name -> unit.
# The cli.*_s and trace.overhead_frac entries come from run.py.
LAYER_METRICS = {
    **{
        f"cyclotomic.{op}.{m}": unit
        for op in ("mul", "add", "eq", "inv", "lift")
        for m, unit in (("count", "count"), ("self_s", "s"))
    },
    "cocycles.verify.self_s": "s",
    "cocycles.verify.instances": "count",
    "cocycles.eval.count": "count",
    "hopf.verify.self_s": "s",
    "hopf.verify.instances": "count",
    "hopf.verify_star.self_s": "s",
    "hopf.basis_mul.count": "count",
    "hopf.basis_mul.hit_ratio": "ratio",
    **{
        f"hopf.{op}.{m}": unit
        for op in ("mul", "comul", "antipode")
        for m, unit in (("count", "count"), ("self_s", "s"))
    },
    "hopf.mul.pair_hit_ratio": "ratio",
    "matched_pair.verify.self_s": "s",
    "matched_pair.verify.instances": "count",
    "matched_pair.orbit_of.count": "count",
    "reps.abelian.self_s": "s",
    "reps.dixon.self_s": "s",
    "reps.twisted.self_s": "s",
    "reps.tables.count": "count",
    "comodules.enumerate.self_s": "s",
    "comodules.character.count": "count",
    "comodules.character.miss_ratio": "ratio",
    "certs.solve_in_span.count": "count",
    "certs.solve_in_span.self_s": "s",
    "certs.solve_in_span.candidates": "count",
    "certs.direct_sum_check.self_s": "s",
    "certs.dimension_audit.self_s": "s",
    "fusion.decompose_product.count": "count",
    "fusion.decompose_product.self_s": "s",
    "fusion.row_cache.hit_ratio": "ratio",
    "fusion.dual_of.self_s": "s",
    "fusion.fs_indicator.self_s": "s",
    "fusion.verify_based_ring.self_s": "s",
    "config.build.self_s": "s",
    "presets.resolve.self_s": "s",
    "cli.emit.self_s": "s",
    "cli.verify_s": "s",
    "cli.query_s": "s",
    "cli.table_s": "s",
    "cli.simples_s": "s",
    "trace.overhead_frac": "ratio",
}


class Recorder:
    """Calls, self time and named counters per layer, plus coarse spans."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.spans: list = []  # [id, parent id, name, start, end]
        self._stack: list = [[0.0, -1]]  # frames: [child time, span id]

    def wrap(self, owner, attr, name, record=False, before=None, after=None, when=None):
        """Replace owner.attr by a span named `name`.

        before(*args) runs ahead of the call and after(result) behind it,
        both outside the span; their time counts as child time of the
        caller, so it is in no layer's self time.  Calls for which
        when(*args) is false pass straight through, unrecorded."""
        fn = getattr(owner, attr)
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return fn(*args, **kwargs)
            parent = stack[-1]
            if before is not None:
                hook = clock()
                before(*args, **kwargs)
                parent[0] += clock() - hook
            span_id = parent[1]
            if record:
                span_id = len(spans)
                spans.append([span_id, parent[1], name, 0.0, 0.0])
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[0] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
                if record:
                    spans[span_id][3] = start
                    spans[span_id][4] = start + elapsed
            if after is not None:
                hook = clock()
                after(result)
                parent[0] += clock() - hook
            return result

        setattr(owner, attr, wrapper)

    def count(self, owner, attr, name):
        """Replace owner.attr by a wrapper that only counts calls."""
        fn = getattr(owner, attr)
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def bump(self, name, by=1):
        self.counters[name] += by

    def instances(self, name):
        """An `after` hook adding up the "instances" of a VerifyReport."""

        def after(report):
            self.counters[name] += sum(c.instances for c in report.checks)

        return after

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"], "spans": self.spans}, fh)

    def metrics(self) -> dict:
        """The recorded LAYER_METRICS: `<layer>.count` is the layer's calls,
        `<layer>.self_s` its self time, the rest named counters and their
        ratios.  The cli.*_s and trace.* entries are left to run.py."""
        calls, self_s, ctr = self.calls, self.self_s, self.counters

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "reps.tables.count": ctr["reps.tables"],
            "hopf.basis_mul.hit_ratio": ratio(ctr["hopf.basis_mul.hits"], calls["hopf.basis_mul"]),
            "hopf.mul.pair_hit_ratio": ratio(ctr["hopf.mul.pair_hits"], ctr["hopf.mul.pairs"]),
            "comodules.character.miss_ratio": ratio(
                calls["comodules.irreducible_character"], calls["comodules.character"]
            ),
            "fusion.row_cache.hit_ratio": ratio(
                ctr["fusion.row_cache.hits"], calls["fusion.decompose_product"]
            ),
        }
        for name in LAYER_METRICS:
            layer, _, stat = name.rpartition(".")
            if name in out or layer in ("cli", "trace"):
                continue
            if stat == "count":
                out[name] = calls[layer]
            elif stat == "self_s":
                out[name] = self_s[layer]
            else:  # instances, candidates
                out[name] = ctr[name]
        return out


def install(rec: Recorder) -> None:
    """Wrap the public functions of every layer (imports bicrossed)."""
    from bicrossed import certs, cli, cocycles, comodules, cyclotomic, fusion, hopf, matched_pair, reps

    # L0: exact scalars.  A lift is counted only when the level changes.
    num = cyclotomic.CycNum
    for attr, name in (
        ("__mul__", "mul"),
        ("__rmul__", "mul"),
        ("__add__", "add"),
        ("__radd__", "add"),
        ("__eq__", "eq"),
        ("inv", "inv"),
    ):
        rec.wrap(num, attr, f"cyclotomic.{name}")
    rec.wrap(num, "lift", "cyclotomic.lift", when=lambda self, level: level != self.level)

    # L1: structure maps.
    def mul_pairs(H, a, b):
        partners = Counter(g2 for g2, _f2 in b.terms)
        act_left = H.ctx.act_left
        rec.bump("hopf.mul.pairs", len(a.terms) * len(b.terms))
        rec.bump("hopf.mul.pair_hits", sum(partners[act_left(g, f)] for g, f in a.terms))

    def basis_mul_hit(result):
        if result is not None:
            rec.bump("hopf.basis_mul.hits")

    Hopf = hopf.BicrossedHopf
    rec.wrap(Hopf, "mul", "hopf.mul", before=mul_pairs)
    rec.wrap(Hopf, "basis_mul", "hopf.basis_mul", after=basis_mul_hit)
    rec.wrap(Hopf, "comul", "hopf.comul")
    rec.wrap(Hopf, "antipode", "hopf.antipode")
    rec.count(cocycles.SigmaCocycle, "eval", "cocycles.eval")
    rec.count(cocycles.TauCocycle, "eval", "cocycles.eval")
    rec.wrap(matched_pair.MatchedPairCtx, "orbit_of", "matched_pair.orbit_of")

    # L2: verifiers, as the CLI looks them up.
    for attr, name in (
        ("verify_matched_pair", "matched_pair.verify"),
        ("verify_cocycles", "cocycles.verify"),
        ("verify_hopf", "hopf.verify"),
    ):
        rec.wrap(cli, attr, name, record=True, after=rec.instances(f"{name}.instances"))
    rec.wrap(cli, "verify_star", "hopf.verify_star", record=True)

    # L3: character tables and simple comodules.
    def table_request(*_args, **_kwargs):
        rec.bump("reps.tables")

    for attr, name in (
        ("abelian_char_table", "reps.abelian"),
        ("ordinary_char_table", "reps.ordinary"),
        ("twisted_char_table", "reps.twisted"),
    ):
        rec.wrap(comodules, attr, name, record=True, before=table_request)
    rec.wrap(reps, "abelian_char_table", "reps.abelian", record=True)
    rec.wrap(reps, "ordinary_char_table", "reps.ordinary", record=True)
    rec.wrap(reps, "dixon_char_table", "reps.dixon", record=True)
    rec.wrap(comodules.SimpleIndex, "enumerate", "comodules.enumerate", record=True)
    rec.wrap(comodules.SimpleIndex, "character", "comodules.character")
    rec.wrap(comodules, "irreducible_character", "comodules.irreducible_character")

    # L4: certificates and fusion.
    def candidates(basis, *_args, **_kwargs):
        rec.bump("certs.solve_in_span.candidates", len(basis))

    def row_cache_hit(ring, d1, d2, *_args, **_kwargs):
        if (d1.uid, d2.uid) in ring._row_cache:
            rec.bump("fusion.row_cache.hits")

    rec.wrap(fusion, "solve_in_span", "certs.solve_in_span", before=candidates)
    rec.wrap(cli, "direct_sum_check", "certs.direct_sum_check", record=True)
    rec.wrap(cli, "dimension_audit", "certs.dimension_audit", record=True)
    ring = fusion.FusionRing
    rec.wrap(ring, "decompose_product", "fusion.decompose_product", before=row_cache_hit)
    for name in ("dual_of", "fs_indicator", "verify_based_ring"):
        rec.wrap(ring, name, f"fusion.{name}", record=True)

    # L5: configs and the CLI.
    rec.wrap(cli, "resolve_preset", "presets.resolve", record=True)
    rec.wrap(cli, "load_config_file", "presets.resolve", record=True)
    rec.wrap(cli, "build_config", "config.build", record=True)
    rec.wrap(cli, "_emit", "cli.emit", record=True)
    for attr in dir(cli):
        if attr.startswith("cmd_"):
            rec.wrap(cli, attr, f"cli.{attr}", record=True)
