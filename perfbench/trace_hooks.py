"""Spans and counts recorded at the boundaries of finsum's public functions.

A traced worker wraps the engine's functions from outside, after import and
before any work.  A spanned function gets one span per outermost call; calls
it makes to itself, directly or through other wrapped functions of the same
name, are only counted.  A span's self time is its duration minus the time
of the spans opened inside it.  Hot functions (field arithmetic, Fraction
construction) are counted, not spanned.  Everything stays in memory until
the worker reports it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# spans whose individual records are kept, with their parent span
KEPT = frozenset({"cli.main", "corpus.run_entry", "corpus.load", "beta.transform",
                  "beta.verify_closed", "polyverify.expand_side"})


class Tracer:
    def __init__(self):
        self.stats = {}       # name -> [outer calls, all calls, total s, self s, active]
        self.counts = {}
        self.records = []     # (name, start, end, parent name)
        self._stack = []      # open spans: [child time, name]
        self._undo = []

    # -- wrapping -----------------------------------------------------------

    def _patch(self, owner, attr, make):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, make(getattr(owner, attr)))

    def span(self, name, owner, attr, wrap=None):
        state = self.stats.setdefault(name, [0, 0, 0.0, 0.0, False])
        stack = self._stack
        records = self.records
        keep = name in KEPT
        clock = time.perf_counter

        def make(fn):
            def traced(*args, **kwargs):
                state[1] += 1
                if state[4]:
                    return fn(*args, **kwargs)
                state[4] = True
                state[0] += 1
                frame = [0.0, name]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    state[4] = False
                    duration = end - start
                    state[2] += duration
                    state[3] += duration - frame[0]
                    if stack:
                        stack[-1][0] += duration
                    if keep:
                        records.append((name, start, end, stack[-1][1] if stack else None))
            return wrap(traced) if wrap else traced

        self._patch(owner, attr, make)

    def count(self, name, owner, attr, wrap=None):
        counts = self.counts
        counts.setdefault(name, 0)

        def make(fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrap(counted) if wrap else counted

        self._patch(owner, attr, make)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- the engine's boundaries -------------------------------------------

    def install(self):
        """Wrap every boundary the per-layer metrics read.  Each module-level
        alias of a wrapped function is wrapped too, so calls through either
        name are seen."""
        from finsum import beta, cli, corpus, dsl, field, model, polyverify, special

        self.span("cli.main", cli, "main")
        self.span("corpus.run_entry", corpus, "run_entry")
        self.span("corpus.load", corpus, "load_entries")
        self.span("corpus.load", corpus, "load_entry")
        for owner in (model, corpus, cli):
            self.span("model.load_identity", owner, "load_identity")
        self.span("dsl.parse", dsl, "parse")
        self.span("dsl.eval_scalar", dsl, "eval_scalar")
        for attr in ("beta_transform", "differentiate", "central_transform_v",
                     "central_transform_uv", "normalized_for_beta"):
            self.span("beta.transform", beta, attr)
        self.span("beta.verify_closed", beta, "verify_closed")
        self.span("beta.eval_term", beta, "eval_term")
        self.span("special.gen_binom", special, "gen_binom")
        self.span("special.harmonic", special, "harmonic")
        self.count("special.gamma_half.calls", special, "gamma_half")
        self.span("polyverify.expand_side", polyverify, "expand_side")
        self.span("polyverify.densepoly_mul", polyverify.DensePoly, "__mul__")
        self.count("polyverify.binomial_power.calls", polyverify, "binomial_power")
        if hasattr(beta, "_eval_memo"):
            self.count("beta.memo.lookups", beta, "_eval_memo")
        for attr in ("__add__", "__radd__"):
            self.count("field.symconst.add", field.SymConst, attr)
        for attr in ("__mul__", "__rmul__"):
            self.count("field.symconst.mul", field.SymConst, attr)
        self._count_symconst_new(field.SymConst)
        self.count("fractions.new", Fraction, "__new__", wrap=staticmethod)
        self._cache_sizes_before = self.cache_sizes(special, beta)

    def _count_symconst_new(self, cls):
        counts = self.counts
        counts["field.symconst.new"] = 0
        counts["field.symconst.rational"] = 0

        def make(init):
            def counted_init(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                counts["field.symconst.new"] += 1
                terms = obj.terms
                if not terms or (len(terms) == 1 and (0, 0) in terms):
                    counts["field.symconst.rational"] += 1
            return counted_init

        self._patch(cls, "__init__", make)

    @staticmethod
    def cache_sizes(special, beta):
        """Entries held by the engine's caches; a cache that no longer exists
        is left out rather than reported as empty."""
        sizes = {}
        for name in ("_binom_cache", "_harmonic_cache", "_gamma_cache"):
            cache = getattr(special, name, None)
            if cache is not None:
                sizes[name] = len(cache)
        memo = getattr(beta, "_expr_memo", None)
        if memo is not None:
            sizes["_expr_memo"] = sum(len(entry[2]) for entry in memo.values())
        return sizes

    # -- report ---------------------------------------------------------------

    def report(self):
        """Per-layer metrics of this process, as plain numbers."""
        from finsum import beta, special

        self.uninstall()
        out = {}

        def st(name):
            return self.stats.get(name, [0, 0, 0.0, 0.0, False])

        out["cli.main.self_s"] = st("cli.main")[3]
        out["corpus.run_entry.self_s"] = st("corpus.run_entry")[3]
        out["corpus.load_s"] = st("corpus.load")[2]
        out["model.load_identity_s"] = st("model.load_identity")[2]
        out["dsl.parse_s"] = st("dsl.parse")[2]
        out["dsl.eval_scalar.calls"] = st("dsl.eval_scalar")[0]
        out["dsl.eval_scalar.nodes"] = st("dsl.eval_scalar")[1]
        out["dsl.eval_scalar.self_s"] = st("dsl.eval_scalar")[3]
        out["beta.transform_s"] = st("beta.transform")[2]
        out["beta.eval_term.calls"] = st("beta.eval_term")[1]
        out["beta.eval_term.self_s"] = st("beta.eval_term")[3]
        out["special.gen_binom.calls"] = st("special.gen_binom")[1]
        out["special.gen_binom.self_s"] = st("special.gen_binom")[3]
        out["special.harmonic.calls"] = st("special.harmonic")[1]
        out["special.harmonic.self_s"] = st("special.harmonic")[3]
        out["special.gamma_half.calls"] = self.counts["special.gamma_half.calls"]
        out["polyverify.expand_side.self_s"] = st("polyverify.expand_side")[3]
        out["polyverify.densepoly_mul.calls"] = st("polyverify.densepoly_mul")[1]
        out["polyverify.densepoly_mul.self_s"] = st("polyverify.densepoly_mul")[3]
        out["polyverify.binomial_power.calls"] = self.counts["polyverify.binomial_power.calls"]
        out["field.symconst.new"] = self.counts["field.symconst.new"]
        out["field.symconst.rational"] = self.counts["field.symconst.rational"]
        out["field.symconst.mul"] = self.counts["field.symconst.mul"]
        out["field.symconst.add"] = self.counts["field.symconst.add"]
        out["fractions.new"] = self.counts["fractions.new"]

        before = self._cache_sizes_before
        after = self.cache_sizes(special, beta)
        special_caches = [n for n in ("_binom_cache", "_harmonic_cache", "_gamma_cache") if n in after]
        if special_caches:
            out["special.cache_entries"] = sum(after[n] for n in special_caches)
        if "_binom_cache" in after:
            out["special.gen_binom.misses"] = after["_binom_cache"] - before["_binom_cache"]
        if "_expr_memo" in after and "beta.memo.lookups" in self.counts:
            lookups = self.counts["beta.memo.lookups"]
            stored = after["_expr_memo"] - before["_expr_memo"]
            out["beta.memo.lookups"] = lookups
            out["beta.memo.size"] = after["_expr_memo"]
            out["beta.memo.hits"] = lookups - stored
        return out
