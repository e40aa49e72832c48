"""Timing wrappers installed on qhaar's public functions from outside.

Nothing under src/ changes: `install` replaces module attributes with
wrappers, including names another module imported (for example
`freelimit.enumerate_nc_pairings`), by scanning every loaded qhaar module
for the original function object.

Each traced call records a span (id, name, start, end, parent id), kept in
memory and written once by `Tracer.dump`.  A layer's self time is its span
duration minus the time its child spans cover.  Calls that hit a cache
(`enumerate_nc_pairings`, `loop_matrix` and `weingarten_table` with a key
already seen) get a count only and no span, which keeps tracing cheap on
the hot paths.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []  # (span id, name, start, end, parent id)
        self._stack = [[0, 0.0]]  # [span id, time covered by child spans]
        self._next_id = 1
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: dict = {}
        self.seen: defaultdict = defaultdict(set)

    def wrap(self, name: str, fn, key=None, after=None):
        """Wrapper recording a span per call of `fn`.

        `key(*args, **kwargs)` names a cached result: a call whose key was
        seen before only counts.  `after(result, args, kwargs)` runs after
        each spanned call, for counters read from arguments or results.
        """
        stack, spans, calls = self._stack, self.spans, self.calls
        total_s, self_s = self.total_s, self.self_s
        seen = self.seen[name]

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if key is not None:
                k = key(*args, **kwargs)
                if k in seen:
                    return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                d = t1 - t0
                parent[1] += d
                total_s[name] += d
                self_s[name] += d - frame[1]
                spans.append((sid, name, t0, t1, parent[0]))
            if key is not None:
                seen.add(k)
            if after is not None:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def record_max(self, name: str, value):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def dump(self, path: str):
        """Write every span as one JSON line, tagged with the run id."""
        with open(path, "w") as f:
            for sid, name, t0, t1, parent in self.spans:
                f.write(json.dumps({"run": self.run_id, "id": sid, "name": name,
                                    "start": t0, "end": t1, "parent": parent}) + "\n")


def _replace(orig, new):
    """Point every qhaar module attribute holding `orig` at `new`."""
    hits = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "qhaar" or modname.startswith("qhaar.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)
                hits += 1
    if not hits:
        raise RuntimeError(f"{orig!r} is not bound in any qhaar module")


def _pattern_key(k, N=None, pattern=None, *args, **kwargs):
    return (k, N, None if pattern is None else tuple(pattern))


def install(tracer: Tracer):
    """Install the wrappers for the rest of the process."""
    from qhaar import cli, exactla, freelimit, ncpoly, pairings, qnum, rapid_decay, weingarten

    def patch(name, owner, attr, **kw):
        orig = getattr(owner, attr)
        _replace(orig, tracer.wrap(name, orig, **kw))

    patch("pairings.enumerate_nc_pairings", pairings, "enumerate_nc_pairings",
          key=lambda k: k)
    patch("pairings.enumerate_colored_nc_pairings", pairings, "enumerate_colored_nc_pairings")
    patch("pairings.loop_matrix", pairings, "loop_matrix",
          key=lambda k, pattern=None: (k, pattern))
    patch("pairings.gram_matrix", pairings, "gram_matrix")

    patch("exactla.bilinear_solve", exactla, "bilinear_solve")
    patch("exactla.rational_reconstruct", exactla, "rational_reconstruct")
    patch("exactla.fraction_free_inverse", exactla, "fraction_free_inverse",
          after=lambda res, a, kw: tracer.record_max("exactla.fraction_free_inverse.det_bits",
                                                     abs(res[1]).bit_length()))
    prime_stream = exactla.prime_stream

    def counted_prime_stream(*args, **kwargs):
        for p in prime_stream(*args, **kwargs):
            tracer.counts["exactla.primes_drawn"] += 1
            yield p

    _replace(prime_stream, counted_prime_stream)

    unique = set()

    def moment_key(res, args, kwargs):
        word = args[0]
        unique.add((word if isinstance(word, weingarten.GeneratorWord) else tuple(word),
                    args[1] if len(args) > 1 else kwargs.get("N")))
        tracer.counts["weingarten.haar_moment.distinct"] = len(unique)

    patch("weingarten.weingarten_table", weingarten, "weingarten_table", key=_pattern_key)
    patch("weingarten.haar_moment", weingarten, "haar_moment", after=moment_key)

    def count_terms(res, args, kwargs):
        tracer.counts["ncpoly.state_eval.terms"] += len(args[0].terms)

    patch("ncpoly.parse_poly", ncpoly, "parse_poly")
    patch("ncpoly.state_eval", ncpoly, "state_eval", after=count_terms)
    patch("ncpoly.lp_norm", ncpoly, "lp_norm")
    ncpoly.NCPolynomial.__pow__ = tracer.wrap("ncpoly.expand", ncpoly.NCPolynomial.__pow__)

    patch("freelimit.semicircular_moment", freelimit, "semicircular_moment")
    patch("freelimit.circular_moment", freelimit, "circular_moment")

    def count_points(res, args, kwargs):
        t = res.truncation
        tracer.counts["rapid_decay.dn_constant.points"] += (t.nk_max + 2) ** 2 * (t.r_max + 1)

    patch("rapid_decay.dn_constant", rapid_decay, "dn_constant", after=count_points)
    patch("rapid_decay.rigorous_upper_bound", rapid_decay, "rigorous_upper_bound")
    patch("qnum.q_of_N", qnum, "q_of_N")

    patch("cli.main", cli, "main")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures since `install`, by metric name, as (value, unit)."""
    from qhaar import pairings

    T, S, C, K = tracer.total_s, tracer.self_s, tracer.calls, tracer.counts
    drawn, used = K["exactla.primes_drawn"], C["exactla.rational_reconstruct"]
    tables, inversions = C["weingarten.weingarten_table"], C["exactla.fraction_free_inverse"]
    moments = C["weingarten.haar_moment"]
    return {
        "pairings.loop_matrix.s": (T["pairings.loop_matrix"], "s"),
        "pairings.loop_matrix.misses": (
            pairings.loop_matrix.__wrapped__.cache_info().misses, "count"),
        "pairings.enumerate_nc_pairings.calls": (C["pairings.enumerate_nc_pairings"], "count"),
        "pairings.gram_matrix.s": (T["pairings.gram_matrix"], "s"),
        "exactla.bilinear_solve.s": (T["exactla.bilinear_solve"], "s"),
        "exactla.bilinear_solve.calls": (C["exactla.bilinear_solve"], "count"),
        "exactla.primes_drawn": (drawn, "count"),
        "exactla.primes_used": (used, "count"),
        "exactla.prime_yield": (used / drawn if drawn else 0.0, "ratio"),
        "exactla.s_per_prime": (T["exactla.bilinear_solve"] / drawn if drawn else 0.0, "s"),
        "exactla.rational_reconstruct.s": (T["exactla.rational_reconstruct"], "s"),
        "exactla.fraction_free_inverse.s": (T["exactla.fraction_free_inverse"], "s"),
        "exactla.fraction_free_inverse.calls": (inversions, "count"),
        "exactla.fraction_free_inverse.det_bits": (
            tracer.maxima.get("exactla.fraction_free_inverse.det_bits", 0), "bits"),
        "weingarten.weingarten_table.calls": (tables, "count"),
        "weingarten.table_hit_ratio": (1 - inversions / tables if tables else 0.0, "ratio"),
        "weingarten.haar_moment.calls": (moments, "count"),
        "weingarten.haar_moment.self_s": (S["weingarten.haar_moment"], "s"),
        "weingarten.haar_moment.unique_ratio": (
            K["weingarten.haar_moment.distinct"] / moments if moments else 0.0, "ratio"),
        "ncpoly.expand.s": (T["ncpoly.expand"], "s"),
        "ncpoly.state_eval.self_s": (S["ncpoly.state_eval"], "s"),
        "ncpoly.state_eval.terms": (K["ncpoly.state_eval.terms"], "count"),
        "ncpoly.lp_norm.calls": (C["ncpoly.lp_norm"], "count"),
        "ncpoly.parse_poly.s": (T["ncpoly.parse_poly"], "s"),
        "freelimit.semicircular_moment.s": (T["freelimit.semicircular_moment"], "s"),
        "freelimit.semicircular_moment.calls": (C["freelimit.semicircular_moment"], "count"),
        "freelimit.circular_moment.s": (T["freelimit.circular_moment"], "s"),
        "freelimit.circular_moment.calls": (C["freelimit.circular_moment"], "count"),
        "rapid_decay.dn_constant.s": (T["rapid_decay.dn_constant"], "s"),
        "rapid_decay.dn_constant.points": (K["rapid_decay.dn_constant.points"], "count"),
        "rapid_decay.rigorous_upper_bound.s": (T["rapid_decay.rigorous_upper_bound"], "s"),
        "rapid_decay.rigorous_upper_bound.calls": (C["rapid_decay.rigorous_upper_bound"],
                                                   "count"),
        "qnum.q_of_N.s": (T["qnum.q_of_N"], "s"),
        "cli.main.self_s": (S["cli.main"], "s"),
    }
