"""Run-time tracing of gaussorbits layer functions, from outside the package.

`Tracer.install` replaces module and class attributes of the package with
wrappers; callers inside the package look those attributes up at call
time, so nested calls are seen too.  Each wrapped call records one span
(name, start, end, parent span) and adds to per-name counts, total time
and self time (span time minus the time of its child spans).  Spans are
kept in memory up to a cap and written out by `write_spans`; the counts
cover every call.

A function missing from the package (renamed or removed by a later
change) is skipped and its metrics read zero.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

SPAN_CAP = 100_000

CLI_COMMANDS = (
    "table1", "table1-check", "appendix-g2", "appendix-f4", "appendix-e6",
    "appendix-e7", "appendix-e8", "ferus-verify-identities", "classify-so-xi",
    "classify-g2-short", "pairs-list", "pairs-list-malformed",
)

ALGEBRAS = ("G2", "F4", "E6", "E7", "E8")

# The per-layer metrics every traced run reports, with unit and direction.
PER_LAYER = (
    [("rootsys.build.calls", "count", "lower"),
     ("rootsys.build.cold_calls", "count", "lower"),
     ("rootsys.build.s", "s", "lower"),
     ("rootsys.reflect.calls", "count", "lower")]
    + [(f"orbits.classify.{s}", u, "lower")
       for s, u in (("calls", "count"), ("s", "s"), ("self_s", "s"))]
    + [(f"{f}.{s}", u, "lower")
       for f in ("orbits.resolve_orbit", "orbits.weyl_fold", "orbits.parallel_root",
                 "pairdb.orbit_dimension", "pairdb.PairFamily.instantiate")
       for s, u in (("calls", "count"), ("s", "s"))]
    + [(f"{f}.{s}", "count", d)
       for f in ("orbits.cond_a", "orbits.cond_b", "pairdb.restricted_system")
       for s, d in (("hits", "higher"), ("misses", "lower"))]
    + [("pairdb.restricted_system.calls", "count", "lower"),
       ("pairdb.restricted_system.s", "s", "lower"),
       ("pairdb.load_database.s", "s", "lower"),
       ("ferus.ferus.calls", "count", "lower"),
       ("ferus.ferus.s", "s", "lower"),
       ("ferus.ferus.k_scanned", "count", "lower")]
    + [(f"cayley.verify_appendix.{a}.s", "s", "lower") for a in ALGEBRAS]
    + [("cayley.restricted_from_projection.s", "s", "lower"),
       ("cayley.strongly_orthogonal.s", "s", "lower"),
       ("cayley.rootset_identities.s", "s", "lower"),
       ("cayley.ProjectionDatum.projected_class.calls", "count", "lower"),
       ("report.check_table1.s", "s", "lower"),
       ("report.table1_rows.s", "s", "lower"),
       ("report.render_table.calls", "count", "lower"),
       ("report.render_table.s", "s", "lower")]
    + [(f"cli.{c}.s", "s", "lower") for c in CLI_COMMANDS]
    + [("cli.import_s", "s", "lower"),
       ("trace.spans", "count", "lower"),
       ("trace.overhead_s", "s", "lower")]
)

# (module, attribute path, span name) of each function given a span.
SPANNED = (
    ("rootsys", "build", "rootsys.build"),
    ("orbits", "classify", "orbits.classify"),
    ("orbits", "resolve_orbit", "orbits.resolve_orbit"),
    ("orbits", "weyl_fold", "orbits.weyl_fold"),
    ("orbits", "parallel_root", "orbits.parallel_root"),
    ("pairdb", "orbit_dimension", "pairdb.orbit_dimension"),
    ("pairdb", "restricted_system", "pairdb.restricted_system"),
    ("pairdb", "PairFamily.instantiate", "pairdb.PairFamily.instantiate"),
    ("pairdb", "load_database", "pairdb.load_database"),
    ("ferus", "ferus", "ferus.ferus"),
    ("cayley", "verify_appendix", None),  # named per algebra
    ("cayley", "restricted_from_projection", "cayley.restricted_from_projection"),
    ("cayley", "strongly_orthogonal", "cayley.strongly_orthogonal"),
    ("cayley", "rootset_identities", "cayley.rootset_identities"),
    ("report", "check_table1", "report.check_table1"),
    ("report", "table1_rows", "report.table1_rows"),
    ("report", "render_table", "report.render_table"),
)

# Functions whose lru_cache statistics are reported as hits/misses.
CACHED = (
    ("orbits", "cond_a", "orbits.cond_a"),
    ("orbits", "cond_b", "orbits.cond_b"),
    ("pairdb", "restricted_system", "pairdb.restricted_system"),
)


def layer_modules() -> dict:
    """The package modules whose functions `Tracer.install` wraps, by name."""
    from gaussorbits import cayley, ferus, orbits, pairdb, report, rootsys

    return {"rootsys": rootsys, "orbits": orbits, "pairdb": pairdb,
            "ferus": ferus, "cayley": cayley, "report": report}


def _lookup(module, path: str):
    """(owner, attribute, value) for a dotted path, or None when missing."""
    owner = module
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class Tracer:
    """Wrappers, spans and counters for one traced process."""

    def __init__(self, trace_id: str = ""):
        self.trace_id = trace_id
        self.stack: list[list] = []  # [start, child time, span id]
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.extra: Counter = Counter()
        self.spans: list[tuple] = []
        self.next_id = 1
        self.build_depth = 0
        self.built: set = set()
        self._patches: list[tuple] = []
        self._cache_base: dict = {}

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name, on_result=None):
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name or f"cayley.verify_appendix.{args[0].rstype.label()}"
            span_id = self.next_id
            self.next_id += 1
            parent = stack[-1][2] if stack else 0
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                self.calls[span_name] += 1
                self.total[span_name] += dur
                self.self_time[span_name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, parent, span_name, frame[0], end))
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _build(self, fn):
        inner = self._span(fn, "rootsys.build", self._count_cold)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.build_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self.build_depth -= 1

        return wrapper

    def _count_cold(self, system):
        key = (system.rstype.family, system.rstype.rank)
        if key not in self.built:
            self.built.add(key)
            self.extra["rootsys.build.cold_calls"] += 1

    def _count(self, fn, name, skip_in_build=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not (skip_in_build and self.build_depth):
                self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Patch the layer functions of the given {name: module} mapping."""
        def ferus_result(cert):
            self.extra["ferus.ferus.k_scanned"] += cert.F

        for mod, path, name in SPANNED:
            found = _lookup(modules[mod], path)
            if found is None:
                continue
            owner, attr, fn = found
            if name == "rootsys.build":
                wrapper = self._build(fn)
            else:
                wrapper = self._span(fn, name, ferus_result if name == "ferus.ferus" else None)
            self._patch(owner, attr, fn, wrapper)
        for mod, path, name, skip in (
            ("rootsys", "reflect", "rootsys.reflect", True),
            ("cayley", "ProjectionDatum.projected_class",
             "cayley.ProjectionDatum.projected_class", False),
        ):
            found = _lookup(modules[mod], path)
            if found is not None:
                owner, attr, fn = found
                self._patch(owner, attr, fn, self._count(fn, name, skip))
        for mod, path, name in CACHED:
            fn = getattr(modules[mod], path, None)
            if not hasattr(fn, "cache_info"):
                fn = getattr(fn, "__wrapped__", None)
            if hasattr(fn, "cache_info"):
                self._cache_base[name] = (fn, fn.cache_info())

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        """Restore the original functions; counts and spans are kept."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for name, (fn, base) in self._cache_base.items():
            now = fn.cache_info()
            self.extra[f"{name}.hits"] += now.hits - base.hits
            self.extra[f"{name}.misses"] += now.misses - base.misses
        self._cache_base.clear()

    # -- results ------------------------------------------------------------

    def aggregates(self) -> dict[str, float]:
        """Per-layer figures by metric name (names absent here read zero)."""
        out: dict[str, float] = dict(self.extra)
        for name, calls in self.calls.items():
            out[f"{name}.calls"] = calls
            if name in self.total:
                out[f"{name}.s"] = self.total[name]
                out[f"{name}.self_s"] = self.self_time[name]
        out["trace.spans"] = self.next_id - 1
        return out

    def write_spans(self, path) -> None:
        """One JSON line per kept span: trace, id, parent, name, start, end."""
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps([self.trace_id, span_id, parent, name,
                                     round(start, 9), round(end, 9)]) + "\n")


def per_layer_metrics(figures: dict) -> dict[str, dict]:
    return {name: {"value": figures.get(name, 0), "unit": unit}
            for name, unit, _ in PER_LAYER}
