"""Spans around the engine's module functions, installed from outside.

The traced run replaces module and class attributes of the engine with
wrappers that record a span (name, start, end, parent span, context id,
phase) or bump a counter, and puts the originals back afterwards.  No
engine file is edited.  The hook table names its targets by module
attribute path; a target that no longer exists is reported ``absent``
instead of raising, so a refactor of the engine degrades the trace to
fewer layers rather than breaking the benchmark.  The untraced run never
calls ``install``.

A span's self time is its duration minus the time its direct child spans
cover; spans nest strictly because everything runs in one thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import weakref
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory span and counter store; written out once at exit."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index, context id, phase]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.ctx = None
        self.phase = None
        self._stack: list[int] = []

    def enter(self, name: str) -> int:
        i = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1,
                           self.ctx, self.phase])
        self._stack.append(i)
        return i

    def exit(self, i: int) -> None:
        self.spans[i][2] = perf_counter()
        self._stack.pop()

    def inside(self, names: set[str]) -> bool:
        """Whether an open span has one of these names."""
        return any(self.spans[j][0] in names for j in self._stack)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[f"{self.phase}:{name}"] += n

    def write(self, path: str, header: dict) -> None:
        """JSON lines: ``header`` plus the span field names, then one
        array per span."""
        with open(path, "w") as f:
            f.write(json.dumps({**header, "fields": [
                "name", "start", "end", "parent", "ctx", "phase"]}) + "\n")
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


# ------------------------------------------------------------ wrappers ----
def _span(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit(i)
        if after is not None:
            after(tracer, args, out)
        return out
    return wrapper


def _counter(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)
    return wrapper


def _first_per_instance(tracer: Tracer, name: str, fn, counter=None):
    """Span only the first call on each instance: the lazy load."""
    seen = weakref.WeakSet()

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        if self in seen:
            return fn(self, *args, **kwargs)
        seen.add(self)
        if counter:
            tracer.count(counter)
        i = tracer.enter(name)
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.exit(i)
    return wrapper


def _lru(tracer: Tracer, fn):
    """Hit/miss/eviction counts of ``cached_entry(key, build, ...)``: a
    call that invokes ``build`` is a miss."""
    @functools.wraps(fn)
    def wrapper(self, key, build, *args, **kwargs):
        missed = []

        def counted_build():
            missed.append(True)
            return build()

        cache = self.__dict__.get("_post_cache")
        before = len(cache) if cache is not None else 0
        out = fn(self, key, counted_build, *args, **kwargs)
        tracer.count("lru_misses" if missed else "lru_hits")
        cache = self.__dict__.get("_post_cache")
        if cache is None:
            tracer.count("lru_internals_absent")
        elif missed:
            tracer.count("lru_evictions",
                         before + (key in cache) - len(cache))
        return out
    return wrapper


def _elements(out) -> int:
    parts = out if isinstance(out, tuple) else (out,)
    return sum(p.size for p in parts if isinstance(p, np.ndarray))


def _count_tokens(tracer, args, out):
    tracer.count("tokens", len(out["codes"]))


def _count_decoded(tracer, args, out):
    tracer.count("decoded_elements", _elements(out))


_SEGMENT_EXEC = {"search.filters.execute", "search.executor.wand"}


def _count_segment_exec(tracer, args, out):
    """Outermost execute/WAND calls are the executor's per-segment calls;
    their result sizes are the candidates it collects top-k from.  Runs
    after the span closed, so the open spans are its ancestors."""
    if not tracer.inside(_SEGMENT_EXEC) and tracer.inside(
            {"search.executor.search"}):
        tracer.count("segments")
        tracer.count("candidates", len(out[0]))


class _ParquetModule:
    """Stands in for ``pyarrow.parquet`` inside one engine module only:
    opening a file and pulling each record batch are spans."""

    def __init__(self, real, tracer: Tracer, name: str):
        self._real, self._tracer, self._name = real, tracer, name

    def __getattr__(self, attr):
        return getattr(self._real, attr)

    def ParquetFile(self, *args, **kwargs):  # noqa: N802 — mirrors pyarrow
        i = self._tracer.enter(self._name)
        try:
            pf = self._real.ParquetFile(*args, **kwargs)
        finally:
            self._tracer.exit(i)
        return _ParquetFile(pf, self._tracer, self._name)


class _ParquetFile:
    def __init__(self, pf, tracer: Tracer, name: str):
        self._pf, self._tracer, self._name = pf, tracer, name

    def __getattr__(self, attr):
        return getattr(self._pf, attr)

    def iter_batches(self, *args, **kwargs):
        it = iter(self._pf.iter_batches(*args, **kwargs))
        while True:
            i = self._tracer.enter(self._name)
            try:
                batch = next(it)
            except StopIteration:
                return
            finally:
                self._tracer.exit(i)
            yield batch


# ---------------------------------------------------------- hook table ----
@dataclass(frozen=True)
class Hook:
    """``path`` is an attribute path under ``module``; ``Base+.attr`` means
    ``attr`` on ``Base`` and on every subclass that defines its own."""
    module: str
    path: str
    make: Callable  # (tracer, original) -> replacement


def _span_hook(name, after=None):
    return lambda t, fn: _span(t, name, fn, after)


HOOKS: list[Hook] = [
    # build side
    Hook("iresearch_ray.index.build", "pq",
         lambda t, mod: _ParquetModule(mod, t, "sources.parquet_read")),
    Hook("iresearch_ray.index.build", "flatten_batch_arrow",
         _span_hook("analysis.tokenize", _count_tokens)),
    Hook("iresearch_ray.index.build", "BuildSegmentTask.build_one",
         _span_hook("index.build.build_one")),
    Hook("iresearch_ray.index.segment", "SegmentWriter.add_batch_coded",
         _span_hook("index.segment.add_batch")),
    Hook("iresearch_ray.index.segment", "SegmentWriter.flush",
         _span_hook("index.segment.flush")),
    Hook("iresearch_ray.index.segment", "invert_coded",
         _span_hook("index.segment.invert")),
    Hook("iresearch_ray.index.segment", "encode_postings_table",
         _span_hook("index.segment.encode")),
    Hook("iresearch_ray.index.segment", "write_segment_dir",
         _span_hook("index.segment.write")),
    Hook("iresearch_ray.index.merge", "decode_segment_full",
         _span_hook("index.merge.decode")),
    Hook("iresearch_ray.index.merge", "merge_segment_tables",
         _span_hook("index.merge.merge")),
    Hook("iresearch_ray.index.merge", "encode_postings_table",
         _span_hook("index.merge.encode")),
    Hook("iresearch_ray.index.merge", "write_segment_dir",
         _span_hook("index.merge.write")),
    Hook("iresearch_ray.index.manifest", "commit",
         _span_hook("index.manifest.commit")),
    # segment reader
    Hook("iresearch_ray.index.segment", "SegmentReader.terms_table",
         lambda t, fn: _first_per_instance(t, "index.segment.dict_load", fn,
                                           "dict_loads")),
    Hook("iresearch_ray.index.segment", "SegmentReader.terms",
         lambda t, fn: _first_per_instance(t, "index.segment.dict_load", fn)),
    Hook("iresearch_ray.index.segment", "SegmentReader._load_docmap",
         _span_hook("index.segment.docmap_load")),
    Hook("iresearch_ray.index.segment", "SegmentReader.lookup",
         lambda t, fn: _counter(t, "lookups", fn)),
    Hook("iresearch_ray.index.segment", "SegmentReader._decode_postings",
         _span_hook("index.segment.postings_decode", _count_decoded)),
    Hook("iresearch_ray.index.segment", "SegmentReader.cached_entry", _lru),
    # search
    Hook("iresearch_ray.search.filters", "Filter+.prepare",
         _span_hook("search.filters.prepare")),
    Hook("iresearch_ray.search.filters", "Prepared+.execute",
         _span_hook("search.filters.execute", _count_segment_exec)),
    Hook("iresearch_ray.search.scorers", "PreparedBM25.score",
         _span_hook("search.scorers.score")),
    Hook("iresearch_ray.search.executor", "_wand_term",
         _span_hook("search.executor.wand", _count_segment_exec)),
    Hook("iresearch_ray.search.executor", "_wand_union",
         _span_hook("search.executor.wand", _count_segment_exec)),
    Hook("iresearch_ray.search.executor", "IndexSearcher.search",
         _span_hook("search.executor.search")),
]


def _subclasses(cls) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


def _targets(hook: Hook) -> list[tuple[object, str]]:
    """(owner, attribute) pairs a hook replaces; raises LookupError when
    the module or any attribute on the path is gone."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError as e:
        raise LookupError(hook.module) from e
    *parents, attr = hook.path.split(".")
    for name in parents:
        expand = name.endswith("+")
        owner = getattr(owner, name.rstrip("+"), None)
        if owner is None:
            raise LookupError(f"{hook.module}.{hook.path}")
        if expand:
            return [(c, attr) for c in _subclasses(owner) if attr in vars(c)]
    if not hasattr(owner, attr):
        raise LookupError(f"{hook.module}.{hook.path}")
    return [(owner, attr)]


def describe(hook: Hook) -> str:
    return f"{hook.module}.{hook.path}"


class Installed:
    """The replacements made by ``install``; ``remove`` restores them."""

    def __init__(self) -> None:
        self.saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def remove(self) -> None:
        for owner, attr, raw in reversed(self.saved):
            setattr(owner, attr, raw)
        self.saved.clear()


def install(tracer: Tracer, hooks: list[Hook] = HOOKS) -> Installed:
    done = Installed()
    for hook in hooks:
        try:
            targets = _targets(hook)
        except LookupError:
            done.absent.append(describe(hook))
            continue
        for owner, attr in targets:
            raw = vars(owner)[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            if isinstance(raw, property):
                new = property(hook.make(tracer, raw.fget))
            else:
                new = hook.make(tracer, raw)
            done.saved.append((owner, attr, raw))
            setattr(owner, attr, new)
    return done


# ------------------------------------------------------------- metrics ----
# name, unit, phase, aggregate, source, per, hook paths it needs.
# aggregate: "incl"/"self" sum span durations/self times of ``source``,
# "p50"/"max" take that statistic of span durations, "count" reads a
# counter.  ``per`` divides by the phase's number of built segments,
# merge runs, commits, index opens or queries.
LAYER_METRICS = [
    ("sources.parquet_read_ms", "ms", "ingest", "incl",
     "sources.parquet_read", "segment", ["iresearch_ray.index.build.pq"]),
    ("analysis.tokenize_ms", "ms", "ingest", "incl", "analysis.tokenize",
     "segment", ["iresearch_ray.index.build.flatten_batch_arrow"]),
    ("analysis.tokens", "count", "ingest", "count", "tokens", "segment",
     ["iresearch_ray.index.build.flatten_batch_arrow"]),
    ("index.segment.add_batch_ms", "ms", "ingest", "incl",
     "index.segment.add_batch", "segment",
     ["iresearch_ray.index.segment.SegmentWriter.add_batch_coded"]),
    ("index.segment.dict_merge_ms", "ms", "ingest", "self",
     "index.segment.flush", "segment",
     ["iresearch_ray.index.segment.SegmentWriter.flush"]),
    ("index.segment.invert_ms", "ms", "ingest", "self",
     "index.segment.invert", "segment",
     ["iresearch_ray.index.segment.invert_coded"]),
    ("index.segment.encode_ms", "ms", "ingest", "incl",
     "index.segment.encode", "segment",
     ["iresearch_ray.index.segment.encode_postings_table"]),
    ("index.segment.write_ms", "ms", "ingest", "incl",
     "index.segment.write", "segment",
     ["iresearch_ray.index.segment.write_segment_dir"]),
    ("index.build.segment_ms_p50", "ms", "ingest", "p50",
     "index.build.build_one", None,
     ["iresearch_ray.index.build.BuildSegmentTask.build_one"]),
    ("index.build.segment_ms_max", "ms", "ingest", "max",
     "index.build.build_one", None,
     ["iresearch_ray.index.build.BuildSegmentTask.build_one"]),
    ("index.merge.decode_ms", "ms", "ingest", "incl", "index.merge.decode",
     "merge", ["iresearch_ray.index.merge.decode_segment_full"]),
    ("index.merge.merge_ms", "ms", "ingest", "self", "index.merge.merge",
     "merge", ["iresearch_ray.index.merge.merge_segment_tables"]),
    ("index.merge.encode_ms", "ms", "ingest", "incl", "index.merge.encode",
     "merge", ["iresearch_ray.index.merge.encode_postings_table"]),
    ("index.merge.write_ms", "ms", "ingest", "incl", "index.merge.write",
     "merge", ["iresearch_ray.index.merge.write_segment_dir"]),
    ("index.manifest.commit_ms", "ms", "ingest", "incl",
     "index.manifest.commit", "commit",
     ["iresearch_ray.index.manifest.commit"]),
    ("index.segment.dict_load_ms", "ms", "reopen", "self",
     "index.segment.dict_load", "open",
     ["iresearch_ray.index.segment.SegmentReader.terms_table",
      "iresearch_ray.index.segment.SegmentReader.terms"]),
    ("index.segment.dict_loads", "count", "reopen", "count", "dict_loads",
     "open", ["iresearch_ray.index.segment.SegmentReader.terms_table"]),
    ("index.segment.docmap_load_ms", "ms", "reopen", "incl",
     "index.segment.docmap_load", "open",
     ["iresearch_ray.index.segment.SegmentReader._load_docmap"]),
    ("index.segment.lookups", "count", "loop", "count", "lookups", "query",
     ["iresearch_ray.index.segment.SegmentReader.lookup"]),
    ("index.segment.postings_decode_us", "us", "loop", "incl",
     "index.segment.postings_decode", "query",
     ["iresearch_ray.index.segment.SegmentReader._decode_postings"]),
    ("index.segment.decoded_elements", "count", "loop", "count",
     "decoded_elements", "query",
     ["iresearch_ray.index.segment.SegmentReader._decode_postings"]),
    ("index.segment.lru_hits", "count", "loop", "count", "lru_hits", "query",
     ["iresearch_ray.index.segment.SegmentReader.cached_entry"]),
    ("index.segment.lru_misses", "count", "loop", "count", "lru_misses",
     "query", ["iresearch_ray.index.segment.SegmentReader.cached_entry"]),
    ("index.segment.lru_evictions", "count", "loop", "count",
     "lru_evictions", "query",
     ["iresearch_ray.index.segment.SegmentReader.cached_entry"]),
    ("search.filters.prepare_us", "us", "loop", "self",
     "search.filters.prepare", "query",
     ["iresearch_ray.search.filters.Filter+.prepare"]),
    ("search.filters.execute_us", "us", "loop", "self",
     "search.filters.execute", "query",
     ["iresearch_ray.search.filters.Prepared+.execute"]),
    ("search.scorers.score_us", "us", "loop", "incl", "search.scorers.score",
     "query", ["iresearch_ray.search.scorers.PreparedBM25.score"]),
    ("search.executor.wand_us", "us", "loop", "incl", "search.executor.wand",
     "query", ["iresearch_ray.search.executor._wand_term",
               "iresearch_ray.search.executor._wand_union"]),
    ("search.executor.wand_calls", "count", "loop", "spans",
     "search.executor.wand", "query",
     ["iresearch_ray.search.executor._wand_term",
      "iresearch_ray.search.executor._wand_union"]),
    ("search.executor.topk_self_us", "us", "loop", "self",
     "search.executor.search", "query",
     ["iresearch_ray.search.executor.IndexSearcher.search"]),
    ("search.executor.segments_per_query", "count", "loop", "count",
     "segments", "query",
     ["iresearch_ray.search.executor.IndexSearcher.search"]),
    ("search.executor.candidates_per_query", "count", "loop", "count",
     "candidates", "query",
     ["iresearch_ray.search.executor.IndexSearcher.search"]),
]
# measured by the workload rather than from spans: name -> (unit, needs)
GAUGES = {
    "index.segment.terms_bytes": ("bytes", []),
    "index.segment.docmap_bytes": ("bytes", []),
    "index.merge.bytes_rewritten_per_text_byte": ("ratio", []),
    "index.segment.lru_hit_ratio": (
        "ratio", ["iresearch_ray.index.segment.SegmentReader.cached_entry"]),
    "index.segment.lru_resident_elements": (
        "count", ["iresearch_ray.index.segment.SegmentReader.cached_entry"]),
    "trace.overhead_ratio": ("ratio", []),
}
_SCALE = {"ms": 1e3, "us": 1e6, "count": 1.0}


def metric_units() -> dict[str, str]:
    out = {m[0]: m[1] for m in LAYER_METRICS}
    out.update({k: v[0] for k, v in GAUGES.items()})
    return out


def layer_metrics(tracer: Tracer, absent: list[str], per: dict[str, dict],
                  gauges: dict[str, float]) -> dict[str, dict]:
    """Every per-layer metric as {"value", "unit"}; a metric whose hook is
    gone reads 0 with ``"absent": true``.  ``per[phase][unit]`` holds the
    divisors: segments built, merge runs, commits, opens, queries."""
    spans = tracer.spans
    dur = np.array([s[2] - s[1] for s in spans], dtype=float)
    child = np.zeros(len(spans))
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    own = dur - child
    by_key: dict[tuple, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_key[(s[5], s[0])].append(i)

    out: dict[str, dict] = {}
    for name, unit, phase, agg, source, per_what, needs in LAYER_METRICS:
        if any(n in absent for n in needs):
            out[name] = {"value": 0, "unit": unit, "absent": True}
            continue
        idx = by_key.get((phase, source), [])
        if agg == "count":
            v = tracer.counts.get(f"{phase}:{source}", 0.0)
        elif agg == "spans":
            v = float(len(idx))
        elif agg in ("p50", "max"):
            d = dur[idx]
            v = float((np.median(d) if agg == "p50" else d.max())
                      if len(d) else 0.0)
        else:
            v = float((dur if agg == "incl" else own)[idx].sum())
        if agg not in ("count", "spans"):
            v *= _SCALE[unit]
        if per_what:
            v /= max(per.get(phase, {}).get(per_what, 0), 1)
        out[name] = {"value": v, "unit": unit}
    for name, (unit, needs) in GAUGES.items():
        if any(n in absent for n in needs):
            out[name] = {"value": 0, "unit": unit, "absent": True}
        else:
            out[name] = {"value": gauges.get(name, 0.0), "unit": unit}
    if tracer.counts.get("loop:lru_internals_absent"):
        # eviction and residency read the LRU's private dict and size
        for name in ("index.segment.lru_evictions",
                     "index.segment.lru_resident_elements"):
            out[name] = {"value": 0, "unit": "count", "absent": True}
    return out


def resident_elements(searcher) -> float | None:
    """Elements held in the postings LRUs of a searcher's segments, or
    None when the readers no longer keep the private size counter."""
    sizes = [vars(seg.reader).get("_post_cache_size")
             for seg in searcher.reader.segments]
    if all(s is None for s in sizes):
        return None
    return float(sum(s or 0 for s in sizes))
