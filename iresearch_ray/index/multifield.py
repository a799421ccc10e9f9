"""Multi-field indexes: one aligned sub-index per field.

The reference indexes several fields per document (the benchmark corpus
is title+date+body, utils/index-put.cpp:145-232) with per-(segment,field)
statistics (field_meta core/index/field_meta.hpp; per-field collectors
core/search/bm25.cpp:209-243).  Ray-Data-first shape: each field builds
its own segment set under ``<index_dir>/field=<name>/`` from the SAME
deterministic segment specs — so segment ids, doc ids, and doc keys align
across fields — and a root manifest binds them.  Per-field BM25 stats
(N_field, avgdl) fall out naturally, exactly like the reference's
field-scoped collectors.

Cross-field boolean queries work because doc ids align: wrap leaves in
``Fielded(field, filter)`` and search with ``MultiFieldSearcher``.
Constraint: deletes must go through the root (all fields) or doc ids
desynchronize — ``delete_by_filter`` on a single sub-index is unsupported.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd

from iresearch_ray.index.build import build_index
from iresearch_ray.search.distributed import DistributedSearcher
from iresearch_ray.search.executor import (IndexReader, IndexSearcher,
                                           SnapshotMemo)
from iresearch_ray.search.filters import Filter, Prepared

ROOT_META = "multifield.json"


def build_multifield(paths, index_dir: str, fields: dict[str, dict],
                     key_column: str = "url", target_docs: int = 50_000,
                     **kw) -> dict:
    """``fields``: field name -> {"analyzer": ..., "analyzer_opts": {...},
    "store_columns": (...)}.  Returns the root manifest."""
    sub_manifests = {}
    for fname, cfg in fields.items():
        sub = os.path.join(index_dir, f"field={fname}")
        man = build_index(paths, sub,
                          analyzer=cfg.get("analyzer", "unicode"),
                          analyzer_opts=cfg.get("analyzer_opts"),
                          text_column=cfg.get("column", fname),
                          key_column=key_column, target_docs=target_docs,
                          store_columns=tuple(cfg.get("store_columns", ())),
                          **kw)
        sub_manifests[fname] = {"generation": man["generation"],
                                "num_docs": man["num_docs"]}
    root = {"fields": {f: {"dir": f"field={f}", **m}
                       for f, m in sub_manifests.items()}}
    num_docs = {m["num_docs"] for m in sub_manifests.values()}
    assert len(num_docs) == 1, "field sub-indexes must align"
    root["num_docs"] = num_docs.pop()
    tmp = os.path.join(index_dir, "." + ROOT_META)
    with open(tmp, "w") as f:
        json.dump(root, f, indent=1)
    os.replace(tmp, os.path.join(index_dir, ROOT_META))
    return root


class Fielded(Filter):
    """Route a filter to a named field's sub-index (the reference's
    per-filter ``field()`` option, e.g. by_term::field)."""

    _df_collect_boundary = True  # df_collect_nodes stops here
    _PFX = "__field__"

    def __init__(self, field: str, inner: Filter):
        self.field = field
        self.inner = inner

    def terms_needed(self):
        # deliberately empty: a flat term collect would count dfs in the
        # DEFAULT field; expand_dfs below collects them field-prefixed
        return set()

    def _prefix(self) -> str:
        return f"{self._PFX}:{self.field}:"

    def expand_dfs(self, reader) -> dict:
        """Distributed collect for the whole inner tree against THIS
        field's sub-index: exact-term dfs plus inner expansion/variadic
        nodes, all keyed with a field prefix so the driver's flat df_map
        cannot mix fields."""
        from iresearch_ray.search.filters import df_collect_nodes

        sub = reader.field(self.field)
        pfx = self._prefix()
        out: dict[str, int] = {}
        for t in sorted(self.inner.terms_needed()):
            total = sub.memo.rows(t)[1]
            if total:
                out[pfx + t] = total
        for node in df_collect_nodes(self.inner):
            for k, v in node.expand_dfs(sub).items():
                # same part in two inner nodes reports the same local df
                out[pfx + k] = max(out.get(pfx + k, 0), v)
        return out

    def prepare(self, reader, scorer, df_map=None):
        if not hasattr(reader, "field"):
            raise TypeError("Fielded requires a multi-field reader")
        sub = reader.field(self.field)
        sub_map = None
        if df_map is not None:
            pfx = self._prefix()
            sub_map = {k[len(pfx):]: v for k, v in df_map.items()
                       if isinstance(k, str) and k.startswith(pfx)}
        return _FieldBound(self.inner.prepare(sub, scorer, sub_map),
                           sub.segments)


def _same_mask(a, b) -> bool:
    return a is b or (a is not None and b is not None
                      and np.array_equal(a, b))


class _FieldBound(Prepared):
    """Execute against the SAME-ID segment of this field's sub-index
    (segment ids align across fields by construction)."""

    def __init__(self, prep, segments):
        self.prep = prep
        self.segments = segments  # the field's snapshot, prepared on
        self.segs_by_id = {s.id: s for s in segments}

    def execute_global(self, segments):
        """The inner node over the field's own snapshot when it lines up
        with ``segments`` (same ids, bases and masks); otherwise the
        per-segment default, which masks with ``segments``' masks."""
        mine = self.segments
        if len(mine) == len(segments) and all(
                m.id == s.id and m.base == s.base and _same_mask(m.mask, s.mask)
                for m, s in zip(mine, segments)):
            return self.prep.execute_global(mine)
        return super().execute_global(segments)

    def route(self, seg):
        """(inner prepared, this field's same-id segment view) — lets the
        executor's WAND kernels prune field-bound terms with the FIELD's
        skip/block-max metadata instead of falling back to a full scan."""
        return self.prep, self.segs_by_id.get(seg.id)

    def execute(self, seg):
        mine = self.segs_by_id.get(seg.id)
        if mine is None:
            return (np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.float32))
        return self.prep.execute(mine)


class MultiFieldReader:
    """Root reader: per-field IndexReaders with aligned segments."""

    def __init__(self, index_dir: str, default_field: str | None = None):
        with open(os.path.join(index_dir, ROOT_META)) as f:
            self.meta = json.load(f)
        self.readers = {
            fname: IndexReader(os.path.join(index_dir, info["dir"]),
                               info.get("generation"))
            for fname, info in self.meta["fields"].items()
        }
        self.fields = sorted(self.readers)
        self.default_field = default_field or self.fields[0]
        base = self.readers[self.default_field]
        ids = {tuple(s.id for s in r.segments) for r in self.readers.values()}
        if len(ids) != 1:
            raise ValueError("field sub-indexes have diverged segments")
        # composite filters (And/Or/Not) iterate THESE segments; Fielded
        # leaves re-route to their own field's same-id segment
        self.segments = base.segments
        self.stats = base.stats
        self.memo = base.memo

    def field(self, name: str) -> IndexReader:
        try:
            return self.readers[name]
        except KeyError:
            raise KeyError(f"unknown field {name!r}; "
                           f"known: {self.fields}") from None

    @property
    def num_docs(self) -> int:
        return self.meta["num_docs"]

    def key_of(self, global_doc: int) -> str:
        return self.readers[self.default_field].key_of(global_doc)

    def df(self, term: str) -> int:
        """Document frequency in the DEFAULT field — lets field-agnostic
        helpers (mlt_terms / more_like_this) run against a multifield
        index the way key_of already does."""
        return self.readers[self.default_field].df(term)


class MultiFieldSearcher(IndexSearcher):
    """Top-k over a multi-field index: plain filters hit the default
    field; ``Fielded``-wrapped leaves route anywhere; boolean composites
    mix fields freely (aligned doc ids make set ops valid)."""

    def __init__(self, reader: MultiFieldReader, scorer=None):
        super().__init__(reader, scorer)

    def search(self, flt, k: int = 10, mode: str = "all") -> pd.DataFrame:
        if not isinstance(flt, Fielded) and not _has_fielded(flt):
            flt = Fielded(self.reader.default_field, flt)
        # mode='top': _FieldBound.route hands the executor's WAND kernels
        # the field's own aligned segment + block-max metadata, so
        # field-bound terms and cross-field unions prune like plain ones
        return super().search(flt, k=k, mode=mode)


def _has_fielded(flt) -> bool:
    if isinstance(flt, Fielded):
        return True
    for attr in ("children", "filters", "parts"):
        kids = getattr(flt, attr, None)
        if isinstance(kids, (list, tuple)):
            if any(isinstance(c, Filter) and _has_fielded(c) for c in kids):
                return True
    for attr in ("positive", "negative", "parent", "child", "inner"):
        kid = getattr(flt, attr, None)
        if isinstance(kid, Filter) and _has_fielded(kid):
            return True
    return False


# ------------------------------------------------ distributed serving ----
class _FieldGroupView:
    """One field's slice of a segment group — duck-types the parts of
    IndexReader that prepare/execute touch (.segments, .stats, .memo)."""

    def __init__(self, segments, stats):
        self.segments = segments
        self.stats = stats
        self.memo = SnapshotMemo(segments)


def _make_multifield_group_actor():
    import ray

    from iresearch_ray.search.distributed_core import GroupSearchCore

    @ray.remote(num_cpus=1, max_restarts=2, max_task_retries=2)
    class MultiFieldGroupSearcher(GroupSearchCore):
        """Segment-group actor over ALIGNED per-field sub-segments: holds
        the same-id segment of every field, so cross-field booleans and
        Fielded routing work exactly as in the local MultiFieldReader
        (state rebuilt from plain ctor args on restart).  Collect/execute
        logic lives in GroupSearchCore, whose loop routes Fielded nodes
        to these views; the views carry no masks (this path refuses
        masked manifests at construction)."""

        def __init__(self, index_dir: str, field_dirs: dict,
                     default_field: str, segment_entries, stats_by_field):
            from iresearch_ray.index.segment import SegmentReader
            from iresearch_ray.search.executor import SegmentView
            from iresearch_ray.search.scorers import FieldStats

            self.views = {}
            for fname, fdir in field_dirs.items():
                segs = [SegmentView(
                    SegmentReader(os.path.join(index_dir, fdir,
                                               e["segment_id"])),
                    e["base"]) for e in segment_entries]
                self.views[fname] = _FieldGroupView(
                    segs, FieldStats(*stats_by_field[fname]))
            self.segments = self.views[default_field].segments
            self.stats = self.views[default_field].stats
            self._memo = self.views[default_field].memo

        def field(self, name: str):
            try:
                return self.views[name]
            except KeyError:
                raise KeyError(f"unknown field {name!r}; "
                               f"known: {sorted(self.views)}") from None

    return MultiFieldGroupSearcher


class MultiFieldDistributedSearcher(DistributedSearcher):
    """Distributed top-k over a multi-field index: segment-group actors
    hold every field's aligned segments; the df collect round keys
    field-routed stats with a field prefix so rankings match the local
    MultiFieldSearcher exactly."""

    def __init__(self, index_dir: str, num_groups: int | None = None,
                 default_field: str | None = None, scorer=None):
        from iresearch_ray.index import manifest as manifest_mod
        from iresearch_ray.search.scorers import BM25

        self.scorer = scorer or BM25()
        with open(os.path.join(index_dir, ROOT_META)) as f:
            self.meta = json.load(f)
        fields = sorted(self.meta["fields"])
        self.default_field = default_field or fields[0]
        field_dirs = {f: self.meta["fields"][f]["dir"] for f in fields}
        mans = {f: manifest_mod.load(
            os.path.join(index_dir, field_dirs[f]),
            self.meta["fields"][f].get("generation")) for f in fields}
        base_man = mans[self.default_field]
        # same alignment invariant the local MultiFieldReader enforces
        sigs = {tuple((s["segment_id"], s["num_docs"]) for s in m["segments"])
                for m in mans.values()}
        if len(sigs) != 1:
            raise ValueError("field sub-indexes have diverged segments")
        for f, m in mans.items():
            if any(s.get("docmask") for s in m["segments"]):
                raise NotImplementedError(
                    f"field {f!r} has doc masks; distributed multi-field "
                    "serving does not load masks yet — use the local "
                    "MultiFieldSearcher (deletes on multi-field indexes "
                    "must go through the root, see module docstring)")
        entries = []
        base = 0
        for s in base_man["segments"]:
            entries.append({"segment_id": s["segment_id"], "base": base})
            base += s["num_docs"]
        from iresearch_ray.search.distributed_core import plan_groups

        stats_by_field = {f: (m["num_docs"], m["sum_doc_len"])
                          for f, m in mans.items()}
        Actor = _make_multifield_group_actor()
        self.actors = [Actor.remote(index_dir, field_dirs,
                                    self.default_field, g, stats_by_field)
                       for g in plan_groups(entries, num_groups)]

    def search(self, flt, k: int = 10, mode: str = "all") -> pd.DataFrame:
        if not isinstance(flt, Fielded) and not _has_fielded(flt):
            flt = Fielded(self.default_field, flt)
        return super().search(flt, k=k, mode=mode)
